"""Dataset adapters and the synthetic generator: determinism, gold-answer
correctness via a replay oracle, needle placement, and the conversation
corpus loader's schema handling."""

import json
import math
import re

import pytest

from memstream.errors import SchemaError
from memstream.stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    TICK_US,
    logical_tick,
    validate_stream,
    write_stream_file,
)
from memstream.workloads import (
    SyntheticSpec,
    load_generic,
    load_locomo,
    synth_workload,
    write_answer_key,
)
from reference import insert_count

FACT_RE = re.compile(r"^the (\w+) of the (\w+) is (\w+)\.$")
QUESTION_RE = re.compile(r"^what is the (\w+) of the (\w+)$")


def replay_gold(manifest):
    """Independent oracle: walk the stream in order keeping the latest value
    per (attr, entity); a query's gold must be whatever was written last."""
    state = {}
    golds = {}
    for req in manifest.requests:
        if req.kind == KIND_INSERT:
            m = FACT_RE.match(req.payload.context)
            assert m, req.payload.context
            state[(m.group(1), m.group(2))] = m.group(3)
        else:
            m = QUESTION_RE.match(req.payload.query)
            assert m, req.payload.query
            golds[req.payload.query_id] = state[(m.group(1), m.group(2))]
    return golds


# ----------------------------------------------------------------------
# synthetic generator
# ----------------------------------------------------------------------

def test_synth_is_deterministic_by_seed():
    spec = SyntheticSpec(seed=13, n_facts=20, rounds=3, queries_per_round=4,
                         update_rate=0.3, paraphrase_rate=0.5)
    manifest_a, key_a = synth_workload(spec)
    manifest_b, key_b = synth_workload(spec)
    assert manifest_a.requests == manifest_b.requests
    assert key_a == key_b
    manifest_c, key_c = synth_workload(SyntheticSpec(
        seed=14, n_facts=20, rounds=3, queries_per_round=4,
        update_rate=0.3, paraphrase_rate=0.5))
    assert key_c != key_a


def test_synth_streams_validate():
    for spec in (
        SyntheticSpec(seed=0, n_facts=10, rounds=2, queries_per_round=3),
        SyntheticSpec(seed=1, n_facts=30, rounds=5, queries_per_round=8,
                      update_rate=0.5, n_sessions=3),
        SyntheticSpec(seed=2, n_facts=5, rounds=1, queries_per_round=2,
                      needle_depths=(0, 3)),
    ):
        manifest, _ = synth_workload(spec)
        assert validate_stream(manifest) == []


def test_synth_golds_match_replay_oracle():
    spec = SyntheticSpec(seed=7, n_facts=50, rounds=5, queries_per_round=8,
                         update_rate=0.4)
    manifest, key = synth_workload(spec)
    golds = replay_gold(manifest)
    assert set(golds) == set(key)
    for req in manifest.requests:
        if req.kind != KIND_RETRIEVE:
            continue
        qid = req.payload.query_id
        assert req.payload.gold_answer == golds[qid]
        assert key[qid]["gold"] == golds[qid]


def test_synth_updates_change_some_golds():
    base, _ = synth_workload(SyntheticSpec(seed=7, n_facts=20, rounds=2,
                                           queries_per_round=10))
    updated, key = synth_workload(SyntheticSpec(seed=7, n_facts=20, rounds=2,
                                                queries_per_round=10,
                                                update_rate=0.5))
    assert insert_count(updated) == 30  # 20 facts + 10 overwrites
    categories = {req.payload.category for req in updated.requests
                  if req.kind == KIND_RETRIEVE}
    assert categories == {"static", "updated"}
    base_only = {req.payload.category for req in base.requests
                 if req.kind == KIND_RETRIEVE}
    assert base_only == {"static"}


def test_synth_query_placement_and_distances():
    spec = SyntheticSpec(seed=3, n_facts=24, rounds=4, queries_per_round=6)
    manifest, key = synth_workload(spec)
    total = insert_count(manifest)
    for req in manifest.requests:
        if req.kind != KIND_RETRIEVE:
            continue
        entry = key[req.payload.query_id]
        boundary = math.ceil(entry["round"] * total / spec.rounds)
        # the query lands one microsecond after its round's last insert
        assert req.ts == logical_tick(boundary - 1) + 1
        assert 0 <= entry["insert_position"] <= boundary - 1
        assert entry["distance"] == boundary - 1 - entry["insert_position"]
    # the first ladder rung always points at the oldest insert
    for round_number in range(1, spec.rounds + 1):
        assert key[f"r{round_number}q0"]["insert_position"] == 0


def test_synth_needle_depths_pin_distances():
    spec = SyntheticSpec(seed=5, n_facts=40, rounds=2, queries_per_round=3,
                         needle_depths=(0, 7, 150))
    manifest, key = synth_workload(spec)
    total = insert_count(manifest)
    for qid, entry in key.items():
        boundary = math.ceil(entry["round"] * total / spec.rounds)
        depth = (0, 7, 150)[int(qid.split("q")[1]) % 3]
        assert entry["distance"] == min(depth, boundary - 1)


def test_synth_paraphrase_rate_marks_and_rewrites():
    plain, plain_key = synth_workload(SyntheticSpec(
        seed=9, n_facts=20, rounds=2, queries_per_round=8))
    para, para_key = synth_workload(SyntheticSpec(
        seed=9, n_facts=20, rounds=2, queries_per_round=8, paraphrase_rate=1.0))
    assert all(not e["paraphrased"] for e in plain_key.values())
    assert all(e["paraphrased"] for e in para_key.values())
    plain_questions = {r.payload.query_id: r.payload.query
                       for r in plain.requests if r.kind == KIND_RETRIEVE}
    para_questions = {r.payload.query_id: r.payload.query
                      for r in para.requests if r.kind == KIND_RETRIEVE}
    changed = [qid for qid in plain_questions
               if plain_questions[qid] != para_questions[qid]]
    assert changed  # attrs with spelling variants actually get rewritten
    # paraphrasing never touches golds
    for qid in plain_key:
        assert plain_key[qid]["gold"] == para_key[qid]["gold"]


def test_synth_sessions_split_evenly():
    manifest, _ = synth_workload(SyntheticSpec(seed=0, n_facts=20, n_sessions=4,
                                               rounds=1, queries_per_round=1))
    inserts = [r for r in manifest.requests if r.kind == KIND_INSERT]
    by_session = {}
    for req in inserts:
        by_session.setdefault(req.payload.session_id, []).append(req)
    assert set(by_session) == {"s0", "s1", "s2", "s3"}
    assert all(len(v) == 5 for v in by_session.values())
    ts_values = [r.ts for r in inserts]
    assert ts_values == sorted(ts_values)
    assert ts_values[1] - ts_values[0] == TICK_US


def test_synth_explicit_turns_per_session():
    manifest, _ = synth_workload(SyntheticSpec(
        seed=0, n_facts=20, n_sessions=4, turns_per_session=6,
        rounds=1, queries_per_round=1))
    inserts = [r for r in manifest.requests if r.kind == KIND_INSERT]
    sizes = {}
    for req in inserts:
        sizes[req.payload.session_id] = sizes.get(req.payload.session_id, 0) + 1
    assert sizes == {"s0": 6, "s1": 6, "s2": 6, "s3": 2}


@pytest.mark.parametrize("bad", [
    {"n_facts": 0},
    {"rounds": 0},
    {"queries_per_round": 0},
    {"update_rate": 1.5},
    {"paraphrase_rate": -0.1},
    {"n_sessions": 0},
    {"turns_per_session": -1},
    {"needle_depths": ()},
    {"needle_depths": (3, -1)},
])
def test_synth_spec_validation(bad):
    with pytest.raises(ValueError):
        synth_workload(SyntheticSpec(**bad))


def test_write_answer_key_round_trips(tmp_path):
    _, key = synth_workload(SyntheticSpec(seed=2, n_facts=6, rounds=2,
                                          queries_per_round=2))
    path = tmp_path / "stream.jsonl.key.json"
    write_answer_key(key, path)
    assert json.loads(path.read_text()) == key


def test_a_failing_answer_key_write_leaves_the_earlier_key(tmp_path):
    path = tmp_path / "stream.jsonl.key.json"
    write_answer_key({"q0": {"gold": "paris"}}, path)
    before = path.read_text()
    assert before == json.dumps({"q0": {"gold": "paris"}}, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError):
        write_answer_key({"q0": {"gold": "paris"}, "q1": {"gold": {"a set"}}}, path)
    assert path.read_text() == before
    assert list(tmp_path.iterdir()) == [path]  # no .tmp file left


# ----------------------------------------------------------------------
# generic loader
# ----------------------------------------------------------------------

def test_load_generic_round_trips(tmp_path):
    manifest, _ = synth_workload(SyntheticSpec(seed=4, n_facts=6, rounds=2,
                                               queries_per_round=2))
    path = tmp_path / "stream.jsonl"
    write_stream_file(manifest, path)
    loaded = load_generic(path)
    assert loaded.requests == manifest.requests


def test_load_generic_rejects_unordered_stream(tmp_path):
    manifest, _ = synth_workload(SyntheticSpec(seed=4, n_facts=6, rounds=1,
                                               queries_per_round=1))
    path = tmp_path / "bad.jsonl"
    write_stream_file(manifest, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(reversed(lines)) + "\n")
    with pytest.raises(SchemaError, match="stream invalid"):
        load_generic(path)


# ----------------------------------------------------------------------
# conversation corpus loader
# ----------------------------------------------------------------------

def locomo_sample():
    return {
        "sample_id": "conv7",
        "conversation": {
            "speaker_a": "Ana",
            "speaker_b": "Ben",
            "session_1": [
                {"speaker": "Ana", "dia_id": "D1:0",
                 "text": "I adopted a grey kitten yesterday."},
                {"speaker": "Ben", "dia_id": "D1:1",
                 "text": "I named my kitten Smoke."},
            ],
            "session_1_date_time": "1:56 pm on 8 May, 2023",
            "session_2": [
                {"speaker": "Ana", "dia_id": "D2:0",
                 "text": "Smoke sleeps all day."},
                {"speaker": "Ben", "dia_id": "D2:1",
                 "text": "We visited the north harbor today."},
            ],
            "session_2_date_time": "2023-05-09 10:00",
        },
        "qa": [
            {"question": "What is the kitten called?", "answer": "Smoke",
             "evidence": ["D1:1"], "category": 4},
            {"question": "When did they visit the harbor?",
             "answer": "May 9 2023", "evidence": ["D2:1"], "category": 2},
            {"question": "What colour is Ana's dog?", "answer": None,
             "evidence": [], "category": 5},
            {"question": "Does Ben own a parrot?",
             "adversarial_answer": "no parrot", "category": 9},
        ],
    }


def write_locomo(tmp_path, payload, name="corpus.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_locomo_builds_causal_stream(tmp_path):
    manifest = load_locomo(write_locomo(tmp_path, [locomo_sample()]))
    assert validate_stream(manifest) == []
    inserts = [r for r in manifest.requests if r.kind == KIND_INSERT]
    retrieves = [r for r in manifest.requests if r.kind == KIND_RETRIEVE]
    assert len(inserts) == 4 and len(retrieves) == 4

    assert inserts[0].payload.session_id == "conv7/session_1"
    assert inserts[0].payload.speaker == "Ana"
    assert inserts[0].payload.context == "I adopted a grey kitten yesterday."
    # afternoon session: 13:56 UTC on 2023-05-08
    base_1 = inserts[0].ts
    assert base_1 == 1683554160 * 1_000_000
    assert inserts[1].ts == base_1 + TICK_US
    base_2 = inserts[2].ts
    assert base_2 == 1683626400 * 1_000_000  # 2023-05-09 10:00 UTC

    by_id = {r.payload.query_id: r for r in retrieves}
    assert set(by_id) == {"conv7/qa0", "conv7/qa1", "conv7/qa2", "conv7/qa3"}
    # each query lands one tick after its latest evidence turn
    assert by_id["conv7/qa0"].ts == base_1 + TICK_US + 1
    assert by_id["conv7/qa1"].ts == base_2 + TICK_US + 1
    # no evidence: anchored after the sample's final turn
    assert by_id["conv7/qa2"].ts == base_2 + TICK_US + 1
    assert by_id["conv7/qa3"].ts == base_2 + TICK_US + 1


def test_load_locomo_category_mapping(tmp_path):
    manifest = load_locomo(write_locomo(tmp_path, [locomo_sample()]))
    categories = {r.payload.query_id: r.payload.category
                  for r in manifest.requests if r.kind == KIND_RETRIEVE}
    assert categories["conv7/qa0"] == "single-hop"
    assert categories["conv7/qa1"] == "temporal"
    # a null answer turns the question into an abstention probe
    assert categories["conv7/qa2"] == "abstention"
    # unknown category code, but the adversarial answer is kept as gold
    assert categories["conv7/qa3"] == "unknown"
    golds = {r.payload.query_id: r.payload.gold_answer
             for r in manifest.requests if r.kind == KIND_RETRIEVE}
    assert golds["conv7/qa2"] == ""
    assert golds["conv7/qa3"] == "no parrot"


def test_load_locomo_accepts_single_sample_dict(tmp_path):
    manifest = load_locomo(write_locomo(tmp_path, locomo_sample()))
    assert insert_count(manifest) == 4


@pytest.mark.parametrize("mutate, message", [
    (lambda s: s["qa"][0].update(evidence=["D9:9"]), "does not resolve"),
    (lambda s: s["conversation"].pop("session_1_date_time"), "missing"),
    (lambda s: s["qa"][0].update(evidence=["garbage"]), "malformed dialogue id"),
    (lambda s: s["conversation"].update(session_1_date_time="sometime in May"),
     "cannot parse"),
    (lambda s: s["conversation"].update(session_1=[]), "empty or not a list"),
    (lambda s: s["conversation"]["session_1"][0].update(text="   "), "text is empty"),
    (lambda s: s.pop("conversation"), "no conversation"),
    (lambda s: s.update(qa=7), "conv7 qa is not a list"),
    (lambda s: s["qa"][1].update(evidence=5), "conv7 qa 1 evidence is not a list"),
    (lambda s: s["qa"][1].update(category=[2]), r"conv7 qa 1 category \[2\]"),
    (lambda s: s["qa"][1].update(question=" \t "), "conv7 qa 1 question is null or blank"),
    (lambda s: s["qa"][2].update(question=None), "conv7 qa 2 question is null or blank"),
])
def test_load_locomo_schema_errors(tmp_path, mutate, message):
    sample = locomo_sample()
    mutate(sample)
    path = write_locomo(tmp_path, [sample])
    with pytest.raises(SchemaError, match=message):
        load_locomo(path)


def test_load_locomo_rejects_non_list_payload(tmp_path):
    path = write_locomo(tmp_path, "just a string")
    with pytest.raises(SchemaError, match="expected a list"):
        load_locomo(path)
