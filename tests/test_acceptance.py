"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines on success.
Every threshold, fixture, and frozen value here is pinned on purpose;
loosening one is a behavior change that needs a decision, not a test fix.
"""

import itertools
import json
import random
import unicodedata
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from memstream.config import (
    CheckpointSchedule,
    ExperimentConfig,
    FORMULATE_STRATEGIES,
    GatewayConfig,
    INTEGRATE_STRATEGIES,
    IntegrateConfig,
    NORMALIZE_STRATEGIES,
    FormulateConfig,
    NormalizeConfig,
    ConsolidateConfig,
    OperatorConfig,
    StoreConfig,
)
from memstream.errors import UnknownRecord
from memstream.gateway import MockGateway, mock_embed_text
from memstream.ingest import forgetting_curve
from memstream.metrics import (
    STAGE_GENERATION,
    STAGE_POST_RETRIEVE,
    STAGE_PRE_RETRIEVE,
    degradation,
    token_f1,
)
from memstream.orchestrator import _Pipeline, experiment_sink, run_experiment
from memstream.porter import porter_stem
from memstream.records import MemoryRecord, RetrievalSignal
from memstream.stores import BACKENDS, build_store
from memstream.stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    AfterCount,
    QuerySpec,
    RetrievePayload,
    SessionTurns,
    StreamManifest,
    Turn,
    serialize_stream,
)
from memstream.text import SYNONYMS, apply_synonyms, split_sentences
from memstream.workloads import SyntheticSpec, synth_workload
from reference import chat_ns_by_stage


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {name}", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} PASS {name}", flush=True)


def make_config(backend="inverted_vector", dim=32, **overrides):
    cfg = ExperimentConfig(
        store=StoreConfig(backend),
        operators=OperatorConfig(),
        checkpoint=CheckpointSchedule(fraction=0.5),
        gateway=GatewayConfig(embed_dim=dim),
        output_dir="unused",
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def run(cfg, manifest, dim=32):
    return run_experiment(cfg, manifest, gateway=MockGateway(dim=dim))


def strip_latency(obj):
    if isinstance(obj, dict):
        return {k: strip_latency(v) for k, v in obj.items() if k != "latency"}
    if isinstance(obj, list):
        return [strip_latency(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# 1. Frozen first/last round means must reproduce the pinned drift rows.
# ---------------------------------------------------------------------------

FROZEN_DRIFT_ROWS = [
    # (first-round mean F1, last-round mean F1, expected % change)
    (0.169, 0.094, -44.4),
    (0.395, 0.338, -14.4),
    (0.411, 0.358, -12.9),
]


def test_01_relative_degradation_matches_frozen_rows():
    with criterion(1, "relative-degradation frozen rows within 0.1pp"):
        for first, last, expected in FROZEN_DRIFT_ROWS:
            got = degradation([first, last])
            assert abs(got - expected) <= 0.1, (first, last, got, expected)


# ---------------------------------------------------------------------------
# 2. token_f1 agrees with a from-scratch greedy oracle; stemmer reproduces
#    the frozen reference table exactly.
# ---------------------------------------------------------------------------

ORACLE_VOCAB = [
    "running", "runs", "cats", "ponies", "agreed", "agreement", "the", "a",
    "of", "is", "meeting", "memory", "memories", "retrieval", "caches",
    "cached", "42", "3.14", "colour", "color", "harbour", "harbor", "skies",
    "sky", "don't", "it's", "end.", "comma,", "(paren)", "quote”",
    "dash—joined", "exceeded", "university",
]


def oracle_tokens(text):
    kept = "".join(c for c in text.lower()
                   if not unicodedata.category(c).startswith("P"))
    out = []
    for token in kept.split():
        prev = None
        while prev != token:
            prev, token = token, porter_stem(token)
        if token:
            out.append(token)
    return out


def oracle_f1(prediction, gold):
    pred = oracle_tokens(prediction)
    ref = oracle_tokens(gold)
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    remaining = list(ref)
    overlap = 0
    for token in pred:
        if token in remaining:
            remaining.remove(token)
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def test_02_scoring_agrees_with_oracle_and_stemmer_table():
    with criterion(2, "token F1 vs oracle <=1e-12 on 500 pairs; stem table exact"):
        rng = random.Random(424242)
        for _ in range(500):
            pred = " ".join(rng.choice(ORACLE_VOCAB)
                            for _ in range(rng.randint(0, 12)))
            gold = " ".join(rng.choice(ORACLE_VOCAB)
                            for _ in range(rng.randint(0, 8)))
            assert abs(token_f1(pred, gold) - oracle_f1(pred, gold)) <= 1e-12, \
                (pred, gold)
        vectors = Path(__file__).parent / "data" / "porter_vectors.txt"
        checked = 0
        for line in vectors.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            word, expected = line.split()
            assert porter_stem(word) == expected, word
            checked += 1
        assert checked >= 120


# ---------------------------------------------------------------------------
# 3. Causality fuzz: 1,000 randomized streams cycling every backend and
#    every query-side operator pair; no retrieved evidence may carry a
#    timestamp at or after its query.
# ---------------------------------------------------------------------------

FUZZ_WORDS = ("badger", "copper", "lantern", "meadow", "orchid", "pepper",
              "quartz", "river", "saddle", "timber", "velvet", "walnut")


def fuzz_manifest(rng):
    total = rng.randint(5, 9)
    n_sessions = rng.choice((1, 2))
    sessions = []
    made = 0
    for s in range(n_sessions):
        take = total - made if s == n_sessions - 1 else max(1, total // 2)
        turns = tuple(
            Turn(text=f"{rng.choice(FUZZ_WORDS)} {rng.choice(FUZZ_WORDS)} item {made + t}")
            for t in range(take))
        sessions.append(SessionTurns(session_id=f"s{s}", turns=turns,
                                     base_ts=s * 1_000_000_000))
        made += take
    queries = [
        QuerySpec(payload=RetrievePayload(
            query=f"tell me about {rng.choice(FUZZ_WORDS)} and {rng.choice(FUZZ_WORDS)}",
            gold_answer=rng.choice(FUZZ_WORDS), query_id=f"q{qn}"),
            trigger=AfterCount(count=rng.randint(1, total)))
        for qn in range(rng.randint(2, 3))
    ]
    return serialize_stream(sessions, queries)


def test_03_no_retrieved_evidence_from_the_future():
    with criterion(3, "causality fuzz: 1000 streams x 6 backends, 0 violations"):
        combos = list(itertools.product(sorted(BACKENDS),
                                        FORMULATE_STRATEGIES,
                                        INTEGRATE_STRATEGIES))
        schedules = [
            lambda: CheckpointSchedule(fraction=0.5),
            lambda: CheckpointSchedule(every_n=2),
            lambda: CheckpointSchedule(per_round=True),
        ]
        rng = random.Random(20260816)
        gateway = MockGateway(dim=16)
        provenance_rows = 0
        for i in range(1000):
            backend, formulate, integrate = combos[i % len(combos)]
            cfg = ExperimentConfig(
                store=StoreConfig(backend),
                operators=OperatorConfig(
                    formulate=FormulateConfig(strategy=formulate),
                    integrate=IntegrateConfig(strategy=integrate,
                                              multi_query_count=2),
                    k=4),
                checkpoint=schedules[i % 3](),
                gateway=GatewayConfig(embed_dim=16),
                seed=i,
                output_dir="unused",
            )
            result = run_experiment(cfg, fuzz_manifest(rng), gateway=gateway)
            assert result.status == "complete", (i, backend, result.error)
            for res in result.query_results:
                for record_id, _score, ts in res.provenance:
                    assert ts < res.ts, (i, backend, formulate, integrate,
                                         record_id, ts, res.ts)
                    provenance_rows += 1
        assert provenance_rows > 0


def test_03_merged_content_stays_invisible_to_earlier_queries():
    # a t=10 s near-duplicate merges into the t=0 record after the t=1
    # query arrived; the merged text must not reach that query's answer
    with criterion(3, "merged content is invisible to earlier queries"):
        later = "the harbor password is zebra."
        session = SessionTurns(session_id="s0", turns=(
            Turn(text="the harbour password is tiger.", ts=0),
            Turn(text=later, ts=10_000_000),
        ))
        query = QuerySpec(payload=RetrievePayload(query="what is the harbor password?",
                                                  gold_answer="zebra", query_id="q0"),
                          trigger=AfterCount(count=1))
        manifest = serialize_stream([session], [query])
        cfg = make_config(checkpoint=CheckpointSchedule(fraction=1.0))
        cfg.operators.consolidate = ConsolidateConfig(
            strategy="semantic_consolidation", dedup_threshold=0.5)
        gateway = ContextCapture(dim=32)
        pipeline = _Pipeline(cfg, manifest, gateway)
        result = pipeline.run()
        assert result.status == "complete" and len(result.reports) == 1
        assert any(" MERGE " in line for line in result.action_log)
        (res,) = result.query_results
        assert res.ts == 1
        assert res.f1 == 0.0, res.prediction
        assert later not in res.prediction
        (context,) = gateway.contexts
        sentences = list(bundle_sentences(context))
        assert later not in sentences
        assert "the harbour password is tiger." in sentences


class ContextCapture(MockGateway):
    """Mock gateway that keeps every context handed to ``answer``, in call order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.contexts = []

    def answer(self, query, context, **kwargs):
        self.contexts.append(context)
        return super().answer(query, context, **kwargs)


def bundle_sentences(context):
    """Sentences of each bundle line's text, without its '[ts=...] speaker: ' prefix."""
    for line in context.splitlines():
        yield from split_sentences(line.split("] ", 1)[1].split(": ", 1)[1])


def test_03_bundle_sentences_come_from_earlier_inserts():
    # what Generation reads, not only the provenance timestamps: every
    # sentence of every bundle line must be a sentence some insert strictly
    # before the query held, whatever later inserts, merges, summaries and
    # evictions do to the store
    with criterion(3, "bundle sentences come from strictly earlier inserts"):
        spec = SyntheticSpec(seed=3, n_facts=30, update_rate=0.5, n_sessions=2,
                             rounds=3, queries_per_round=4, paraphrase_rate=0.25)
        manifest, _ = synth_workload(spec)
        first_seen = {}
        for request in manifest.requests:
            if request.kind == KIND_INSERT:
                for sentence in split_sentences(request.payload.context):
                    first_seen.setdefault(sentence, request.ts)
        consolidate = ("none", "crud", "forgetting_curve", "heat_migration",
                       "link_evolution", "semantic_consolidation")
        runs = [(backend, strategy, normalize)
                for backend in sorted(BACKENDS) for strategy in consolidate
                for normalize in ("none", "enrich")
                if (strategy != "heat_migration" or BACKENDS[backend].supports_tiers)
                and (strategy != "link_evolution" or BACKENDS[backend].supports_links)]
        queries = sentences = 0
        for i, (backend, strategy, normalize) in enumerate(runs):
            # checkpoints fall mid-round
            cfg = make_config(backend, dim=16, checkpoint=CheckpointSchedule(fraction=0.5))
            cfg.operators = OperatorConfig(
                normalize=NormalizeConfig(strategy=normalize),
                consolidate=ConsolidateConfig(strategy=strategy, dedup_threshold=0.5,
                                              link_threshold=0.3,
                                              retention_threshold=0.5,
                                              initial_strength_s=8.0),
                integrate=IntegrateConfig(
                    strategy=INTEGRATE_STRATEGIES[i % len(INTEGRATE_STRATEGIES)],
                    multi_query_count=2),
                k=4)
            gateway = ContextCapture(dim=16)
            result = run_experiment(cfg, manifest, gateway=gateway)
            assert result.status == "complete", (backend, strategy, normalize, result.error)
            assert len(gateway.contexts) == len(result.query_results)
            for res, context in zip(result.query_results, gateway.contexts):
                queries += 1
                for sentence in bundle_sentences(context):
                    sentences += 1
                    assert first_seen.get(sentence, res.ts) < res.ts, (
                        backend, strategy, normalize, res.query_id, sentence)
        assert queries > 0 and sentences > queries


def test_03_answers_do_not_depend_on_checkpoint_placement():
    # each query is scored against the store as it stood when it arrived, so
    # moving the report boundaries (after every insert, mid-round, at session
    # changes) must not change any answer, even where later inserts evict,
    # forget, rewrite, merge or re-summarise the records it saw
    with criterion(3, "answers identical under every_n 1, fraction 0.13 and per_round"):
        spec = SyntheticSpec(seed=7, n_facts=80, rounds=3, queries_per_round=8,
                             n_sessions=4, update_rate=0.2)
        manifest, _ = synth_workload(spec)
        schedules = (CheckpointSchedule(every_n=1), CheckpointSchedule(fraction=0.13),
                     CheckpointSchedule(per_round=True))
        consolidate = ("none", "crud", "forgetting_curve", "heat_migration",
                       "link_evolution", "semantic_consolidation")
        cases = 0
        for backend in sorted(BACKENDS):
            for strategy in consolidate:
                if ((strategy == "heat_migration" and not BACKENDS[backend].supports_tiers)
                        or (strategy == "link_evolution" and not BACKENDS[backend].supports_links)):
                    continue
                answers = []
                for schedule in schedules:
                    cfg = make_config(backend, dim=16, checkpoint=schedule)
                    if backend == "fifo_queue":
                        cfg.store.params = {"capacity": 16}  # evicts within a round
                    cfg.operators.consolidate = ConsolidateConfig(
                        strategy=strategy, dedup_threshold=0.85, initial_strength_s=30.0)
                    result = run(cfg, manifest, dim=16)
                    assert result.status == "complete", (backend, strategy, result.error)
                    answers.append({res.query_id: (res.prediction, res.f1, res.provenance)
                                    for res in result.query_results})
                assert len(answers[0]) == spec.rounds * spec.queries_per_round
                for schedule, got in zip(schedules[1:], answers[1:]):
                    assert got == answers[0], (backend, strategy, schedule)
                cases += 1
        assert cases == 26


# ---------------------------------------------------------------------------
# 4. Prefix causality: no query's result depends on any request after it.
#    Replaying a prefix of the stream, or the same stream with everything
#    after the prefix swapped for other facts, must leave every query in
#    the prefix and every action of the prefix's requests unchanged.
# ---------------------------------------------------------------------------

def actions_by_seq(action_log, last_seq):
    """Action-log lines of each seq <= ``last_seq``, without CHECKPOINT lines.

    A query's QUERY line is written at its checkpoint, after the lines of
    later inserts, so the log of a prefix run is not a prefix of the log.
    """
    lines = {}
    for line in action_log:
        if not line.startswith("CHECKPOINT "):
            seq = int(line.split(" ", 1)[0])
            if seq <= last_seq:
                lines.setdefault(seq, []).append(line)
    return lines


def prefix_outcome(result, last_seq):
    assert result.status == "complete", result.error
    queries = {res.seq: strip_latency(res.as_dict())
               for res in result.query_results if res.seq <= last_seq}
    return queries, actions_by_seq(result.action_log, last_seq)


def test_04_no_query_depends_on_a_later_request():
    with criterion(4, "prefix causality: 26 pairs x 4 cuts, truncated and swapped tails"):
        spec = SyntheticSpec(seed=5, n_facts=40, update_rate=0.4, paraphrase_rate=0.25)
        manifest, _ = synth_workload(spec)
        other, _ = synth_workload(replace(spec, seed=6))  # other facts, same kinds and times
        assert [(r.seq, r.ts, r.kind) for r in other.requests] == [
            (r.seq, r.ts, r.kind) for r in manifest.requests]
        retrieves = [i for i, r in enumerate(manifest.requests) if r.kind == KIND_RETRIEVE]
        consolidate = ("none", "crud", "forgetting_curve", "heat_migration",
                       "link_evolution", "semantic_consolidation")
        pairs = [(backend, strategy) for backend in sorted(BACKENDS) for strategy in consolidate
                 if (strategy != "heat_migration" or BACKENDS[backend].supports_tiers)
                 and (strategy != "link_evolution" or BACKENDS[backend].supports_links)]
        assert len(pairs) == 26
        for i, (backend, strategy) in enumerate(pairs):
            cfg = make_config(backend, dim=16, checkpoint=CheckpointSchedule(every_n=7))
            if backend == "fifo_queue":
                cfg.store.params = {"capacity": 16}  # evicts within the stream
            cfg.operators = OperatorConfig(
                normalize=NormalizeConfig(strategy=NORMALIZE_STRATEGIES[i % 3]),
                consolidate=ConsolidateConfig(strategy=strategy, dedup_threshold=0.85,
                                              link_threshold=0.3, retention_threshold=0.5,
                                              initial_strength_s=8.0),
                formulate=FormulateConfig(strategy=FORMULATE_STRATEGIES[i % 4]),
                integrate=IntegrateConfig(strategy=INTEGRATE_STRATEGIES[i % 6],
                                          multi_query_count=2),
                k=4)
            full = run(cfg, manifest, dim=16)
            # two cuts inside a round's run of queries, two at a round's last
            # query, where an insert comes next
            for j in (3, 15, 21, 31):
                cut = retrieves[j]
                last_seq = manifest.requests[cut].seq
                expected = prefix_outcome(full, last_seq)
                assert len(expected[0]) == j + 1
                head = manifest.requests[:cut + 1]
                swapped = head + tuple(
                    replace(r, payload=o.payload)
                    for r, o in zip(manifest.requests[cut + 1:], other.requests[cut + 1:]))
                assert swapped != manifest.requests
                for requests in (head, swapped):
                    cut_run = run(cfg, StreamManifest(requests), dim=16)
                    assert prefix_outcome(cut_run, last_seq) == expected, (
                        backend, strategy, cut, len(requests))


# ---------------------------------------------------------------------------
# 5. Persisted results are reproducible: two identical runs differ at most
#    inside "latency" subtrees.
# ---------------------------------------------------------------------------

def canonical_jsonl(path):
    return [json.dumps(strip_latency(json.loads(line)), sort_keys=True)
            for line in path.read_text().splitlines()]


def test_05_reruns_are_identical_outside_latency_fields(tmp_path):
    with criterion(5, "rerun checkpoints identical modulo latency fields"):
        spec = SyntheticSpec(seed=31, n_facts=40, update_rate=0.2, n_sessions=2,
                             rounds=4, queries_per_round=5, paraphrase_rate=0.25)
        manifest, _ = synth_workload(spec)
        dirs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(
                store=StoreConfig("inverted_vector"),
                operators=OperatorConfig(
                    normalize=NormalizeConfig(strategy="enrich"),
                    consolidate=ConsolidateConfig(strategy="crud"),
                    formulate=FormulateConfig(strategy="keyword"),
                    integrate=IntegrateConfig(strategy="time_weighted")),
                checkpoint=CheckpointSchedule(fraction=0.25),
                gateway=GatewayConfig(embed_dim=32),
                seed=7,
                output_dir=str(tmp_path / name),
            )
            result = run(cfg, manifest)
            assert result.status == "complete"
            experiment_sink(result, tmp_path / name)
            dirs.append(tmp_path / name)
        a, b = dirs
        assert canonical_jsonl(a / "checkpoints.jsonl") == \
            canonical_jsonl(b / "checkpoints.jsonl")
        assert canonical_jsonl(a / "queries.jsonl") == \
            canonical_jsonl(b / "queries.jsonl")
        assert (a / "actions.log").read_bytes() == (b / "actions.log").read_bytes()


# ---------------------------------------------------------------------------
# 6. Fused lexical+vector retrieval is at least as good as either route
#    alone on a corpus that is half exact wording, half paraphrased.
# ---------------------------------------------------------------------------

HYBRID_DIM = 128
HYBRID_ATTRS = ["color", "flavor", "odor", "humor", "rumor", "vapor", "labor",
                "honor"]
HYBRID_ENTITIES = ["harbor", "armor", "center", "meter", "fiber", "theater",
                   "neighbor", "tumor"]


def hybrid_recall_at_5(mode):
    facts = [(a, e, f"val{i:02d}") for i, (a, e) in enumerate(
        (a, e) for a in HYBRID_ATTRS for e in HYBRID_ENTITIES)]
    store = build_store("inverted_vector", embed_dim=HYBRID_DIM,
                        params={"mode": mode})
    ids = []
    for i, (attr, entity, value) in enumerate(facts):
        text = f"the {attr} of the {entity} is {value}."
        record = MemoryRecord(record_id="", text=text, ts=i, session_id="s",
                              turn_index=i,
                              embedding=mock_embed_text(text, HYBRID_DIM))
        inserted = store.insert([record])
        ids.append(inserted[0])
    hits = 0
    for i, (attr, entity, _value) in enumerate(facts):
        query = f"what is the {attr} of the {entity}"
        if i % 2 == 1:
            query = apply_synonyms(query, SYNONYMS)
        signal = RetrievalSignal(raw_query=query,
                                 embedding=mock_embed_text(query, HYBRID_DIM))
        candidates = store.retrieve(signal, 5, None)
        if ids[i] in {c.record_id for c in candidates}:
            hits += 1
    return hits / len(facts)


def test_06_fused_retrieval_dominates_single_routes():
    with criterion(6, "fused recall@5 >= max(lexical, vector), floor 0.9"):
        fused = hybrid_recall_at_5("fused")
        lexical = hybrid_recall_at_5("lexical")
        vector = hybrid_recall_at_5("vector")
        # fixture sanity: the paraphrased half must actually defeat pure
        # lexical matching, otherwise this comparison tests nothing
        assert lexical <= 0.6, lexical
        assert fused >= max(lexical, vector), (fused, lexical, vector)
        assert fused >= 0.9, fused


# ---------------------------------------------------------------------------
# 7. A capacity-bound queue forgets old evidence; an unbounded indexed
#    store does not, and the queue's per-round scores decay.
# ---------------------------------------------------------------------------

def run_synth(backend, spec):
    manifest, key = synth_workload(spec)
    cfg = ExperimentConfig(
        store=StoreConfig(backend),
        operators=OperatorConfig(),
        checkpoint=CheckpointSchedule(fraction=1.0 / spec.rounds),
        gateway=GatewayConfig(embed_dim=64),
        output_dir="unused", seed=5,
    )
    return run_experiment(cfg, manifest, gateway=MockGateway(dim=64)), key


def test_07_bounded_queue_forgets_deep_history():
    with criterion(7, "queue needle recall 0 vs indexed >=0.9; round decay"):
        needle_spec = SyntheticSpec(seed=13, n_facts=300, update_rate=0.0,
                                    n_sessions=3, rounds=2,
                                    queries_per_round=10,
                                    needle_depths=(150, 200, 250),
                                    paraphrase_rate=0.0)
        recalls = {}
        for backend in ("fifo_queue", "inverted_vector"):
            result, key = run_synth(backend, needle_spec)
            assert result.status == "complete"
            deep = [q for q in result.query_results
                    if key[q.query_id]["distance"] > 128]
            assert len(deep) == 20
            recalls[backend] = sum(1 for q in deep if q.f1 > 0) / len(deep)
        assert recalls["fifo_queue"] == 0.0, recalls
        assert recalls["inverted_vector"] >= 0.9, recalls

        decay_spec = SyntheticSpec(seed=29, n_facts=640, update_rate=0.0,
                                   n_sessions=5, rounds=5,
                                   queries_per_round=8, paraphrase_rate=0.0)
        result, _ = run_synth("fifo_queue", decay_spec)
        means = result.summary()["round_mean_f1"]
        assert len(means) == 5
        non_increasing = sum(1 for a, b in zip(means, means[1:]) if b <= a)
        assert non_increasing == 4, means
        assert means[-1] < means[0], means


# ---------------------------------------------------------------------------
# 8. Signature-bucket index reproduces brute-force cosine top-10 on
#    clustered vectors.
# ---------------------------------------------------------------------------

def test_08_bucketed_index_matches_brute_force_neighbors():
    with criterion(8, "bucketed-index recall@10 >= 0.9 on 1000 vectors"):
        rng = np.random.default_rng(20260816)
        dim = 64
        sigma = 0.01
        centers = rng.normal(size=(50, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        vectors = []
        for i in range(1000):
            v = centers[i % 50] + sigma * rng.normal(size=dim)
            vectors.append(v / np.linalg.norm(v))
        store = build_store("lsh_hash", embed_dim=dim, seed=7)
        ids = []
        for i, v in enumerate(vectors):
            record = MemoryRecord(record_id="", text=f"vector {i}", ts=i,
                                  session_id="s", turn_index=i, embedding=v)
            inserted = store.insert([record])
            ids.append(inserted[0])
        matrix = np.stack(vectors)
        recalls = []
        for qn in range(100):
            base = vectors[rng.integers(0, 1000)]
            q = base + sigma * rng.normal(size=dim)
            q /= np.linalg.norm(q)
            oracle = {ids[j] for j in np.argsort(-(matrix @ q))[:10]}
            signal = RetrievalSignal(raw_query=f"q{qn}", embedding=q)
            candidates = store.retrieve(signal, 10, None)
            got = {c.record_id for c in candidates}
            recalls.append(len(got & oracle) / 10)
        mean_recall = sum(recalls) / len(recalls)
        assert mean_recall >= 0.9, mean_recall


# ---------------------------------------------------------------------------
# 9. Stage walls account for the full request wall outside answer
#    generation, and gateway-free operators never bill chat time to the
#    query-side stages.
# ---------------------------------------------------------------------------

def test_09_stage_walls_account_for_request_time():
    with criterion(9, "sum(stage walls) in [0.95,1.0] x (e2e - generation)"):
        # 300 inserts + 5 rounds x 40 queries = exactly 500 requests
        spec = SyntheticSpec(seed=17, n_facts=300, update_rate=0.0,
                             n_sessions=3, rounds=5, queries_per_round=40,
                             paraphrase_rate=0.0)
        result, _ = run_synth("inverted_vector", spec)
        assert result.status == "complete"
        assert len(result.traces) == 500
        for trace in result.traces:
            generation = trace.stage_ns.get(STAGE_GENERATION, 0)
            staged = sum(ns for stage, ns in trace.stage_ns.items()
                         if stage != STAGE_GENERATION)
            target = trace.e2e_ns - generation
            assert target > 0, trace.seq
            assert 0.95 * target <= staged <= target, \
                (trace.seq, staged, target)
            chat = chat_ns_by_stage(trace)
            assert chat.get(STAGE_PRE_RETRIEVE, 0) == 0, trace.seq
            assert chat.get(STAGE_POST_RETRIEVE, 0) == 0, trace.seq


# ---------------------------------------------------------------------------
# 10. Retention eviction removes exactly the records past the threshold
#     age, and evicted records never come back from retrieval.
# ---------------------------------------------------------------------------

AGE_RATIOS = [0.1, 0.25, 0.5, 0.75, 1.0, 1.1, 1.2, 1.203, 1.205, 1.21, 1.25,
              1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0]
# threshold 0.3 evicts when age/strength > -ln(0.3) ~= 1.20397: the 12
# ratios from 1.205 up. 1.203 stays (retention 0.30022), 1.205 goes
# (retention 0.29962); both margins dwarf float noise.
EVICT_FROM = 1.205


def test_10_retention_eviction_is_exact_and_permanent():
    with criterion(10, "retention eviction exact on 20-record fixture"):
        store = build_store("fifo_queue", embed_dim=16)
        now = 10**12
        strength = 500.0
        by_ratio = {}
        for i, ratio in enumerate(AGE_RATIOS):
            record = MemoryRecord(record_id="", text=f"aged record {i}", ts=i,
                                  session_id="s", turn_index=i)
            inserted = store.insert([record])
            stored = store.get(inserted[0])
            stored.strength = strength
            stored.last_access = now - int(ratio * strength * 1_000_000)
            by_ratio[ratio] = inserted[0]
        evicted = set(forgetting_curve(store, now, 0.3))
        expected = {rid for ratio, rid in by_ratio.items()
                    if ratio >= EVICT_FROM}
        assert len(expected) == 12
        assert evicted == expected
        survivors = {r.record_id for r in store.all_records()}
        assert survivors == set(by_ratio.values()) - expected

        # fuzz: nothing evicted is ever retrievable again
        rng = random.Random(99)
        fuzz_store = build_store("inverted_vector", embed_dim=16)
        tombstones, live, counter = set(), set(), 0
        for cycle in range(100):
            for _ in range(rng.randint(1, 3)):
                text = f"{rng.choice(FUZZ_WORDS)} {rng.choice(FUZZ_WORDS)} {counter}"
                record = MemoryRecord(record_id="", text=text, ts=counter,
                                      session_id="s", turn_index=counter,
                                      embedding=mock_embed_text(text, 16))
                inserted = fuzz_store.insert([record])
                live.add(inserted[0])
                counter += 1
            records = list(fuzz_store.all_records())
            for record in rng.sample(records, k=min(2, len(records))):
                record.strength = strength
                record.last_access = now - int(rng.uniform(0.0, 3.0)
                                               * strength * 1_000_000)
            gone = forgetting_curve(fuzz_store, now, 0.3)
            tombstones.update(gone)
            live.difference_update(gone)
            for _ in range(2):
                query = f"{rng.choice(FUZZ_WORDS)} {rng.choice(FUZZ_WORDS)}"
                signal = RetrievalSignal(raw_query=query,
                                         embedding=mock_embed_text(query, 16))
                candidates = fuzz_store.retrieve(signal, 5, None)
                returned = {c.record_id for c in candidates}
                assert not returned & tombstones, cycle
                assert returned <= live, cycle
        assert tombstones
        for dead in tombstones:
            with pytest.raises(UnknownRecord):
                fuzz_store.get(dead)


# ---------------------------------------------------------------------------
# 11. Golden replay: a 12-request stream with pass-through operators must
#     reproduce this hand-written action log line for line.
# ---------------------------------------------------------------------------

GOLDEN_FACTS = ["alice keeps bees", "bob brews cider", "carol paints fences",
                "dave repairs clocks", "erin grows tulips", "frank bakes bread",
                "grace trains falcons", "henry carves chairs"]

GOLDEN_QUERIES = [
    ("qa", "who keeps bees", "alice", 4),
    ("qb", "who paints fences", "carol", 4),
    ("qc", "who trains falcons", "grace", 8),
    ("qd", "who brews cider", "bob", 8),
]

# Derived by hand: one session, ticks of 1s, checkpoint boundaries at
# inserts 4 and 8, each query answered by its only token-overlapping fact.
GOLDEN_LOG = [
    "0 ts=0 INSERT m000001",
    "1 ts=1000000 INSERT m000002",
    "2 ts=2000000 INSERT m000003",
    "3 ts=3000000 INSERT m000004",
    "CHECKPOINT 1 inserts=4 queries=2",
    "4 ts=3000001 QUERY qa -> alice keeps bees",
    "5 ts=3000001 QUERY qb -> carol paints fences",
    "6 ts=4000000 INSERT m000005",
    "7 ts=5000000 INSERT m000006",
    "8 ts=6000000 INSERT m000007",
    "9 ts=7000000 INSERT m000008",
    "CHECKPOINT 2 inserts=8 queries=2",
    "10 ts=7000001 QUERY qc -> grace trains falcons",
    "11 ts=7000001 QUERY qd -> bob brews cider",
]


def test_11_golden_replay_reproduces_handwritten_log():
    with criterion(11, "12-request golden replay matches hand-written log"):
        session = SessionTurns(session_id="s0",
                               turns=tuple(Turn(text=t) for t in GOLDEN_FACTS),
                               base_ts=0)
        queries = [
            QuerySpec(payload=RetrievePayload(query=text, gold_answer=gold,
                                              query_id=qid),
                      trigger=AfterCount(count=count))
            for qid, text, gold, count in GOLDEN_QUERIES
        ]
        manifest = serialize_stream([session], queries)
        assert len(manifest.requests) == 12
        result = run(make_config("fifo_queue"), manifest)
        assert result.status == "complete"
        assert result.action_log == GOLDEN_LOG
