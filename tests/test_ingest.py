"""Insertion-side operators: normalization strategies, consolidation
policies, and their fail-open behavior under gateway faults."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memstream.config import ConsolidateConfig, NormalizeConfig, config_from_dict
from memstream.errors import (
    UnknownRecord,
    UnparseableExtraction,
    UnsupportedBackend,
)
from memstream.gateway import MockGateway, mock_embed_text
from memstream.ingest import (
    _nearest_existing,
    consolidate_crud,
    forgetting_curve,
    heat,
    heat_migration,
    link_evolution,
    merge_records,
    normalize_enrich,
    normalize_none,
    normalize_rewrite,
    retention,
    run_consolidate,
    run_normalize,
    semantic_consolidation,
)
from memstream.metrics import STAGE_POST_INSERT, STAGE_PRE_INSERT
from memstream.orchestrator import _Pipeline
from memstream.records import (
    KIND_SUMMARY,
    KIND_TRIPLET,
    MemoryRecord,
    TIER_LONG,
    TIER_MID,
    TIER_SHORT,
)
from memstream.stores import build_store
from memstream.records import RetrievalSignal
from memstream.stream import KIND_INSERT, InsertPayload, Request, StreamManifest
from memstream.workloads import SyntheticSpec, synth_workload

US = 1_000_000
DAY_S = 86400.0
DAY_US = int(DAY_S * US)


class ScriptedGateway(MockGateway):
    """Mock gateway whose chat replies for selected templates come from a
    canned queue, so tests can exercise replies the real mock never emits."""

    def __init__(self, script=None, **kwargs):
        super().__init__(**kwargs)
        self.script = {k: list(v) for k, v in (script or {}).items()}

    def _chat_impl(self, template_id, variables):
        queue = self.script.get(template_id)
        if queue:
            return queue.pop(0), 0
        return super()._chat_impl(template_id, variables)


def turn(text, sid="s1", ti=0, speaker=None):
    return InsertPayload(context=text, session_id=sid, turn_index=ti, speaker=speaker)


def put(store, text, *, ts=0, sid="s1", ti=0, embedding=None, **fields):
    record = MemoryRecord(record_id="", text=text, ts=ts, session_id=sid,
                          turn_index=ti, embedding=embedding)
    ids = store.insert([record])
    stored = store.get(ids[0])
    for name, value in fields.items():
        setattr(stored, name, value)
    return ids[0]


def insert_pipeline(operators, gw):
    """A pipeline over an empty stream, to drive single insert requests by hand."""
    cfg = config_from_dict({"operators": operators,
                            "gateway": {"kind": "mock", "embed_dim": gw.dim}})
    return _Pipeline(cfg, StreamManifest(requests=()), gw)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalize_none_keeps_turn_verbatim():
    gw = MockGateway(dim=64)
    h = turn("Alice moved to Oslo last spring.", sid="sA", ti=3, speaker="alice")
    records = normalize_none(h, 42, gw)
    assert len(records) == 1
    rec = records[0]
    assert rec.text == h.context
    assert rec.ts == 42
    assert rec.session_id == "sA"
    assert rec.turn_index == 3
    assert rec.speaker == "alice"
    assert rec.embedding is not None
    assert np.allclose(rec.embedding, mock_embed_text(h.context, 64))


def test_normalize_enrich_adds_summary_record():
    gw = MockGateway(dim=64)
    h = turn("Alice moved to Oslo. She likes the winters there.")
    records = normalize_enrich(h, 7, gw, max_sentences=2)
    assert len(records) == 2
    raw, summary = records
    assert raw.text == h.context
    assert summary.kind == KIND_SUMMARY
    # the mock summarizer returns the first sentence
    assert summary.text == "Alice moved to Oslo."
    assert summary.ts == 7 and summary.session_id == raw.session_id
    assert np.allclose(summary.embedding, mock_embed_text(summary.text, 64))
    assert np.allclose(raw.embedding, mock_embed_text(raw.text, 64))


def test_normalize_rewrite_extracts_triplets():
    gw = MockGateway(dim=64)
    h = turn("Alice likes tea.", sid="sB", ti=5)
    triplets = normalize_rewrite(h, gw, max_triplets=5)
    assert len(triplets) == 1
    t = triplets[0]
    assert (t.subject, t.relation, t.object) == ("alice", "likes", "tea")


def test_normalize_rewrite_small_talk_yields_nothing():
    gw = MockGateway(dim=64)
    triplets = normalize_rewrite(turn("Ok thanks!"), gw, max_triplets=5)
    assert triplets == []


def test_normalize_rewrite_caps_triplet_count():
    gw = MockGateway(dim=64)
    h = turn("Alice likes tea. Bob hates rain. Carol paints walls.")
    triplets = normalize_rewrite(h, gw, max_triplets=2)
    assert len(triplets) == 2
    assert triplets[0].subject == "alice"
    assert triplets[1].subject == "bob"


def test_normalize_rewrite_rejects_garbage_reply():
    gw = ScriptedGateway(script={"triplets": ["alice | tea"]}, dim=64)
    with pytest.raises(UnparseableExtraction):
        normalize_rewrite(turn("Alice likes tea."), gw, max_triplets=5)
    gw = ScriptedGateway(script={"triplets": ["a |  | b"]}, dim=64)
    with pytest.raises(UnparseableExtraction):
        normalize_rewrite(turn("Alice likes tea."), gw, max_triplets=5)


def test_run_normalize_rewrite_builds_triplet_records():
    gw = MockGateway(dim=64)
    records, flags = run_normalize(
        turn("Alice likes tea."), 9, NormalizeConfig(strategy="rewrite"), gw)
    assert flags == []
    assert len(records) == 1
    rec = records[0]
    assert rec.kind == KIND_TRIPLET
    assert rec.text == "alice likes tea"
    assert rec.triplet is not None
    assert rec.ts == 9
    assert np.allclose(rec.embedding, mock_embed_text("alice likes tea", 64))


def test_run_normalize_rewrite_small_talk_stores_nothing():
    gw = MockGateway(dim=64)
    records, flags = run_normalize(
        turn("Ok thanks!"), 9, NormalizeConfig(strategy="rewrite"), gw)
    assert records == [] and flags == []


def test_run_normalize_enrich_falls_back_to_raw():
    gw = MockGateway(dim=64, failing={"summarize"})
    records, flags = run_normalize(
        turn("Alice moved to Oslo."), 9, NormalizeConfig(strategy="enrich"), gw)
    assert flags == ["enrich_fallback"]
    assert len(records) == 1
    assert records[0].text == "Alice moved to Oslo."
    assert records[0].embedding is not None


def test_run_normalize_rewrite_falls_back_on_fault_and_garbage():
    gw = MockGateway(dim=64, failing={"triplets"})
    records, flags = run_normalize(
        turn("Alice likes tea."), 9, NormalizeConfig(strategy="rewrite"), gw)
    assert flags == ["rewrite_fallback"]
    assert records[0].text == "Alice likes tea."

    gw = ScriptedGateway(script={"triplets": ["alice | tea"]}, dim=64)
    records, flags = run_normalize(
        turn("Alice likes tea."), 9, NormalizeConfig(strategy="rewrite"), gw)
    assert flags == ["rewrite_fallback"]
    assert records[0].kind != KIND_TRIPLET


def test_run_normalize_keeps_turn_when_embedding_fails():
    gw = MockGateway(dim=64, failing={"embed"})
    records, flags = run_normalize(
        turn("Alice moved to Oslo."), 9, NormalizeConfig(strategy="none"), gw)
    assert flags == ["embed_failed"]
    assert len(records) == 1
    assert records[0].text == "Alice moved to Oslo."
    assert records[0].embedding is None


def test_run_normalize_stacks_fallback_flags():
    gw = MockGateway(dim=64, failing={"summarize", "embed"})
    records, flags = run_normalize(
        turn("Alice moved to Oslo."), 9, NormalizeConfig(strategy="enrich"), gw)
    assert flags == ["enrich_fallback", "embed_failed"]
    assert records[0].embedding is None


def test_normalize_gateway_calls_are_pre_insert_stage():
    gw = MockGateway(dim=32)
    pipeline = insert_pipeline({"normalize": {"strategy": "enrich"}}, gw)
    pipeline._process_insert(Request(seq=0, ts=5, kind=KIND_INSERT,
                                     payload=turn("Alice moved to Oslo. She likes it.")))
    (trace,) = pipeline.result.traces
    assert trace.gateway_calls
    assert {t.stage for t in trace.gateway_calls} == {STAGE_PRE_INSERT}


# ----------------------------------------------------------------------
# crud consolidation
# ----------------------------------------------------------------------

def test_crud_add_for_unrelated_unit():
    store = build_store("fifo_queue")
    gw = MockGateway(dim=64)
    put(store, "the cat sat on the mat", ts=0, ti=0)
    new_id = put(store, "quantum flux capacitor hums", ts=1, ti=1)
    actions, flags = consolidate_crud(store, [new_id], gw)
    assert actions == [f"ADD {new_id}"]
    assert flags == []


def test_crud_noop_for_exact_duplicate():
    store = build_store("fifo_queue")
    gw = MockGateway(dim=64)
    old_id = put(store, "alice | age | 30", ts=0, ti=0)
    new_id = put(store, "alice | age | 30", ts=1, ti=1)
    actions, _ = consolidate_crud(store, [new_id], gw)
    assert actions == [f"NOOP {new_id}"]
    # both records stay live
    assert store.get(old_id).record_id == old_id
    assert store.get(new_id).record_id == new_id


def test_crud_update_removes_superseded_record():
    store = build_store("fifo_queue")
    gw = MockGateway(dim=64)
    old_id = put(store, "alice | age | 30", ts=0, ti=0)
    new_id = put(store, "alice | age | 31", ts=1, ti=1)
    actions, _ = consolidate_crud(store, [new_id], gw)
    assert actions == [f"UPDATE {old_id}<-{new_id}"]
    with pytest.raises(UnknownRecord):
        store.get(old_id)
    assert store.get(new_id).text == "alice | age | 31"


def test_crud_delete_removes_target():
    store = build_store("fifo_queue")
    old_id = put(store, "bob lives in dallas", ts=0, ti=0)
    new_id = put(store, "forget where bob lives", ts=1, ti=1)
    gw = ScriptedGateway(script={"crud": [f"DELETE {old_id}"]}, dim=64)
    actions, _ = consolidate_crud(store, [new_id], gw)
    assert actions == [f"DELETE {old_id}"]
    with pytest.raises(UnknownRecord):
        store.get(old_id)


def test_crud_unknown_target_degrades_to_noop():
    store = build_store("fifo_queue")
    put(store, "bob lives in dallas", ts=0, ti=0)
    new_id = put(store, "bob lives in austin", ts=1, ti=1)
    for reply in ("UPDATE m999999", "DELETE m999999"):
        gw = ScriptedGateway(script={"crud": [reply]}, dim=64)
        actions, flags = consolidate_crud(store, [new_id], gw)
        assert actions == [f"NOOP {new_id}"]
        assert flags == ["crud_unknown_target"]
    assert len(store.all_records()) == 2


def test_crud_unparseable_reply_degrades_to_noop():
    store = build_store("fifo_queue")
    new_id = put(store, "bob lives in austin", ts=0, ti=0)
    gw = ScriptedGateway(script={"crud": ["REFORMAT please"]}, dim=64)
    actions, flags = consolidate_crud(store, [new_id], gw)
    assert actions == [f"NOOP {new_id}"]
    assert flags == ["crud_unparseable"]


def test_crud_gateway_fault_keeps_everything():
    store = build_store("fifo_queue")
    a = put(store, "alpha beta gamma", ts=0, ti=0)
    b = put(store, "delta epsilon zeta", ts=1, ti=1)
    gw = MockGateway(dim=64, failing={"crud"})
    actions, flags = consolidate_crud(store, [a, b], gw)
    assert actions == [f"NOOP {a}", f"NOOP {b}"]
    assert flags == ["crud_fallback", "crud_fallback"]
    assert len(store.all_records()) == 2


def test_crud_chat_is_post_insert_stage():
    gw = MockGateway(dim=64)
    pipeline = insert_pipeline({"consolidate": {"strategy": "crud"}}, gw)
    put(pipeline.store, "alice | age | 30", ts=0, ti=0)
    pipeline._process_insert(Request(seq=0, ts=1, kind=KIND_INSERT,
                                     payload=turn("alice | age | 31", ti=1)))
    (trace,) = pipeline.result.traces
    chat = [t for t in trace.gateway_calls if t.call_kind == "chat"]
    assert chat and all(t.stage == STAGE_POST_INSERT for t in chat)


# ----------------------------------------------------------------------
# retention and forgetting
# ----------------------------------------------------------------------

def test_retention_hand_values():
    rec = MemoryRecord(record_id="r", text="x", ts=0, session_id="s",
                       turn_index=0, strength=DAY_S)
    assert retention(rec, 0) == 1.0
    assert retention(rec, DAY_US) == math.exp(-1.0)
    # int() truncates fractional microseconds, so allow a hair of slack
    assert retention(rec, int(DAY_S * math.log(2) * US)) == pytest.approx(0.5, abs=1e-9)
    # clock skew: access recorded after "now" clamps to no decay
    rec.last_access = 10 * US
    assert retention(rec, 5 * US) == 1.0


def test_forgetting_curve_strict_inequality_keeps_boundary():
    store = build_store("fifo_queue")
    now = 100 * DAY_US
    rid = put(store, "boundary record", ts=0,
              strength=DAY_S, last_access=now - int(1.2 * DAY_S * US))
    threshold = retention(store.get(rid), now)
    assert forgetting_curve(store, now, threshold) == []
    assert store.get(rid).record_id == rid


def test_forgetting_curve_evicts_below_threshold():
    store = build_store("fifo_queue")
    now = 100 * DAY_US
    fresh = put(store, "fresh record", ts=0, ti=0,
                strength=DAY_S, last_access=now)
    edge = put(store, "edge record", ts=0, ti=1,
               strength=DAY_S, last_access=now - int(1.2 * DAY_S * US))
    stale = put(store, "stale record", ts=0, ti=2,
                strength=DAY_S, last_access=now - int(1.21 * DAY_S * US))
    # exp(-1.2) = 0.3012 stays above 0.3, exp(-1.21) = 0.2982 falls below
    evicted = forgetting_curve(store, now, 0.3)
    assert evicted == [stale]
    assert {r.record_id for r in store.all_records()} == {fresh, edge}
    assert store.evicted_total == 1
    with pytest.raises(UnknownRecord):
        store.get(stale)


def test_forgetting_curve_skips_a_summary_its_last_member_took_along():
    # both records fall below the threshold; removing the session's only raw
    # turn already removes its summary, which is also on the victim list
    store = build_store("summary_vector", embed_dim=8)
    turn = put(store, "the harbor is red.", embedding=mock_embed_text("the harbor is red.", 8),
               strength=1.0)
    (summary,) = [r.record_id for r in store.all_records() if r.kind == KIND_SUMMARY]
    assert forgetting_curve(store, 10**12, 0.5) == [turn]
    assert store.all_records() == []
    assert not store.is_live(summary)


def test_session_summaries_start_at_the_runs_initial_strength():
    manifest, _key = synth_workload(SyntheticSpec(seed=7, n_facts=40, rounds=2,
                                                  queries_per_round=3, n_sessions=2))
    cfg = config_from_dict({
        "store": {"backend": "summary_vector"},
        "operators": {"consolidate": {"strategy": "forgetting_curve",
                                      "retention_threshold": 0.5,
                                      "initial_strength_s": 20.0}},
        "checkpoint": {"fraction": 0.5},
        "gateway": {"kind": "mock", "embed_dim": 32},
    })
    pipeline = _Pipeline(cfg, manifest, MockGateway(dim=32))
    result = pipeline.run()
    assert result.status == "complete", result.error
    # each summary the store still holds started at 20 s and only doubled on hits
    summaries = [r for r in pipeline.store._records.values() if r.kind == KIND_SUMMARY]
    assert summaries
    for summary in summaries:
        assert math.log2(summary.strength / 20.0).is_integer(), summary.strength


def test_run_consolidate_forgetting_emits_evict_actions():
    store = build_store("fifo_queue")
    now = 100 * DAY_US
    stale = put(store, "stale record", ts=0,
                strength=DAY_S, last_access=now - 10 * DAY_US)
    cfg = ConsolidateConfig(strategy="forgetting_curve", retention_threshold=0.3)
    actions, _ = run_consolidate(store, [], now, cfg, MockGateway(dim=64), insert_index=1)
    assert actions == [f"EVICT {stale}"]


@settings(max_examples=40, deadline=None)
@given(
    ratios=st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=10),
    t_a=st.floats(0.0, 1.0),
    t_b=st.floats(0.0, 1.0),
)
def test_forgetting_threshold_is_monotone(ratios, t_a, t_b):
    lo, hi = sorted((t_a, t_b))
    now = 100 * DAY_US

    def evicted_at(threshold):
        store = build_store("fifo_queue")
        for i, ratio in enumerate(ratios):
            put(store, f"record {i}", ts=0, ti=i,
                strength=DAY_S, last_access=now - int(ratio * DAY_S * US))
        return set(forgetting_curve(store, now, threshold))

    assert evicted_at(lo) <= evicted_at(hi)


# ----------------------------------------------------------------------
# heat migration
# ----------------------------------------------------------------------

def test_heat_hand_values():
    rec = MemoryRecord(record_id="r", text="x", ts=0, session_id="s",
                       turn_index=0)
    rec.access_count = 3
    rec.last_access = 0
    assert heat(rec, 0, alpha=2.0, beta=0.5, tau_s=100.0) == 6.5
    assert heat(rec, 100 * US, alpha=2.0, beta=0.5, tau_s=100.0) == \
        pytest.approx(6.0 + 0.5 * math.exp(-1.0))
    # future last_access clamps to zero elapsed time
    rec.last_access = 50 * US
    assert heat(rec, 0, alpha=0.0, beta=1.0, tau_s=100.0) == 1.0


def test_heat_migration_promotes_and_demotes():
    store = build_store("queue_segment")
    now = 20 * DAY_US
    cfg = ConsolidateConfig(strategy="heat_migration")
    hot = put(store, "hot record", ts=0, ti=0, access_count=5, last_access=now)
    cold = put(store, "cold record", ts=0, ti=1, access_count=0,
               last_access=now - 10 * DAY_US)
    warm = put(store, "warm record", ts=0, ti=2, access_count=0, last_access=now)
    store.migrate(hot, TIER_MID)
    actions = heat_migration(store, now, cfg)
    assert actions == [
        f"MIGRATE {hot} {TIER_MID}->{TIER_SHORT}",
        f"MIGRATE {cold} {TIER_SHORT}->{TIER_MID}",
    ]
    assert store.get(hot).tier == TIER_SHORT
    assert store.get(cold).tier == TIER_MID
    assert store.get(warm).tier == TIER_SHORT


def test_heat_migration_respects_tier_bounds():
    store = build_store("queue_segment")
    now = 20 * DAY_US
    cfg = ConsolidateConfig(strategy="heat_migration")
    hottest = put(store, "already short", ts=0, ti=0, access_count=9, last_access=now)
    coldest = put(store, "already long", ts=0, ti=1, access_count=0,
                  last_access=now - 10 * DAY_US)
    store.migrate(coldest, TIER_LONG)
    assert heat_migration(store, now, cfg) == []
    assert store.get(hottest).tier == TIER_SHORT
    assert store.get(coldest).tier == TIER_LONG


def test_heat_migration_requires_tiered_backend():
    store = build_store("fifo_queue")
    cfg = ConsolidateConfig(strategy="heat_migration")
    with pytest.raises(UnsupportedBackend):
        heat_migration(store, 0, cfg)


def test_nearest_existing_falls_back_to_overlap_with_ties_by_id_as_a_string():
    # unembedded records across "m999999" / "m1000000": insertion order is
    # not string order, and equal overlaps go to the id
    store = build_store("fifo_queue")
    store._counter = 999_997
    ids = [put(store, text, ts=i, ti=i) for i, text in enumerate(
        ("red fox", "red fox", "red fox runs", "blue whale", "red fox"))]
    assert ids == ["m999998", "m999999", "m1000000", "m1000001", "m1000002"]
    new = store.get(ids[-1])
    got = _nearest_existing(store, new, {new.record_id}, limit=3)
    assert [r.record_id for r in got] == ["m1000000", "m999998", "m999999"]
    got = _nearest_existing(store, new, {new.record_id, "m999998"}, limit=5)
    assert [r.record_id for r in got] == ["m1000000", "m999999"]


# ----------------------------------------------------------------------
# link evolution
# ----------------------------------------------------------------------

def _embedded(store, text, ti, dim=64):
    return put(store, text, ts=ti, ti=ti, embedding=mock_embed_text(text, dim))


def test_link_evolution_links_nearest_neighbors():
    store = build_store("property_graph", embed_dim=64)
    fox_a = _embedded(store, "the red fox runs fast", 0)
    fox_b = _embedded(store, "a red fox sprints quickly", 1)
    other = _embedded(store, "database index tuning guide", 2)
    new_id = _embedded(store, "the red fox runs very fast", 3)
    actions = link_evolution(store, [new_id], link_top_m=2, link_threshold=0.1)
    assert len(actions) == 2
    linked = store.get(new_id).links
    assert linked == {fox_a, fox_b}
    assert other not in linked
    # links are bidirectional and actions name both endpoints
    assert new_id in store.get(fox_a).links
    assert new_id in store.get(fox_b).links
    assert set(actions) == {f"LINK {new_id}<->{fox_a}", f"LINK {new_id}<->{fox_b}"}


def test_link_evolution_threshold_and_top_m():
    store = build_store("property_graph", embed_dim=64)
    _embedded(store, "the red fox runs fast", 0)
    new_id = _embedded(store, "the red fox runs very fast", 1)
    assert link_evolution(store, [new_id], link_top_m=3, link_threshold=0.999) == []
    assert link_evolution(store, [new_id], link_top_m=0, link_threshold=0.1) == []
    assert store.get(new_id).links == set()


def test_link_evolution_skips_batch_siblings():
    store = build_store("property_graph", embed_dim=64)
    a = _embedded(store, "twin text here now", 0)
    b = _embedded(store, "twin text here now", 1)
    assert link_evolution(store, [a, b], link_top_m=3, link_threshold=0.5) == []


def test_link_evolution_requires_link_support():
    store = build_store("fifo_queue")
    with pytest.raises(UnsupportedBackend):
        link_evolution(store, [], link_top_m=3, link_threshold=0.5)


# ----------------------------------------------------------------------
# merging near-duplicates
# ----------------------------------------------------------------------

def test_merge_records_absorbs_newer():
    store = build_store("fifo_queue", embed_dim=64)
    old_id = _embedded(store, "alpha beta", 0)
    new_id = _embedded(store, "gamma delta", 1)
    older, newer = store.get(old_id), store.get(new_id)
    older.access_count, newer.access_count = 2, 3
    newer.strength = older.strength * 4
    expected = mock_embed_text("alpha beta", 64) + mock_embed_text("gamma delta", 64)
    expected = expected / np.linalg.norm(expected)
    merge_records(store, older, newer)
    assert older.access_count == 5
    assert older.strength == newer.strength
    assert older.last_access == max(older.last_access, newer.last_access)
    assert older.text == "alpha beta gamma delta"
    assert np.allclose(older.embedding, expected)
    with pytest.raises(UnknownRecord):
        store.get(new_id)
    # the survivor was reindexed under the absorbed tokens
    hits = store.retrieve(RetrievalSignal(raw_query="gamma delta"), 3, None)
    assert hits and hits[0].record_id == old_id


def test_merge_records_identical_text_not_duplicated():
    store = build_store("fifo_queue", embed_dim=64)
    old_id = _embedded(store, "same text", 0)
    new_id = _embedded(store, "same text", 1)
    merge_records(store, store.get(old_id), store.get(new_id))
    assert store.get(old_id).text == "same text"


def test_merge_records_adopts_embedding_when_missing():
    store = build_store("fifo_queue", embed_dim=64)
    old_id = put(store, "plain record", ts=0, ti=0)
    new_id = _embedded(store, "vector record", 1)
    vec = store.get(new_id).embedding
    merge_records(store, store.get(old_id), store.get(new_id))
    assert np.allclose(store.get(old_id).embedding, vec)


def test_semantic_consolidation_merges_duplicates():
    store = build_store("fifo_queue", embed_dim=64)
    old_id = _embedded(store, "the sky is blue today", 0)
    dup_id = _embedded(store, "the sky is blue today", 1)
    fresh_id = _embedded(store, "completely different topic altogether", 2)
    actions = semantic_consolidation(store, [dup_id, fresh_id], dedup_threshold=0.95)
    assert actions == [f"MERGE {dup_id}->{old_id}"]
    with pytest.raises(UnknownRecord):
        store.get(dup_id)
    assert store.get(fresh_id).record_id == fresh_id


def test_semantic_consolidation_ignores_unembedded():
    store = build_store("fifo_queue", embed_dim=64)
    _embedded(store, "the sky is blue today", 0)
    plain = put(store, "the sky is blue today", ts=1, ti=1)
    assert semantic_consolidation(store, [plain], dedup_threshold=0.5) == []


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------

def test_run_consolidate_strategy_none_is_inert():
    store = build_store("fifo_queue")
    put(store, "anything at all", ts=0)
    gw = MockGateway(dim=64)
    gw.drain_timings()
    actions, flags = run_consolidate(store, [], 10, ConsolidateConfig(strategy="none"),
                                     gw, insert_index=1)
    assert actions == [] and flags == []
    assert gw.drain_timings() == []


def test_run_consolidate_every_n_gate():
    now = 100 * DAY_US
    cfg = ConsolidateConfig(strategy="forgetting_curve",
                            retention_threshold=0.9, every_n=3)

    def stale_store():
        store = build_store("fifo_queue")
        put(store, "stale record", ts=0,
            strength=DAY_S, last_access=now - 10 * DAY_US)
        return store

    store = stale_store()
    skipped, _ = run_consolidate(store, [], now, cfg, MockGateway(dim=64), insert_index=1)
    assert skipped == []
    assert len(store.all_records()) == 1

    store = stale_store()
    fired, _ = run_consolidate(store, [], now, cfg, MockGateway(dim=64), insert_index=3)
    assert len(fired) == 1
    assert store.all_records() == []


def test_run_consolidate_filters_dead_new_ids():
    store = build_store("fifo_queue")
    gw = MockGateway(dim=64)
    put(store, "the cat sat on the mat", ts=0, ti=0)
    kept = put(store, "quantum flux capacitor hums", ts=1, ti=1)
    gone = put(store, "will be evicted first", ts=2, ti=2)
    store.remove(gone)
    cfg = ConsolidateConfig(strategy="crud")
    actions, _ = run_consolidate(store, [kept, gone], 3, cfg, gw, insert_index=1)
    assert actions == [f"ADD {kept}"]


def test_fuzz_removals_never_leak_into_retrieval():
    rng = random.Random(20260816)
    store = build_store("inverted_vector", embed_dim=32)
    words = ["ember", "quartz", "violet", "saddle", "python", "meadow", "cobalt"]
    live = []
    for i in range(120):
        roll = rng.random()
        if roll < 0.55 or len(live) < 2:
            text = f"{rng.choice(words)} {rng.choice(words)} {i}"
            live.append(_embedded(store, text, i, dim=32))
        elif roll < 0.8:
            victim = live.pop(rng.randrange(len(live)))
            store.remove(victim)
        else:
            newer = live.pop(rng.randrange(len(live)))
            older = rng.choice(live)
            merge_records(store, store.get(older), store.get(newer))
        query = RetrievalSignal(raw_query=f"{rng.choice(words)} {rng.choice(words)}",
                                embedding=mock_embed_text(rng.choice(words), 32))
        hits = store.retrieve(query, 5, None)
        assert {h.record_id for h in hits} <= set(live)
        assert all(store.is_live(h.record_id) for h in hits)
    assert {r.record_id for r in store.all_records()} == set(live)
