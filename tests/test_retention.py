"""The retention policies against their per-record references.

forgetting_curve and heat_migration walk every live record on every
insert, and summary_vector rebuilds a session's summary from all of its
members on every change. ``reference.py`` keeps each of those loops, reading
only record fields. Two stores fed the same operations, one consolidated by
the policy and one by its reference, must log the same actions in the same
order and hold the same records field for field. Every session summary
summary_vector holds must equal one rebuilt from its live raw turns: same
text, same ts and the same embedding bits.
"""

import dataclasses
import math

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstream import ingest
from memstream.config import ConsolidateConfig
from memstream.gateway import mock_embed_text
from memstream.records import DEFAULT_STRENGTH_S, KIND_RAW, KIND_SUMMARY, MemoryRecord
from memstream.stores import BACKENDS, build_store
from memstream.stores import summary_vector
from memstream.stream import TS_END, TS_MIN
from reference import (
    RefSummaryVectorStore,
    ref_forgetting_curve,
    ref_heat_migration,
    ref_session_summary,
)

DIM = 16
US = 1_000_000
MAX_SENTENCES = 2

TEXTS = (
    "the harbor is red. it was painted in may.",
    "the garden is large.",
    "alice lives in paris. she moved there last year.",
    "bob works at the mill",
    "the harbor is blue. it was repainted.",
)

# name -> build_store params; small bounds so capacity eviction and
# short-term overflow happen inside a short run
PARAMS = {
    "fifo_queue": {"capacity": 6},
    "queue_segment": {"short_capacity": 3},
    "lsh_hash": {"bits": 4, "tables": 2},
    "inverted_vector": {},
    "property_graph": {},
    "summary_vector": {"summary_max_sentences": MAX_SENTENCES},
}

# seconds: retention is exp(-dt / strength) and heat decays over a day, so
# these steps carry records across both thresholds within a few operations
ADVANCES_S = (0, 1, 60, 3600, 6 * 3600, 86400)
STRENGTHS_S = (60.0, 3600.0, 86400.0, 604800.0)

insert_op = st.tuples(
    st.just("insert"),
    st.integers(0, len(TEXTS) - 1),                    # text
    st.integers(0, 1),                                 # session
    st.sampled_from(ADVANCES_S),                       # clock advance
    st.sampled_from(STRENGTHS_S),                      # initial strength
    st.booleans(),                                     # embedded (lsh_hash always is)
)
touch_op = st.tuples(st.just("touch"), st.integers(0, 50), st.sampled_from(ADVANCES_S))
tick_op = st.tuples(st.just("tick"), st.sampled_from(ADVANCES_S))
OP = st.integers(0, 9).flatmap(
    lambda i: insert_op if i < 5 else touch_op if i < 8 else tick_op)
OPS = st.lists(OP, min_size=1, max_size=40)
# sessions past a few members, where a summary's sentence cap and mean bite
LONG_OPS = st.lists(OP, min_size=20, max_size=60)


def same_records(a, b):
    assert [r.record_id for r in a.all_records()] == [r.record_id for r in b.all_records()]
    for ra, rb in zip(a.all_records(), b.all_records()):
        assert (ra.text, ra.ts, ra.session_id, ra.kind, ra.tier, ra.access_count,
                ra.last_access, ra.strength, ra.links) == \
               (rb.text, rb.ts, rb.session_id, rb.kind, rb.tier, rb.access_count,
                rb.last_access, rb.strength, rb.links)
        assert (ra.embedding is None) == (rb.embedding is None)
        if ra.embedding is not None:
            assert ra.embedding.tobytes() == rb.embedding.tobytes()


def summaries_rebuild_from_scratch(store, every_session):
    """Each summary equals one rebuilt from its session's live raw turns;
    with ``every_session``, each session with a live raw turn has one."""
    if store.name != "summary_vector":
        return
    summaries = [r for r in store.all_records() if r.kind == KIND_SUMMARY]
    if every_session:
        sessions = {r.session_id for r in store.all_records() if r.kind == KIND_RAW}
        assert sorted(s.session_id for s in summaries) == sorted(sessions)
    for summary in summaries:
        want = ref_session_summary(store, summary.session_id, MAX_SENTENCES)
        assert want is not None, f"summary {summary.record_id} outlived its session"
        text, ts, embedding = want
        assert (summary.text, summary.ts) == (text, ts)
        assert (summary.embedding is None) == (embedding is None)
        if embedding is not None:
            assert summary.embedding.tobytes() == embedding.tobytes()


def live_policy(cfg):
    """``store -> (now -> action lines)``: the policy of ``cfg``, built once for the store."""
    def build(store):
        policy = ingest.build_policy(store, cfg)
        return lambda now: policy.consolidate([], now)[0]
    return build


def replay(name, ops, policy, reference, every_session=False):
    """Drive two stores through ``ops``; after each one, consolidate one with
    the pass ``policy(store)`` built for it and the other with ``reference``
    and compare."""
    stores = [build_store(name, embed_dim=DIM, params=PARAMS[name]) for _ in range(2)]
    real, ref = stores
    consolidate = policy(real)
    clock, turn = 10 * US, 0
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, text_i, session, advance, strength, embedded = op
            clock += advance * US
            turn += 1
            text = TEXTS[text_i]
            embedding = embedded or name == "lsh_hash"
            ids = [s.insert([MemoryRecord(
                record_id="", text=text, ts=clock, session_id=f"s{session}",
                turn_index=turn, strength=strength,
                embedding=mock_embed_text(text, DIM) if embedding else None)])
                for s in stores]
            assert ids[0] == ids[1]
        elif kind == "touch":
            _, index, advance = op
            clock += advance * US
            live = real.all_records()
            if live:
                target = live[index % len(live)].record_id
                for s in stores:
                    s._touch(s.get(target), clock)
        else:
            clock += op[1] * US
        assert consolidate(clock) == reference(ref, clock)
        same_records(real, ref)
        summaries_rebuild_from_scratch(real, every_session)


FORGET_CFG = ConsolidateConfig(strategy="forgetting_curve")
FORGET = FORGET_CFG.retention_threshold
HEAT = ConsolidateConfig(strategy="heat_migration")


@pytest.mark.parametrize("name", sorted(BACKENDS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_forgetting_curve_matches_per_record_loop(name, ops):
    replay(name, ops, live_policy(FORGET_CFG),
           lambda store, now: [f"EVICT {rid}" for rid in ref_forgetting_curve(store, now, FORGET)])


@pytest.mark.parametrize("name", sorted(n for n, cls in BACKENDS.items() if cls.supports_tiers))
@pytest.mark.parametrize("cold_heat", [HEAT.cold_heat, 1.2])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_heat_migration_matches_per_record_loop(name, cold_heat, ops):
    # a cold bar above the fresh-record heat of 1.0 demotes records that
    # have never been hit, so both tier moves happen often
    cfg = dataclasses.replace(HEAT, cold_heat=cold_heat)
    replay(name, ops, live_policy(cfg), lambda store, now: ref_heat_migration(store, now, cfg))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=LONG_OPS)
def test_session_summaries_match_a_rebuild_without_consolidation(ops):
    # nothing is removed, so every session with a raw turn keeps a summary
    replay("summary_vector", ops, lambda store: lambda now: [], lambda store, now: [],
           every_session=True)


# low enough that repeated and overlapping texts merge, across sessions too
MERGE_CFG = ConsolidateConfig(strategy="semantic_consolidation", dedup_threshold=0.5)


@pytest.mark.parametrize("dim", [DIM, 1])
@pytest.mark.parametrize("strategy", ["semantic_consolidation", "forgetting_curve"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=LONG_OPS)
def test_running_summaries_equal_full_rebuilds_through_merges_and_evictions(dim, strategy, ops):
    # a merge rewrites the older member in place, in its own session, and
    # a removal takes a member out; a 1-dim store always rebuilds
    real = build_store("summary_vector", embed_dim=dim, params=PARAMS["summary_vector"])
    ref = RefSummaryVectorStore(embed_dim=dim, summary_max_sentences=MAX_SENTENCES)
    forgetting = [live_policy(FORGET_CFG)(s) for s in (real, ref)]
    merging = [ingest.build_policy(s, MERGE_CFG) for s in (real, ref)]
    clock, turn = 10 * US, 0
    for op in ops:
        new_ids = []
        if op[0] == "insert":
            _, text_i, session, advance, strength, embedded = op
            clock += advance * US
            turn += 1
            text = TEXTS[text_i]
            ids = [s.insert([MemoryRecord(
                record_id="", text=text, ts=clock, session_id=f"s{session}", turn_index=turn,
                strength=strength, embedding=mock_embed_text(text, dim) if embedded else None)])
                for s in (real, ref)]
            assert ids[0] == ids[1]
            new_ids = ids[0]
        elif op[0] == "touch":
            _, index, advance = op
            clock += advance * US
            live = real.all_records()
            if live:
                target = live[index % len(live)].record_id
                for s in (real, ref):
                    s._touch(s.get(target), clock)
        else:
            clock += op[1] * US
        if strategy == "semantic_consolidation":
            actions = [policy.consolidate(new_ids, clock) for policy in merging]
        else:
            actions = [evict(clock) for evict in forgetting]
        assert actions[0] == actions[1]
        same_records(real, ref)


class CountingRecords(dict):
    """A store's record map that counts the records read by key."""

    reads = 0

    def __getitem__(self, record_id):
        CountingRecords.reads += 1
        return super().__getitem__(record_id)


def test_a_refresh_after_an_insert_reads_no_other_member(monkeypatch):
    split_calls, split = [], summary_vector.split_sentences

    def counting_split(text):
        split_calls.append(text)
        return split(text)

    monkeypatch.setattr(summary_vector, "split_sentences", counting_split)
    store = build_store("summary_vector", embed_dim=DIM, params=PARAMS["summary_vector"])
    store._records = CountingRecords()
    for turn in range(200):
        text = TEXTS[turn % len(TEXTS)]
        CountingRecords.reads, split_calls[:] = 0, []
        store.insert([MemoryRecord(record_id="", text=text, ts=turn + 1, session_id="s0",
                                   turn_index=turn, embedding=mock_embed_text(text, DIM))])
        # the summary itself, and the new member's lead while the cap is open
        assert CountingRecords.reads <= 1
        assert split_calls == ([text] if turn < MAX_SENTENCES else [])
    summaries_rebuild_from_scratch(store, every_session=True)
    # a removal rebuilds from the live members, once
    members = [r.record_id for r in store.all_records() if r.kind == KIND_RAW]
    CountingRecords.reads = 0
    store.remove(members[0])
    assert CountingRecords.reads == len(members)  # the other members and the summary
    summaries_rebuild_from_scratch(store, every_session=True)


def test_a_merge_across_sessions_reaches_the_older_members_summary():
    # merge_records rewrites the older member (session s0) and removes the
    # newer one (s1); s0's summary is rewritten at its next insert, from
    # the older member's new text, ts and embedding
    store = build_store("summary_vector", embed_dim=DIM, params=PARAMS["summary_vector"])
    texts = ("bob works at the mill", "the garden is large.", "alice lives in paris.")
    older, newer = (store.get(store.insert([MemoryRecord(
        record_id="", text=text, ts=ts, session_id=session, turn_index=ts,
        embedding=mock_embed_text(text, DIM))])[0])
        for text, ts, session in zip(texts, (1, 2), ("s0", "s1")))
    ingest.merge_records(store, older, newer)
    store.insert([MemoryRecord(record_id="", text=texts[2], ts=3, session_id="s0",
                               turn_index=3, embedding=mock_embed_text(texts[2], DIM))])
    summaries_rebuild_from_scratch(store, every_session=True)
    (summary,) = [r for r in store.all_records() if r.kind == KIND_SUMMARY]
    assert summary.text == "bob works at the mill the garden is large. alice lives in paris."


def test_a_one_dim_summary_sums_its_members_like_np_mean():
    # numpy sums a lone column pairwise: this one to 4, in insert order to 0
    values = (2.0, -1.0, 1e16, 2.0, -1.0, -1.0, -1e16, -1e16, 1e16)
    store = build_store("summary_vector", embed_dim=1)
    for turn, value in enumerate(values):
        store.insert([MemoryRecord(record_id="", text=f"turn {turn}.", ts=turn + 1,
                                   session_id="s0", turn_index=turn,
                                   embedding=np.array([value]))])
    (summary,) = [r for r in store.all_records() if r.kind == KIND_SUMMARY]
    assert summary.embedding.tolist() == [1.0]
    _, _, want = ref_session_summary(store, "s0", store.summary_max_sentences)
    assert want.tolist() == [1.0]


# ----------------------------------------------------------------------
# deadlines and the work a pass does
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(last_access=st.integers(-10**15, 10**15),
       scale_s=st.one_of(st.sampled_from(STRENGTHS_S + (2.0 ** 33, 3 * 2.0 ** 33)),
                         st.floats(1e-3, 1e10)),
       level=st.floats(1e-300, 1.0, exclude_max=True))
def test_a_deadline_is_never_late_and_barely_early(last_access, scale_s, level):
    # the exact test cannot pass before the deadline; it passes within a
    # few parts per billion of it, or at the first microsecond after
    record = MemoryRecord(record_id="r", text="", ts=last_access, session_id="s",
                          last_access=last_access, strength=scale_s)
    deadline = ingest.decay_deadline(last_access, scale_s, level)
    exponent = -math.log(level)
    if deadline is None:  # past every valid timestamp
        assert scale_s * exponent * US >= (TS_END - TS_MIN) * (1 - 1e-9)
        return
    assert deadline >= last_access
    if deadline > last_access:
        assert ingest.retention(record, deadline - 1) >= level
    # early by 2**-30 of the exponent and 2**-30 more, in units of scale_s
    crossing = last_access + scale_s * exponent * US
    slack = 1e-9 * (exponent + 1) * scale_s * US + 2
    assert deadline >= crossing - slack
    assert ingest.retention(record, int(crossing + slack)) < level


class Counting:
    """Counts the calls of the module functions it wraps, by name."""

    def __init__(self, monkeypatch, module, *names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(module, name, self._counted(name, getattr(module, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def take(self) -> dict:
        calls, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return calls


def filled_store(name, n_facts, strength_s, params=None):
    """``n_facts`` records, inserted 1 us apart from ``US``, all at ``strength_s``."""
    store = build_store(name, embed_dim=DIM, params=params)
    for i in range(n_facts):
        store.insert([MemoryRecord(record_id="", text=TEXTS[i % len(TEXTS)], ts=US + i,
                                   session_id="s0", turn_index=i, strength=strength_s)])
    return store


def forgetting_work(monkeypatch, n_facts):
    """Per pass: heap pops, evictions, re-pushes and ``retention`` calls."""
    store = filled_store("inverted_vector", n_facts, strength_s=10.0 ** 9)
    short_lived = [r.record_id for r in store.all_records()[:5]]
    for record_id in short_lived:
        store.get(record_id).strength = 60.0
    policy = ingest.build_policy(store, FORGET_CFG)
    policy.consolidate([], 2 * US)  # queues every record
    spy = Counting(monkeypatch, ingest, "heappop", "heappush", "retention")
    work = []
    for step in range(1, 8):
        now = US + step * 30 * US
        # the same touches at every size: one short-lived record stays read
        store._touch(store.get(short_lived[1]), now)
        actions, _ = policy.consolidate([], now)
        calls = spy.take()
        work.append((calls["heappop"], len(actions), calls["heappush"], calls["retention"]))
    return work


def test_a_forgetting_pass_pops_only_its_evictions_and_re_pushes(monkeypatch):
    work = forgetting_work(monkeypatch, 200)
    assert work == forgetting_work(monkeypatch, 800)
    for pops, evicted, re_pushed, decided in work:
        assert pops <= evicted + re_pushed
        assert decided == pops
    assert sum(evicted for _, evicted, _, _ in work) == 4  # all but the one kept read
    assert sum(re_pushed for _, _, re_pushed, _ in work) > 0


def heat_work(monkeypatch, n_facts):
    """Per pass: ``heat`` calls and the migrations, with three records read before each."""
    store = filled_store("queue_segment", n_facts, strength_s=DEFAULT_STRENGTH_S,
                         params={"short_capacity": 4})
    policy = ingest.build_policy(store, HEAT)
    policy.consolidate([], 2 * US)  # decides every record once
    read = [r.record_id for r in store.all_records()[:3]]
    spy = Counting(monkeypatch, ingest, "heat")
    work = []
    for step in range(1, 8):
        now = US + step * 600 * US
        if step % 3 == 1:
            for record_id in read:
                store._touch(store.get(record_id), now)
        actions, _ = policy.consolidate([], now)
        work.append((spy.take()["heat"], len(actions)))
    return work


def test_a_heat_pass_decides_only_touched_moved_and_due_records(monkeypatch):
    # none of the idle records turns cold within the hour the passes span;
    # each touched record climbs a tier a pass while it stays hot, and each
    # climb into short_term pushes out a record later in store order, which
    # the same pass decides in its new tier
    work = heat_work(monkeypatch, 200)
    assert work == heat_work(monkeypatch, 800)
    assert work == [(6, 3), (3, 0), (0, 0), (3, 0), (0, 0), (0, 0), (3, 0)]
