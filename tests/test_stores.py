"""Backend contracts: visibility, eviction, tiers, indexes, rank fusion."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memstream.config import ConsolidateConfig
from memstream.errors import (
    CapacityExceeded,
    DimensionMismatch,
    EmptySignal,
    StoreError,
    UnknownRecord,
    UnsupportedBackend,
)
from memstream.gateway import mock_embed_text
from memstream.records import (
    DEFAULT_STRENGTH_S,
    KIND_SUMMARY,
    MemoryRecord,
    RetrievalSignal,
    TIER_LONG,
    TIER_MID,
    TIER_SHORT,
    Triplet,
)
from memstream.stores import BACKENDS, build_store
from memstream.stores.base import (
    Postings,
    fold_cosine,
    fused_candidates,
    rank_ids,
)
from memstream.stores.inverted_vector import InvertedVectorStore
from memstream.stores.lsh import LshStore, lsh_signature
from memstream.stores.queue_segment import QueueSegmentStore
from memstream.stores.summary_vector import SummaryVectorStore
from reference import as_bits, mean_embedding, ref_cosine, ref_fused

DIM = 64


def record(text, ts=0, session="s0", turn=0, embed=True, triplet=None):
    return MemoryRecord(
        record_id="", text=text, ts=ts, session_id=session, turn_index=turn,
        embedding=mock_embed_text(text, DIM) if embed else None,
        triplet=triplet,
    )


def signal(text):
    return RetrievalSignal(raw_query=text, embedding=mock_embed_text(text, DIM))


def all_backends():
    return [build_store(name, embed_dim=DIM, seed=0) for name in sorted(BACKENDS)]


# -- shared contract ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_read_your_writes(name):
    store = build_store(name, embed_dim=DIM, seed=0)
    text = "the red ball is in the garden."
    ids = store.insert([record(text, ts=0)])
    assert ids == ["m000001"]
    # same text -> identical embedding, so even signature-bucketed backends
    # must land the hit; summary backends may rank extra derived records
    hits = store.retrieve(signal(text), k=3, now=10)
    assert hits and hits[0].record_id == "m000001"
    assert 0.0 <= hits[0].score <= 1.0


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_strictly_earlier_visibility(name):
    store = build_store(name, embed_dim=DIM, seed=0)
    text = "needle fact alpha."
    store.insert([record(text, ts=100)])
    hits = store.retrieve(signal(text), k=3, now=100)
    assert hits == []          # ts == now is NOT visible
    hits = store.retrieve(signal(text), k=3, now=101)
    assert "m000001" in [h.record_id for h in hits]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_ids_are_sequential_and_preassigned_ids_rejected(name):
    store = build_store(name, embed_dim=DIM, seed=0)
    ids1 = store.insert([record("first fact here.")])
    ids2 = store.insert([record("second fact here.", turn=1)])
    # ids grow monotonically; derived records (summaries) may claim ids in
    # between, so equality with m000002 is not part of the contract
    assert ids1 == ["m000001"]
    assert len(ids2) == 1 and ids2[0] > ids1[0]
    assert store.get(ids2[0]).text == "second fact here."
    stray = record("smuggled.")
    stray.record_id = "m999999"
    with pytest.raises(StoreError):
        store.insert([stray])


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_remove_tombstones_everywhere(name):
    store = build_store(name, embed_dim=DIM, seed=0)
    (rid,) = store.insert([record("the doomed record.", ts=0)])
    store.remove(rid)
    with pytest.raises(UnknownRecord):
        store.get(rid)
    hits = store.retrieve(signal("doomed record"), k=5, now=10)
    assert rid not in [h.record_id for h in hits]
    assert store.stats().record_count == 0
    assert store.evicted_total >= 1
    with pytest.raises(UnknownRecord):
        store.remove(rid)  # double remove


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_empty_and_skip_signals(name):
    store = build_store(name, embed_dim=DIM, seed=0)
    store.insert([record("something.")])
    hits = store.retrieve(RetrievalSignal(skip=True), k=3, now=5)
    assert hits == []
    with pytest.raises(EmptySignal):
        store.retrieve(RetrievalSignal(), k=3, now=5)
    with pytest.raises(StoreError):
        store.retrieve(signal("x"), k=0, now=5)


def test_touch_bookkeeping():
    store = build_store("inverted_vector", embed_dim=DIM)
    store.strength_gain = 2.0
    (rid,) = store.insert([record("tracked fact.", ts=0)])
    rec = store.get(rid)
    base_strength = rec.strength
    store.retrieve(signal("tracked fact"), k=1, now=50)
    assert rec.access_count == 1
    assert rec.last_access == 50
    assert rec.strength == base_strength * 2.0
    # an older retrieval never rolls last_access back
    store.retrieve(signal("tracked fact"), k=1, now=20)
    assert rec.last_access == 50


def test_dimension_mismatch():
    store = build_store("inverted_vector", embed_dim=16)
    bad = MemoryRecord(record_id="", text="x.", ts=0, session_id="s",
                       embedding=np.ones(32))
    with pytest.raises(DimensionMismatch):
        store.insert([bad])


def test_turn_neighbors_window():
    store = build_store("inverted_vector", embed_dim=DIM)
    for i in range(5):
        store.insert([record(f"turn number {i}.", ts=i, turn=i)])
    mids = store.turn_neighbors("s0", 2, window=1)
    assert [r.turn_index for r in mids] == [1, 3]
    wide = store.turn_neighbors("s0", 2, window=2, now=4)
    # now=4 hides turns with ts >= 4
    assert [r.turn_index for r in wide] == [0, 1, 3]


def test_candidate_tie_break_is_record_id():
    store = build_store("fifo_queue", embed_dim=DIM)
    store.insert([record("twin fact."), record("twin fact.")])
    hits = store.retrieve(signal("twin fact"), k=2, now=5)
    assert [h.record_id for h in hits] == ["m000001", "m000002"]
    assert hits[0].score == hits[1].score == 1.0


def test_build_store_errors():
    with pytest.raises(StoreError) as err:
        build_store("no_such_backend")
    for name in BACKENDS:
        assert name in str(err.value)
    with pytest.raises(StoreError):
        build_store("fifo_queue", params={"capacity": "many"})
    with pytest.raises(StoreError):
        build_store("fifo_queue", params={"nonsense_knob": 3})


@pytest.mark.parametrize("params", [{"embed_dim": 8}, {"dim": 8}, {"seed": 1}],
                         ids=["embed_dim", "dim", "seed"])
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_build_store_takes_embed_dim_and_seed_from_the_run_only(name, params):
    (key,) = params
    with pytest.raises(StoreError, match=key):
        build_store(name, embed_dim=DIM, seed=0, params=params)


# each backend's integer knobs, with the least value each takes
COUNTS = [("fifo_queue", "capacity", 1), ("queue_segment", "short_capacity", 1),
          ("summary_vector", "summary_max_sentences", 1), ("lsh_hash", "bits", 1),
          ("lsh_hash", "tables", 1), ("inverted_vector", "rrf_k", 0)]


@pytest.mark.parametrize("name, key, least", COUNTS, ids=[key for _, key, _ in COUNTS])
def test_build_store_checks_integer_params(name, key, least):
    assert getattr(build_store(name, embed_dim=DIM, params={key: least}), key) == least
    for bad in (least - 1, 2.5, float(least), True, "3", None):
        with pytest.raises(StoreError, match=key):
            build_store(name, embed_dim=DIM, params={key: bad})


def test_lsh_needs_an_embed_dim_for_its_planes():
    with pytest.raises(StoreError, match="embed_dim"):
        build_store("lsh_hash")
    assert [planes.shape for planes in build_store("lsh_hash", embed_dim=3, params={
        "bits": 2, "tables": 2})._planes] == [(2, 3), (2, 3)]


# -- scoring helpers ----------------------------------------------------------

def test_cosine_and_fold():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert ref_cosine(a, a) == pytest.approx(1.0)
    assert ref_cosine(a, b) == pytest.approx(0.0)
    assert ref_cosine(a, -a) == pytest.approx(-1.0)
    assert ref_cosine(a, np.zeros(2)) == 0.0
    assert fold_cosine(1.0) == 1.0
    assert fold_cosine(-1.0) == 0.0
    assert fold_cosine(0.0) == 0.5


def test_fuse_scores_rrf():
    records = {rid: record(f"{rid}.") for rid in "abc"}
    for rid, rec in records.items():
        rec.record_id = rid
    fused = fused_candidates([["a", "b"], ["a", "c"]], records.__getitem__, 3, k_rrf=60)
    # a at rank 1 twice, b and c at rank 2 once: tie broken by id
    assert [c.record_id for c in fused] == ["a", "b", "c"]
    tail = (1.0 / 62.0) / (2.0 / 61.0)
    assert [c.score for c in fused] == [1.0, tail, tail]
    assert [c.record_id for c in fused_candidates([["a", "b"], ["a", "c"]],
                                                  records.__getitem__, 2)] == ["a", "b"]
    assert fused_candidates([[], []], records.__getitem__, 3) == []
    with pytest.raises(ValueError):
        fused_candidates([["a"]], records.__getitem__, 1, k_rrf=-1)


# past m999999 the ids gain a digit, and "m1000000" < "m999999" as strings
FUSION_IDS = ["m000001", "m000002", "m000010", "m999998", "m999999", "m1000000",
              "m1000001", "m1000010"]


# 150 ids across the same boundary, "m999925" to "m1000074", for pool-sized
# rankings: a small limit then cuts through runs of equal fused scores
POOL_IDS = [f"m{n:06d}" for n in range(999925, 1000075)]
POOL_RANKINGS = st.lists(st.lists(st.sampled_from(POOL_IDS), unique=True, max_size=60),
                         min_size=2, max_size=4)


@settings(max_examples=300, deadline=None)
@given(rankings=st.one_of(
           st.lists(st.lists(st.sampled_from(FUSION_IDS), unique=True), max_size=4),
           POOL_RANKINGS),
       limit=st.integers(1, len(POOL_IDS) + 5), k_rrf=st.sampled_from([0, 1, 2, 60]))
# the same ranks in swapped lists: equal sums, broken by id
@example(rankings=[["m999999", "m1000000"], ["m1000000", "m999999"]], limit=2, k_rrf=60)
# one list in reverse id order
@example(rankings=[sorted(FUSION_IDS, reverse=True)], limit=8, k_rrf=0)
# rank r in one list ties rank r in the other
@example(rankings=[["m1000001", "m000002", "m999998"], ["m000001", "m1000000", "m999999"]],
         limit=6, k_rrf=1)
# ties across three lists, and an empty list
@example(rankings=[["m000010", "m1000010"], [], ["m1000010", "m000010"], ["m999999"]],
         limit=3, k_rrf=60)
# pool-sized disjoint lists tie rank for rank, so limit 5 cuts through a tie
@example(rankings=[POOL_IDS[:60], POOL_IDS[60:120][::-1]], limit=5, k_rrf=60)
def test_fused_order_and_bits_equal_the_reference_sort(rankings, limit, k_rrf):
    records = {}
    for doc_id in FUSION_IDS + POOL_IDS:
        records[doc_id] = record(f"{doc_id}.")
        records[doc_id].record_id = doc_id
    got = fused_candidates(rankings, records.__getitem__, limit, k_rrf=k_rrf)
    assert as_bits(got) == as_bits(ref_fused(rankings, records.__getitem__, limit, k_rrf))


# scores with exact ties, and ids on both sides of "m999999" / "m1000000"
RANK_SCORES = st.dictionaries(
    st.sampled_from(FUSION_IDS + ["m999997", "m1000002", "a", "m"]),
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]),
              st.floats(-1e6, 1e6, allow_nan=False)))


@settings(max_examples=300, deadline=None)
@given(scores=RANK_SCORES,
       subset=st.one_of(st.none(), st.lists(st.sampled_from(FUSION_IDS), unique=True)))
@example(scores={"m999999": 1.0, "m1000000": 1.0, "m000001": 1.0, "m1000001": 0.5},
         subset=["m999999", "m000001", "m1000000"])
def test_rank_ids_equals_the_decorated_sort(scores, subset):
    want = [i for _, i in sorted((-s, i) for i, s in scores.items())]
    assert rank_ids(scores) == want
    if subset is not None:
        ids = [i for i in subset if i in scores]  # in any order
        assert rank_ids(scores, ids) == [i for i in want if i in ids]


POSTINGS_KEYS = ["b", "a", "b", (0, 5), "c", "b", (0, 5)]


@pytest.mark.parametrize("shape", [list, set, lambda keys: (key for key in keys)],
                         ids=["list", "set", "generator"])
def test_postings_count_keys_like_a_counter(shape):
    index = Postings()
    index.add("m1", shape(POSTINGS_KEYS))
    index.add("m2", shape(["b", "d", "d"]))
    want = Counter(shape(POSTINGS_KEYS))
    assert index.counts["m1"] == dict(want)
    assert index.counts["m2"] == dict(Counter(shape(["b", "d", "d"])))
    for key, count in want.items():
        assert index.postings[key]["m1"] == count
    # re-adding replaces the entry: old keys are dropped, other records kept
    index.add("m1", shape(["d", "e", "e"]))
    assert index.counts["m1"] == dict(Counter(shape(["d", "e", "e"])))
    assert set(index.postings) == {"b", "d", "e"}
    assert index.postings["b"] == {"m2": index.counts["m2"]["b"]}
    assert index.postings["d"] == {"m1": 1, "m2": index.counts["m2"]["d"]}
    # no keys, no entry
    index.add("m1", shape([]))
    assert "m1" not in index.counts
    assert set(index.postings) == {"b", "d"}


# -- fifo_queue ---------------------------------------------------------------

def test_fifo_evicts_oldest():
    store = build_store("fifo_queue", embed_dim=DIM,
                        params={"capacity": 3})
    for i in range(4):
        store.insert([record(f"unique{i} marker.", ts=i)])
    hits = store.retrieve(signal("unique0 marker"), k=4, now=10)
    assert all("unique0" not in h.record.text for h in hits)
    assert store.stats().record_count == 3
    assert store.evicted_total == 1
    with pytest.raises(UnknownRecord):
        store.get("m000001")


def test_fifo_eviction_releases_the_record():
    store = build_store("fifo_queue", embed_dim=DIM, params={"capacity": 2})
    first = record("the first record.", ts=0)
    store.insert([first])
    evicted = weakref.ref(first)
    del first
    for i in (1, 2):
        store.insert([record(f"record {i}.", ts=i, turn=i)])
    assert store.evicted_total == 1
    gc.collect()
    assert evicted() is None


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_default_strength_is_the_configs_default(backend):
    # one constant: a record, a store and the config start at one week
    store = build_store(backend, embed_dim=DIM)
    assert DEFAULT_STRENGTH_S == 604_800.0
    assert store.initial_strength_s == DEFAULT_STRENGTH_S
    assert record("a.").strength == DEFAULT_STRENGTH_S
    assert ConsolidateConfig().initial_strength_s == DEFAULT_STRENGTH_S


def test_fifo_overflow_error_mode():
    store = build_store("fifo_queue", embed_dim=DIM,
                        params={"capacity": 2, "overflow": "error"})
    store.insert([record("a."), record("b.")])
    with pytest.raises(CapacityExceeded):
        store.insert([record("c.")])
    assert store.stats().record_count == 2  # tentative insert rolled back


# -- queue_segment --------------------------------------------------------------

def test_queue_segment_overflow_moves_to_mid_tier():
    store = build_store("queue_segment", embed_dim=DIM,
                        params={"short_capacity": 2})
    for i in range(4):
        store.insert([record(f"fact number {i}.", ts=i, turn=i)])
    stats = store.stats()
    assert stats.record_count == 4          # nothing evicted, only demoted
    assert stats.tier_counts == {TIER_SHORT: 2, TIER_MID: 2}
    assert store.get("m000001").tier == TIER_MID
    assert store.get("m000004").tier == TIER_SHORT


def test_queue_segment_migrate():
    store = build_store("queue_segment", embed_dim=DIM,
                        params={"short_capacity": 2})
    ids = []
    for i in range(3):
        (rid,) = store.insert([record(f"fact {i}.", ts=i)])
        ids.append(rid)
    # ids[0] overflowed to mid; promote it back and watch the bound hold
    store.migrate(ids[0], TIER_SHORT)
    counts = store.stats().tier_counts
    assert counts[TIER_SHORT] == 2 and counts[TIER_MID] == 1
    store.migrate(ids[0], TIER_LONG)
    assert store.get(ids[0]).tier == TIER_LONG
    store.migrate(ids[0], TIER_LONG)  # no-op
    with pytest.raises(UnsupportedBackend):
        store.migrate(ids[0], "imaginary_tier")
    assert store.stats().record_count == 3


def test_migrate_unsupported_on_flat_backends():
    store = build_store("fifo_queue", embed_dim=DIM)
    (rid,) = store.insert([record("x.")])
    with pytest.raises(UnsupportedBackend):
        store.migrate(rid, TIER_SHORT)


# -- lsh_hash -------------------------------------------------------------------

def test_lsh_keeps_an_unembedded_record_under_no_bucket():
    # a turn whose embed call failed open is stored, but no probe reaches it
    store = build_store("lsh_hash", embed_dim=DIM, seed=3)
    (bare,) = store.insert([record("no vector.", embed=False)])
    (embedded,) = store.insert([record("no vector.")])
    assert store.is_live(bare) and store.stats().record_count == 2
    assert bare not in store._postings.counts and bare not in store._index.row_of
    got = store.retrieve(signal("no vector."), k=5)
    assert [c.record_id for c in got] == [embedded]
    assert [r.record_id for r, _ in store.nearest(signal("no vector.").embedding)] == [embedded]


def test_lsh_signature_packs_sign_bits():
    planes = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    vec = np.array([1.0, 1.0])
    # projections: 1, -1, 2 -> bits 1,0,1 -> 0b101
    assert lsh_signature(vec, planes) == 0b101


def test_lsh_deterministic_per_seed():
    def run():
        store = build_store("lsh_hash", embed_dim=DIM, seed=11)
        for i in range(20):
            store.insert([record(f"document number {i} about topic.", ts=i)])
        hits = store.retrieve(signal("document about topic"), k=5, now=100)
        return [(h.record_id, h.score) for h in hits]

    assert run() == run()


def test_lsh_without_query_embedding_returns_empty():
    store = build_store("lsh_hash", embed_dim=DIM)
    store.insert([record("anything at all.")])
    hits = store.retrieve(RetrievalSignal(raw_query="anything"), k=3, now=5)
    assert hits == []


# -- inverted_vector --------------------------------------------------------------

def corpus(store):
    store.insert([record("the colour of the sky is azure.", ts=0, turn=0)])
    store.insert([record("bicycles belong in the shed.", ts=1, turn=1)])
    store.insert([record("the parrot speaks loudly.", ts=2, turn=2)])


def test_inverted_lexical_mode_misses_paraphrase():
    store = build_store("inverted_vector", embed_dim=DIM,
                        params={"mode": "lexical"})
    corpus(store)
    hits = store.retrieve(signal("what is the colour of the sky"), k=1,
                          now=10)
    assert hits[0].record.turn_index == 0
    # "color" stems differently from "colour" and no other content word
    # overlaps: the lexical route comes back empty
    hits = store.retrieve(
        RetrievalSignal(raw_query="what color please"), k=3, now=10)
    assert hits == []


def test_inverted_vector_mode_catches_paraphrase():
    store = build_store("inverted_vector", embed_dim=DIM,
                        params={"mode": "vector"})
    corpus(store)
    hits = store.retrieve(signal("what is the color of the sky"), k=1,
                          now=10)
    assert hits[0].record.turn_index == 0


def test_inverted_fused_mode_handles_both():
    store = build_store("inverted_vector", embed_dim=DIM)
    corpus(store)
    for query in ("what is the colour of the sky",
                  "what is the color of the sky"):
        hits = store.retrieve(signal(query), k=1, now=10)
        assert hits[0].record.turn_index == 0, query
    assert store.stats().index_sizes["vectors"] == 3


def test_inverted_rejects_bad_mode():
    with pytest.raises(StoreError):
        build_store("inverted_vector", params={"mode": "psychic"})


# -- property_graph ---------------------------------------------------------------

def test_property_graph_entity_bonus():
    store = build_store("property_graph", embed_dim=DIM)
    t = Triplet("alice", "likes", "tea")
    rec = record("alice likes tea", ts=0, triplet=t)
    store.insert([rec])
    store.insert([record("the weather is mild today.", ts=1, turn=1)])
    hits = store.retrieve(signal("what does alice like"), k=2, now=10)
    assert hits[0].record.triplet is not None
    assert hits[0].score == 1.0
    assert store.stats().index_sizes["entities"] == 2  # alice, tea
    assert store.supports_links is True


def test_property_graph_lexical_only_signal():
    store = build_store("property_graph", embed_dim=DIM)
    store.insert([record("alice likes tea", triplet=Triplet("alice", "likes", "tea"))])
    store.insert([record("plain sentence without entities.", turn=1)])
    hits = store.retrieve(RetrievalSignal(raw_query="alice"), k=5, now=10)
    # without an embedding only entity matches can score
    assert len(hits) == 1
    assert hits[0].record.triplet is not None


def test_property_graph_divides_by_the_best_score():
    store = build_store("property_graph", embed_dim=DIM)
    (both,) = store.insert([record("alice knows bob", triplet=Triplet("alice", "knows", "bob"))])
    (one,) = store.insert([record("alice likes tea", turn=1,
                                  triplet=Triplet("alice", "likes", "tea"))])
    hits = store.retrieve(RetrievalSignal(raw_query="alice bob"), k=5, now=10)
    assert [(h.record_id, h.score) for h in hits] == [(both, 1.0), (one, 0.5)]


def test_property_graph_without_a_positive_score_returns_nothing():
    # an unmatched record at cosine -1 folds to 0.0, which is no score
    store = build_store("property_graph", embed_dim=2)
    store.insert([MemoryRecord(record_id="", text="plain words.", ts=0, session_id="s0",
                               embedding=np.array([-1.0, 0.0]))])
    query = RetrievalSignal(raw_query="alice", embedding=np.array([1.0, 0.0]))
    assert store.retrieve(query, k=5, now=10) == []


def two_cosines(premise):
    """Embeddings ``low`` and ``high`` of 2 dims whose distinct cosines to
    ``[1, 0]``, ``low`` below ``high``, satisfy ``premise(low, high)``.

    ``[1, b]`` for ``b`` from 1 up, one double at a time: each step moves
    the cosine by about one unit in the last place, so neighbouring cosines
    come up in turn.
    """
    query = np.array([1.0, 0.0])
    b = 1.0
    for _ in range(10_000):
        step = np.nextafter(b, 2.0)
        high, low = np.array([1.0, b]), np.array([1.0, step])
        cos_high, cos_low = ref_cosine(query, high), ref_cosine(query, low)
        if cos_low < cos_high and premise(cos_low, cos_high):
            return low, high
        b = step
    raise AssertionError("no pair of cosines satisfies the premise")


def test_vector_search_ranks_the_folded_cosines():
    # two cosines that fold to one score tie to the id, whatever their order
    low, high = two_cosines(lambda lo, hi: fold_cosine(lo) == fold_cosine(hi))
    store = build_store("inverted_vector", embed_dim=2, params={"mode": "vector"})
    ids = store.insert([MemoryRecord(record_id="", text=f"vector {i}.", ts=0, session_id="s0",
                                     turn_index=i, embedding=e)
                        for i, e in enumerate((low, high))])
    query = RetrievalSignal(raw_query="q", embedding=np.array([1.0, 0.0]))
    assert [r.record_id for r, _ in store.nearest(query.embedding)] == ids[::-1]
    hits = store.retrieve(query, k=2, now=10)
    assert [h.record_id for h in hits] == ids
    assert hits[0].score == hits[1].score


def test_property_graph_ranks_after_it_divides():
    # the best record scores 2 entity points + 1.0; two folded cosines that
    # differ tie once divided by 3.0, and then go to the id
    low, high = two_cosines(lambda lo, hi: fold_cosine(lo) != fold_cosine(hi)
                            and fold_cosine(lo) / 3.0 == fold_cosine(hi) / 3.0)
    store = build_store("property_graph", embed_dim=2)
    (best,) = store.insert([MemoryRecord(
        record_id="", text="alice knows bob", ts=0, session_id="s0",
        triplet=Triplet("alice", "knows", "bob"), embedding=np.array([1.0, 0.0]))])
    ids = store.insert([MemoryRecord(record_id="", text=f"vector {i}.", ts=0, session_id="s0",
                                     turn_index=i + 1, embedding=e)
                        for i, e in enumerate((low, high))])
    query = RetrievalSignal(raw_query="alice bob", embedding=np.array([1.0, 0.0]))
    hits = store.retrieve(query, k=3, now=10)
    assert [h.record_id for h in hits] == [best] + ids
    assert hits[0].score == 1.0 and hits[1].score == hits[2].score


# -- summary_vector -----------------------------------------------------------------

def test_summary_vector_maintains_session_summaries():
    store = build_store("summary_vector", embed_dim=DIM)
    store.insert([record("alpha fact one. extra detail.", ts=0, session="sA")])
    store.insert([record("alpha fact two.", ts=1, session="sA", turn=1)])
    store.insert([record("beta fact one.", ts=2, session="sB")])
    records = store.all_records()
    summaries = [r for r in records if r.kind == KIND_SUMMARY]
    assert len(summaries) == 2
    by_session = {s.session_id: s for s in summaries}
    assert by_session["sA"].text == "alpha fact one. alpha fact two."
    assert by_session["sB"].text == "beta fact one."
    assert by_session["sA"].ts == 1      # newest member's timestamp
    assert store.stats().index_sizes["sessions"] == 2
    # summary embedding is the normalized mean of the member embeddings
    members = [r for r in records
               if r.kind != KIND_SUMMARY and r.session_id == "sA"]
    manual = mean_embedding([m.embedding for m in members])
    assert np.allclose(by_session["sA"].embedding, manual)


def test_summary_vector_refreshes_on_member_removal():
    store = build_store("summary_vector", embed_dim=DIM)
    (a,) = store.insert([record("first turn.", ts=0, session="sA")])
    (b,) = store.insert([record("second turn.", ts=1, session="sA", turn=1)])
    store.remove(a)
    summaries = [r for r in store.all_records() if r.kind == KIND_SUMMARY]
    assert len(summaries) == 1
    assert summaries[0].text == "second turn."
    store.remove(b)
    assert [r for r in store.all_records() if r.kind == KIND_SUMMARY] == []
    assert store.stats().index_sizes["sessions"] == 0


def test_summary_vector_search_is_cosine_only():
    store = build_store("summary_vector", embed_dim=DIM)
    store.insert([record("gamma topic sentence.", ts=0)])
    hits = store.retrieve(RetrievalSignal(raw_query="gamma"), k=3, now=5)
    assert hits == []  # no query embedding, no results
    hits = store.retrieve(signal("gamma topic"), k=3, now=5)
    assert hits


def test_mean_embedding():
    assert mean_embedding([]) is None
    v = mean_embedding([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(v, np.array([1.0, 1.0]) / np.sqrt(2.0))


# -- reindex ------------------------------------------------------------------

def test_reindex_after_text_change():
    # lexical mode makes index membership observable directly
    store = build_store("inverted_vector", embed_dim=DIM,
                        params={"mode": "lexical"})
    (rid,) = store.insert([record("old topic words.", ts=0)])
    rec = store.get(rid)
    rec.text = "fresh subject matter."
    rec.embedding = mock_embed_text(rec.text, DIM)
    store.reindex(rec)
    hits = store.retrieve(signal("fresh subject matter"), k=1, now=5)
    assert [h.record_id for h in hits] == [rid]
    hits = store.retrieve(signal("old topic words"), k=5, now=5)
    assert hits == []


# -- cross-backend property -----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.data())
def test_retrieval_contract_property(data):
    name = data.draw(st.sampled_from(sorted(BACKENDS)))
    store = build_store(name, embed_dim=DIM, seed=0)
    n = data.draw(st.integers(1, 12))
    for i in range(n):
        words = data.draw(st.lists(
            st.sampled_from(["red", "ball", "sky", "parrot", "shed", "tea"]),
            min_size=1, max_size=4))
        store.insert([record(" ".join(words) + ".", ts=i, turn=i)])
    k = data.draw(st.integers(1, 6))
    now = data.draw(st.integers(0, n + 2))
    hits = store.retrieve(signal("red ball in the sky"), k=k, now=now)
    assert len(hits) <= k
    scores = [h.score for h in hits]
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)
    assert all(h.record.ts < now for h in hits)
    assert len({h.record_id for h in hits}) == len(hits)
