"""The shared embedding index against a per-record reference scan.

Every backend's vector search and the three neighbour-scanning consolidation
policies go through ``MemoryStore.nearest``. The reference implementations
in ``reference.py`` and ``ref_search`` below keep the per-record cosine loop
each of them replaced; two stores fed the same operations, one per
implementation, must return the same candidate ids and bit-identical scores
and log the same consolidation actions. The lexical parts of the
references score every visible record from its current text, so a fault in
the postings or in ``_lexical_ranking`` shows. A second property checks
that the index rows, with their cached norms and float32 unit rows, always
mirror the live embedded records, with each row's record id beside it,
and that every free row carries ``FREE_TS``. They do so right after each
insert and reindex, with no scan in between, and a replay bills every row
write to the stage that writes the record: StateUpdate, or PostIns for a
merge, never Search. The last tests pin the index's numerics on random
rows, in a store grown past the index's first reserve: cached norms and
rescored scores bit for bit, a floor at exactly the best cosine, freed rows
that never come back, and a screen restricted to some rows that multiplies
only those rows and returns what the all-rows screen keeps of them. A
property test holds every float32 screened score within the screen's error
bound of the per-pair cosine and checks that the screen keeps every exact
winner; a last test moves a record's ts past every insert and checks that
no ranking sees it before then.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memstream import ingest
from memstream.config import ConsolidateConfig, config_from_dict
from memstream.gateway import MockGateway, mock_embed_text
from memstream.metrics import STAGE_POST_INSERT, STAGE_STATE_UPDATE
from memstream.orchestrator import _Pipeline, run_experiment
from memstream.records import KIND_TRIPLET, MemoryRecord, RetrievalSignal, Triplet
from memstream.stores import BACKENDS, build_store
from memstream.stores.base import FREE_TS, EmbeddingIndex
from memstream.stores.fifo import FifoQueueStore
from memstream.stores.inverted_vector import InvertedVectorStore
from memstream.stores.lsh import LshStore, lsh_signature
from memstream.stores.property_graph import PropertyGraphStore, entity_keys
from memstream.stores.queue_segment import QueueSegmentStore
from memstream.stores.summary_vector import SummaryVectorStore
from memstream.text import index_tokens
from memstream.workloads import SyntheticSpec, synth_workload
from reference import (
    as_bits,
    as_candidates,
    divided_by_top,
    insert_count,
    ranked,
    ref_consolidate,
    ref_cosine,
    ref_retrieve,
    ref_vector_search,
    visible_records,
)

DIM = 32

# near-duplicate facts (high cosine under the mock embedding), exact
# duplicates (ties), and pipe-separated facts the mock CRUD call updates
TEXTS = tuple(
    f"the {attr} of the {entity} is {value}."
    for attr in ("color", "size")
    for entity in ("harbor", "garden")
    for value in ("red", "blue", "large")
) + ("alice | lives in | paris", "alice | lives in | rome", "bob | works at | mill")

TRIPLETS = (Triplet("harbor", "has color", "red"), Triplet("garden", "has size", "large"))

# name -> build_store keyword arguments; bits=4 makes LSH buckets collide
CONFIGS = {
    "fifo_queue": dict(params={"capacity": 8}),
    "queue_segment": dict(params={"short_capacity": 3}),
    "lsh_hash": dict(params={"bits": 4, "tables": 3}),
    "inverted_vector": {},
    "inverted_vector/vector": dict(params={"mode": "vector"}),
    "property_graph": {},
    "summary_vector": dict(params={"summary_max_sentences": 3}),
}
STRATEGIES = ("none", "semantic_consolidation", "link_evolution", "crud")
CONSOLIDATE = ConsolidateConfig(dedup_threshold=0.8, link_threshold=0.4, link_top_m=2)


# ----------------------------------------------------------------------
# reference: the per-record scans the index replaced
# ----------------------------------------------------------------------

def ref_search(store, signal, k, now):
    if isinstance(store, (FifoQueueStore, InvertedVectorStore, QueueSegmentStore)):
        return ref_retrieve(store, signal, k, now)
    if signal.embedding is None and not isinstance(store, PropertyGraphStore):
        return []
    if isinstance(store, SummaryVectorStore):
        return ref_vector_search(store, signal, k, now)
    if isinstance(store, LshStore):
        # probed: the record shares the query's bucket in at least one table
        query_sigs = [lsh_signature(signal.embedding, planes) for planes in store._planes]
        scored = [(record, (1.0 + ref_cosine(signal.embedding, record.embedding)) / 2.0)
                  for record in visible_records(store, now)
                  if any(lsh_signature(record.embedding, planes) == sig
                         for planes, sig in zip(store._planes, query_sigs))]
        return as_candidates(ranked(scored)[:k])
    query_entities = set(index_tokens(signal.lexical_text()))  # property_graph
    scored = []
    for record in visible_records(store, now):
        bonus = float(len(query_entities & entity_keys(record)))
        sim = 0.0
        if signal.embedding is not None and record.embedding is not None:
            sim = (1.0 + ref_cosine(signal.embedding, record.embedding)) / 2.0
        if bonus + sim > 0.0:
            scored.append((record, bonus + sim))
    return as_candidates(ranked(divided_by_top(scored))[:k])


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

insert_op = st.tuples(
    st.just("insert"),
    st.integers(0, len(TEXTS) - 1),                    # text
    st.sampled_from(("embed", "embed", "none", "triplet", "triplet_embedded")),
    st.integers(0, 2),                                 # session
    st.integers(0, 2),                                 # clock advance (0: same ts)
)
query_op = st.tuples(
    st.just("query"),
    st.integers(0, len(TEXTS) - 1),
    st.sampled_from(("now", "past", "unbounded")),
    st.integers(1, 6),                                 # k
    st.booleans(),                                     # signal carries an embedding
)
remove_op = st.tuples(st.just("remove"), st.integers(0, 50))
edit_op = st.tuples(st.just("edit"), st.integers(0, 50), st.integers(0, len(TEXTS) - 1),
                    st.booleans())                     # drop the embedding
# half inserts, so stores grow past k and consolidation finds neighbours
OPS = st.lists(st.integers(0, 9).flatmap(
    lambda i: insert_op if i < 5 else query_op if i < 7 else remove_op if i < 8 else edit_op),
    min_size=1, max_size=40)


def make_record(op, ts, turn, lsh):
    _, text_i, kind, session, _ = op
    text = TEXTS[text_i]
    if kind == "triplet":  # a bare triplet: no session, no embedding
        triplet = TRIPLETS[text_i % len(TRIPLETS)]
        return MemoryRecord(record_id="", text=triplet.linearize(), ts=ts, session_id="",
                            kind=KIND_TRIPLET, triplet=triplet)
    triplet = None
    if kind == "triplet_embedded":  # what the rewrite normalizer stores
        triplet = TRIPLETS[text_i % len(TRIPLETS)]
        text = triplet.linearize()
    embedding = mock_embed_text(text, DIM) if kind != "none" or lsh else None
    return MemoryRecord(record_id="", text=text, ts=ts, session_id=f"s{session}",
                        turn_index=turn, embedding=embedding, triplet=triplet)


def same_records(a, b):
    assert [r.record_id for r in a.all_records()] == [r.record_id for r in b.all_records()]
    for ra, rb in zip(a.all_records(), b.all_records()):
        assert (ra.text, ra.ts, ra.links, ra.access_count, ra.tier) == \
               (rb.text, rb.ts, rb.links, rb.access_count, rb.tier)
        assert (ra.embedding is None) == (rb.embedding is None)
        if ra.embedding is not None:
            assert ra.embedding.tobytes() == rb.embedding.tobytes()


# link_evolution raises UnsupportedBackend unless the backend keeps links
CASES = [(c, s) for c in CONFIGS for s in STRATEGIES
         if s != "link_evolution" or BACKENDS[c.split("/")[0]].supports_links]


@pytest.mark.parametrize("config,strategy", CASES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_nearest_matches_per_record_scan(config, strategy, ops):
    name = config.split("/")[0]
    stores = [build_store(name, embed_dim=DIM, seed=0, **CONFIGS[config]) for _ in range(2)]
    real, ref = stores
    gateway = MockGateway(dim=DIM)
    cfg = dataclasses.replace(CONSOLIDATE, strategy=strategy)
    lsh = name == "lsh_hash"
    clock, turn = 10, 0
    for op in ops:
        kind = op[0]
        if kind == "insert":
            if lsh and op[2] == "triplet":
                continue
            clock += op[4]
            turn += 1
            ids = [s.insert([make_record(op, clock, turn, lsh)]) for s in stores]
            assert ids[0] == ids[1]
            if strategy != "none":
                actions, _ = ingest.run_consolidate(real, ids[0], clock, cfg, gateway, turn)
                assert actions == ref_consolidate(ref, ids[1], cfg, gateway)
        elif kind == "query":
            _, text_i, when, k, embedded = op
            if not embedded and lsh:
                continue
            text = TEXTS[text_i]
            emb = mock_embed_text(text, DIM) if embedded else None
            now = {"now": clock, "past": clock - 2, "unbounded": None}[when]
            got = real.retrieve(RetrievalSignal(raw_query=text, embedding=emb), k, now=now)
            want = ref_search(ref, RetrievalSignal(raw_query=text, embedding=emb), k, now)
            for cand in want:
                ref._touch(cand.record, now)
            assert as_bits(got) == as_bits(want)
        else:
            live = real.all_records()
            if not live:
                continue
            target = live[op[1] % len(live)].record_id
            if kind == "remove":
                for s in stores:
                    s.remove(target)
            else:
                _, _, text_i, drop = op
                for s in stores:
                    record = s.get(target)
                    record.text = TEXTS[text_i]
                    record.embedding = (None if drop and not lsh
                                        else mock_embed_text(TEXTS[text_i], DIM))
                    s.reindex(record)
        same_records(real, ref)


def test_entity_bonus_lifts_a_far_embedding_past_the_cosine_cut():
    # the triplet record is far from the query in embedding space, but its
    # entity bonus ranks it first; a top-k scan on cosine alone would drop it
    real, ref = (build_store("property_graph", embed_dim=DIM) for _ in range(2))
    triplet = TRIPLETS[1]
    for store in (real, ref):
        units = [MemoryRecord(record_id="", text=text, ts=1, session_id="s0",
                              embedding=mock_embed_text(text, DIM))
                 for text in TEXTS[:6]]
        units.append(MemoryRecord(record_id="", text=triplet.linearize(), ts=1,
                                  session_id="s0", triplet=triplet,
                                  embedding=mock_embed_text(triplet.linearize(), DIM)))
        store.insert(units)
    query = "the size of the garden is blue."
    signal = RetrievalSignal(raw_query=query, embedding=mock_embed_text(query, DIM))
    got = real.retrieve(signal, k=1, now=2)
    assert got[0].record.triplet == triplet
    assert as_bits(got) == as_bits(ref_search(ref, signal, 1, 2))


# ----------------------------------------------------------------------
# index coherence
# ----------------------------------------------------------------------

def unit_row(embedding):
    """The float32 row the screen reads: the embedding over its norm, cast as it
    stands when the norm is within 2**-30 of 1, zero when the norm is 0."""
    embedding = np.asarray(embedding, dtype=np.float64)
    norm = float(np.linalg.norm(embedding))
    scale = 1.0 if abs(norm - 1.0) <= 2.0 ** -30 else 1.0 / norm if norm else 0.0
    return (embedding * scale).astype(np.float32).tobytes()


def index_rows(store):
    """record_id -> (ts, row bytes, cached norm, unit row bytes) of every mapped row."""
    index = store._index
    for row in index._free:
        assert index.ts[row] == FREE_TS  # no now reaches a free row
    allocated = len(index.row_of) + len(index._free)
    assert sorted(index._free + list(index.row_of.values())) == list(range(allocated))
    rows = {}
    for record_id, row in index.row_of.items():
        assert index.ids[row] == record_id
        rows[record_id] = (int(index.ts[row]), index.matrix[row].tobytes(),
                           float(index.norms[row]), index.unit[row].tobytes())
    return rows


def live_embedded(store):
    return {r.record_id: (r.ts, np.asarray(r.embedding, dtype=np.float64).tobytes(),
                          float(np.linalg.norm(r.embedding)), unit_row(r.embedding))
            for r in store.all_records() if r.embedding is not None}


def scaled_embedding(text_i):
    # mock embeddings have unit norm; a norm per text makes a stale cached norm show
    return (text_i + 1) * mock_embed_text(TEXTS[text_i], DIM)


COHERENCE_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(TEXTS) - 1), st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("reindex"), st.integers(0, 50), st.integers(0, len(TEXTS) - 1),
              st.booleans()),
    st.tuples(st.just("scan"), st.integers(0, len(TEXTS) - 1)),
), min_size=1, max_size=60)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=40, deadline=None)
@given(ops=COHERENCE_OPS)
# a built row reindexed to another norm, then a freed row reused
@example(ops=[("insert", 0, True), ("insert", 1, True), ("scan", 0), ("reindex", 0, 5, False),
              ("remove", 1), ("insert", 7, True), ("scan", 0)])
def test_index_rows_mirror_live_embedded_records(config, ops):
    name = config.split("/")[0]
    store = build_store(name, embed_dim=DIM, seed=0, **CONFIGS[config])
    lsh = name == "lsh_hash"
    clock = 0
    for op in ops:
        clock += 1
        live = store.all_records()
        if op[0] == "insert":
            # past the fifo_queue capacity every insert evicts the oldest record
            embedding = scaled_embedding(op[1]) if op[2] or lsh else None
            store.insert([MemoryRecord(record_id="", text=TEXTS[op[1]], ts=clock,
                                       session_id=f"s{op[1] % 2}", embedding=embedding)])
        elif op[0] == "scan":
            store.nearest(mock_embed_text(TEXTS[op[1]], DIM), now=clock)
        elif live:
            record = live[op[1] % len(live)]
            if op[0] == "remove":
                store.remove(record.record_id)
            else:
                record.ts = clock
                record.embedding = None if op[3] and not lsh else scaled_embedding(op[2])
                store.reindex(record)
    assert index_rows(store) == live_embedded(store)


def test_rows_are_written_with_their_records():
    # no scan runs in between: each insert and reindex writes its row at once
    store = build_store("inverted_vector", embed_dim=DIM)
    for text_i in range(len(TEXTS)):
        store.insert([MemoryRecord(record_id="", text=TEXTS[text_i], ts=text_i + 1,
                                   session_id="s0",
                                   embedding=scaled_embedding(text_i) if text_i % 3 else None)])
        assert index_rows(store) == live_embedded(store)
    for record, text_i in zip(store.all_records()[::2], range(len(TEXTS))):
        record.ts += 100
        record.embedding = None if text_i % 4 == 0 else scaled_embedding(text_i)
        store.reindex(record)
        assert index_rows(store) == live_embedded(store)


@pytest.mark.parametrize("consolidate", ["none", "semantic_consolidation"])
def test_row_writes_bill_to_the_stage_that_writes_the_record(monkeypatch, consolidate):
    # an insert's row bills to its StateUpdate, a merge's reindex to its
    # PostIns, and no row write waits for a query's Search
    manifest, _key = synth_workload(SyntheticSpec(seed=3, n_facts=40, rounds=2,
                                                  queries_per_round=4))
    cfg = config_from_dict({
        "store": {"backend": "inverted_vector"},
        "operators": {"consolidate": {"strategy": consolidate, "dedup_threshold": 0.85}},
        "gateway": {"kind": "mock", "embed_dim": DIM},
    })
    gateway = MockGateway(dim=DIM)
    stages = []
    write = EmbeddingIndex.write

    def billed_write(index, record):
        stages.append(gateway.stage)
        write(index, record)

    monkeypatch.setattr(EmbeddingIndex, "write", billed_write)
    result = run_experiment(cfg, manifest, gateway=gateway)
    assert result.status == "complete", result.error
    merges = sum(" MERGE " in line for line in result.action_log)
    assert (merges > 0) is (consolidate != "none")
    # one write per insert and one per merge, in no other stage
    assert Counter(stages) == +Counter({STAGE_STATE_UPDATE: insert_count(manifest),
                                        STAGE_POST_INSERT: merges})


def test_lexical_fifo_replay_never_builds_the_matrix():
    manifest, _key = synth_workload(SyntheticSpec(seed=3, n_facts=40, rounds=2,
                                                  queries_per_round=4))
    cfg = config_from_dict({
        "store": {"backend": "fifo_queue", "params": {"capacity": 16}},
        "operators": {"normalize": {"strategy": "rewrite"},
                      "formulate": {"strategy": "keyword"},
                      "integrate": {"strategy": "multi_query"}},
        "gateway": {"kind": "mock", "embed_dim": DIM},
    })
    pipeline = _Pipeline(cfg, manifest, MockGateway(dim=DIM))
    result = pipeline.run()
    assert result.status == "complete" and result.reports
    assert pipeline.store.evicted_total > 0
    assert pipeline.store._index.matrix is None


# ----------------------------------------------------------------------
# the index against per-pair cosine and np.linalg.norm, bit for bit
# ----------------------------------------------------------------------

def random_rows(rng, n, dim):
    """Rows of varied scale, with zero rows and exact duplicates among them."""
    rows = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    rows[::7] = 0.0
    rows[3::5] = rows[1::5][:len(rows[3::5])]
    return rows


# past the index's 1,024-row first reserve, so its arrays grow once
CHURNED_ROWS = 1100


def churned_store(rng, dim, counter=0):
    """A vector store whose rows were grown, freed, reused and rewritten in place.

    Its record ids start after ``counter``.
    """
    store = build_store("inverted_vector", embed_dim=dim, params={"mode": "vector"})
    store._counter = counter
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, CHURNED_ROWS, dim))])
    for record in store.all_records()[::3]:
        store.remove(record.record_id)
    # new inserts reuse the freed rows; reindexed records are rewritten in place
    store.insert([MemoryRecord(record_id="", text=f"reused {i}", ts=CHURNED_ROWS + i,
                               session_id="s0", embedding=row)
                  for i, row in enumerate(random_rows(rng, 20, dim))])
    for record, row in zip(store.all_records()[::4], random_rows(rng, 20, dim)):
        record.embedding = row
        store.reindex(record)
    return store


DIMS = [1, 3, 17, 64, 256]


def assert_rescore_equals_per_pair_cosine(rng, dim, store):
    queries = list(random_rows(rng, 12, dim)) + [store.all_records()[1].embedding]
    for query in queries:
        want = sorted(((r.record_id, ref_cosine(query, r.embedding)) for r in store.all_records()),
                      key=lambda item: (-item[1], item[0]))
        got = [(r.record_id, sim) for r, sim in store.nearest(query)]
        assert [(i, s.hex()) for i, s in got] == [(i, s.hex()) for i, s in want]
        top = store.nearest(query, top=5)
        assert [(r.record_id, s.hex()) for r, s in top[:5]] == \
               [(i, s.hex()) for i, s in want[:5]]


def test_a_store_grown_past_the_reserve_mirrors_its_records():
    rng = np.random.default_rng(5)
    store = churned_store(rng, DIM)
    assert store._index.matrix.shape[0] == 2048  # the 1,024-row reserve, doubled once
    assert store._index._free  # rows freed and not all reused
    assert index_rows(store) == live_embedded(store)
    assert_rescore_equals_per_pair_cosine(rng, DIM, store)


@pytest.mark.parametrize("dim", DIMS)
def test_batched_rescore_equals_per_pair_cosine_bitwise(dim):
    rng = np.random.default_rng(dim)
    assert_rescore_equals_per_pair_cosine(rng, dim, churned_store(rng, dim))


@pytest.mark.parametrize("dim", DIMS)
def test_rescore_ties_past_the_seventh_id_digit_rank_like_a_scan(dim):
    # ids m999961 to m1000040, duplicate rows among them: ties break in
    # string order, where "m1000000" < "m999999"
    rng = np.random.default_rng(dim)
    store = churned_store(rng, dim, counter=999_960)
    ids = {r.record_id for r in store.all_records()}
    assert "m999999" in ids and "m1000001" in ids
    assert_rescore_equals_per_pair_cosine(rng, dim, store)


def cached_norms(store):
    index = store._index
    return {record_id: (index.norms[row].hex(), index.unit[row].tobytes())
            for record_id, row in index.row_of.items()}


@pytest.mark.parametrize("dim", DIMS)
def test_cached_norms_have_the_bits_of_linalg_norm(dim):
    rng = np.random.default_rng(100 + dim)
    store = build_store("inverted_vector", embed_dim=dim, params={"mode": "vector"})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, 40, dim))])

    def linalg_norms():
        return {r.record_id: (float(np.linalg.norm(r.embedding)).hex(), unit_row(r.embedding))
                for r in store.all_records()}

    assert cached_norms(store) == linalg_norms()
    store = churned_store(rng, dim)
    assert cached_norms(store) == linalg_norms()


def best_by_cosine(store, query, exclude=()):
    scored = [(r.record_id, ref_cosine(query, r.embedding)) for r in store.all_records()
              if r.record_id not in exclude]
    return min(scored, key=lambda item: (-item[1], item[0]))


@pytest.mark.parametrize("dim", DIMS)
def test_screen_keeps_a_row_whose_cosine_equals_the_floor(dim):
    # the call semantic_consolidation makes: the best row must survive a
    # floor at exactly its cosine, and nothing may pass one ulp above it
    rng = np.random.default_rng(200 + dim)
    store = churned_store(rng, dim)
    queries = list(random_rows(rng, 15, dim)) + [r.embedding for r in store.all_records()[:5]]
    for query in queries:
        best_id, _ = best_by_cosine(store, query)
        for exclude in ((), (best_id,)):
            want_id, c = best_by_cosine(store, query, exclude)
            got = store.nearest(query, exclude=exclude, top=1, floor=c)
            assert got[0][0].record_id == want_id and got[0][1].hex() == c.hex()
            assert store.nearest(query, exclude=exclude, top=1,
                                 floor=np.nextafter(c, np.inf)) == []


@pytest.mark.parametrize("dim", DIMS)
def test_a_freed_row_never_comes_back(dim):
    rng = np.random.default_rng(300 + dim)
    store = build_store("inverted_vector", embed_dim=dim, params={"mode": "vector"})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, 30, dim))])
    removed = {}
    for record in store.all_records()[1::2]:
        removed[record.record_id] = record.embedding
        store.remove(record.record_id)
    # the last removal is rewritten in place first
    last = store.all_records()[-1]
    last.embedding = rng.normal(size=dim)
    store.reindex(last)
    removed[last.record_id] = last.embedding
    store.remove(last.record_id)

    def returned_ids():
        ids = set()
        for vector in removed.values():
            for now in (None, 10 ** 6, 2 ** 70):  # past the int64 range too
                for top in (None, 1):
                    ids.update(r.record_id for r, _ in store.nearest(vector, now=now, top=top))
        return ids

    assert returned_ids() and not returned_ids() & set(removed)
    # new records take the freed rows, with other vectors and later ts
    store.insert([MemoryRecord(record_id="", text=f"reused {i}", ts=1000 + i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, len(removed), dim))])
    assert not returned_ids() & set(removed)
    assert store._index._free == []  # every freed row was reused


def test_exact_cosine_ties_rank_by_record_id():
    # duplicate embeddings tie exactly; a reused row puts a later record id
    # above earlier ones in the matrix, so row order is not id order
    rng = np.random.default_rng(11)
    shared, near, far = rng.normal(size=(3, DIM))
    store = build_store("inverted_vector", embed_dim=DIM, params={"mode": "vector"})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i, session_id="s0",
                               embedding=vector.copy())
                  for i, vector in enumerate([shared, shared, far, shared, shared])])
    store.remove("m000001")
    store.insert([MemoryRecord(record_id="", text="reused", ts=9, session_id="s0",
                               embedding=shared.copy())])
    store.insert([MemoryRecord(record_id="", text="near", ts=10, session_id="s0",
                               embedding=shared + 1e-3 * near)])
    tied = ["m000002", "m000004", "m000005", "m000006"]
    got = store.nearest(shared)
    assert store._index.row_of["m000006"] == 0
    assert [r.record_id for r, _ in got] == tied + ["m000007", "m000003"]
    assert len({sim.hex() for _, sim in got[:4]}) == 1
    assert [r.record_id for r, _ in store.nearest(shared, top=2)][:2] == tied[:2]
    assert [r.record_id for r, _ in store.nearest(shared, floor=got[0][1])] == tied
    assert [r.record_id for r, _ in store.nearest(shared, exclude=["m000004"], top=3)][:3] \
        == ["m000002", "m000005", "m000006"]


def test_fused_ties_past_the_seventh_id_digit_rank_like_a_scan():
    # four copies of each text: equal cosines and equal lexical totals, with
    # ids on both sides of m999999, more of them than a signal's fusion pool
    store = build_store("inverted_vector", embed_dim=DIM)
    store._counter = 999_970
    for copy in range(4):
        store.insert([MemoryRecord(record_id="", text=text, ts=copy + 1, session_id="s0",
                                   embedding=mock_embed_text(text, DIM))
                      for text in TEXTS])
    ids = [r.record_id for r in store.all_records()]
    assert "m999999" in ids and "m1000000" in ids and len(ids) > store.POOL_MIN
    for text in TEXTS:
        for embedded in (True, False):
            signal = RetrievalSignal(raw_query=text,
                                     embedding=mock_embed_text(text, DIM) if embedded else None)
            for k, now in ((1, None), (5, None), (6, 3), (10, None)):
                want = ref_retrieve(store, signal, k, now)
                assert as_bits(store.retrieve(signal, k, now=now)) == as_bits(want)


class ProductLog(np.ndarray):
    """A float32 screen array that logs each matrix-vector product: its rows and its scores."""

    spans: list = []
    products: list = []

    def dot(self, other, *args, **kwargs):
        out = np.asarray(self).dot(other, *args, **kwargs)
        ProductLog.spans.append(self.shape[0])
        ProductLog.products.append(out.copy())
        return out


def test_restricted_screen_multiplies_only_the_chosen_rows():
    rng = np.random.default_rng(7)
    store = build_store("lsh_hash", embed_dim=DIM, seed=0, params={"bits": 3, "tables": 2})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i + 1, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, 200, DIM))])
    index = store._index
    index.unit = index.unit.view(ProductLog)
    ids = [r.record_id for r in store.all_records()]
    for query in list(random_rows(rng, 20, DIM)) + [store.all_records()[5].embedding]:
        for rows in (ids[::7], ids[3:40], [ids[11]], [], ids):
            for now, top in ((None, None), (150, 3), (None, 1)):
                ProductLog.spans = []
                got = store.nearest(query, now=now, top=top, rows=rows)
                # bit for bit the all-rows screen with the other rows left out
                chosen = set(rows)
                want = [(r, s) for r, s in store.nearest(query, now=now)
                        if r.record_id in chosen]
                want_top = want if top is None else want[:top]
                assert [(r.record_id, s.hex()) for r, s in got[:len(want_top)]] == \
                       [(r.record_id, s.hex()) for r, s in want_top]
                visible = sum(1 for r in store.all_records()
                              if r.record_id in chosen and (now is None or r.ts < now))
                assert ProductLog.spans[0] == visible
    # what an LSH query probes: its buckets' candidates only
    query = store.all_records()[0].embedding
    probed = store._postings.matching(store._bucket_keys(query))
    ProductLog.spans = []
    store.retrieve(RetrievalSignal(raw_query="q", embedding=query), k=3, now=None)
    assert ProductLog.spans[0] == len(probed) < len(ids)


# ----------------------------------------------------------------------
# the float32 screen's error bound, and visibility under the ts bound
# ----------------------------------------------------------------------

SCREEN_DIMS = [1, 3, 64, 256, 1536]
ROW_KINDS = ("scaled", "scaled", "unit", "near_unit", "off_unit", "zero", "duplicate", "ulp",
             "one_ulp")


@st.composite
def screened_rows(draw):
    """(rows, query): norms from 1e-30 to 1e30, zero rows, unit rows, rows
    just inside and just outside the 2**-30 band around norm 1, exact
    duplicates and one-ulp neighbours; the query may be zero or a row or a
    row's neighbour."""
    dim = draw(st.sampled_from(SCREEN_DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=30))
    rows = []
    for kind in kinds:
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        earlier = rows[rng.integers(len(rows))] if rows else direction
        if kind == "scaled":
            rows.append(direction * 10.0 ** rng.uniform(-30, 30))
        elif kind == "unit":
            rows.append(direction)
        elif kind == "near_unit":  # screened as it stands, norm 1 -+ 2**-31
            rows.append(direction * (1.0 + rng.choice([-1.0, 1.0]) * 2.0 ** -31))
        elif kind == "off_unit":  # divided by its norm, 1 -+ 2**-26
            rows.append(direction * (1.0 + rng.choice([-1.0, 1.0]) * 2.0 ** -26))
        elif kind == "zero":
            rows.append(np.zeros(dim))
        elif kind == "duplicate":
            rows.append(earlier.copy())
        elif kind == "ulp":  # every component one ulp up
            rows.append(np.nextafter(earlier, np.inf))
        else:  # one component one ulp down
            row, j = earlier.copy(), rng.integers(dim)
            row[j] = np.nextafter(row[j], -np.inf)
            rows.append(row)
    query_kind = draw(st.sampled_from(("scaled", "zero", "row", "ulp")))
    if query_kind == "scaled":
        query = rng.normal(size=dim) * 10.0 ** rng.uniform(-30, 30)
    elif query_kind == "zero":
        query = np.zeros(dim)
    else:
        query = rows[rng.integers(len(rows))].copy()
        if query_kind == "ulp":
            query = np.nextafter(query, -np.inf)
    return np.array(rows), query


@settings(max_examples=200, deadline=None)
@given(case=screened_rows(), k=st.integers(1, 6))
def test_screened_scores_lie_within_the_bound_and_keep_every_exact_winner(case, k):
    rows, query = case
    n, dim = rows.shape
    store = build_store("inverted_vector", embed_dim=dim, params={"mode": "vector"})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i + 1, session_id="s0",
                               embedding=row) for i, row in enumerate(rows)])
    records = store.all_records()
    assert index_rows(store) == live_embedded(store)
    index = store._index
    index.unit = index.unit.view(ProductLog)
    bound = (dim + 2) * 2.0 ** -24 + 2.0 ** -30
    assert index.margin >= bound
    ProductLog.products = []
    store.nearest(query)
    screened = ProductLog.products[0]
    for record in records:
        exact = ref_cosine(query, record.embedding)
        assert abs(float(screened[index.row_of[record.record_id]]) - exact) <= bound

    def bits(scored):
        return [(record_id, sim.hex()) for record_id, sim in scored]

    # every visible row of the exact top k and of the floor set survives,
    # with or without a visibility mask, an excluded row or a restriction
    rng = np.random.default_rng(n)
    for now, exclude, rows_in in ((None, (), None), (n // 2 + 1, (), None),
                                  (None, (records[0].record_id,), None),
                                  (None, (), [r.record_id for r in records[::2]])):
        want = sorted(((r.record_id, ref_cosine(query, r.embedding)) for r in records
                       if (now is None or r.ts < now) and r.record_id not in exclude
                       and (rows_in is None or r.record_id in rows_in)),
                      key=lambda item: (-item[1], item[0]))
        got = store.nearest(query, now=now, exclude=exclude, top=k, rows=rows_in)
        assert bits((r.record_id, s) for r, s in got[:k]) == bits(want[:k])
        for floor in [sim for _, sim in want][:3] + [float(rng.uniform(-1, 1))]:
            got = store.nearest(query, now=now, exclude=exclude, floor=floor, rows=rows_in)
            assert bits((r.record_id, s) for r, s in got) == \
                bits(item for item in want if item[1] >= floor)


def test_a_record_reindexed_past_every_insert_stays_hidden_until_its_ts():
    # the moved record's ts is past every inserted ts, so a query between
    # the two finds every other record visible; it must still skip the
    # moved one in both rankings, which it only can if reindex raised the
    # store's ts bound
    store = build_store("inverted_vector", embed_dim=DIM)
    store.insert([MemoryRecord(record_id="", text=text, ts=i + 1, session_id="s0",
                               embedding=mock_embed_text(text, DIM))
                  for i, text in enumerate(TEXTS)])
    moved = store.all_records()[2]
    moved.ts = len(TEXTS) + 10
    store.reindex(moved)
    signal = RetrievalSignal(raw_query=moved.text, embedding=moved.embedding)
    for now, seen in ((len(TEXTS) + 5, False), (moved.ts, False), (moved.ts + 1, True)):
        lexical = [record_id for _, record_id in store._lexical_ranking(signal, now)]
        vector = [r.record_id for r, _ in store.nearest(moved.embedding, now=now)]
        assert (moved.record_id in lexical) is seen and (moved.record_id in vector) is seen
        assert len(vector) == len(TEXTS) - (not seen)
        got = [c.record.record_id for c in store.retrieve(signal, k=len(TEXTS), now=now)]
        assert (moved.record_id in got) is seen
