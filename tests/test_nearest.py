"""The shared embedding index against a per-record reference scan.

Every backend's vector search and the three neighbour-scanning consolidation
policies go through ``MemoryStore.nearest``. The reference implementations
below keep the per-record cosine loop each of them replaced; two stores fed
the same operations, one per implementation, must return the same candidate
ids and bit-identical scores and log the same consolidation actions. The
lexical parts of the references score every visible record from its
current text, so a fault in the postings or in ``_lexical_ranked`` shows. A
second property checks that the index rows, with their cached norms, always
mirror the live embedded records, and that every free row carries
``FREE_TS``. The last tests pin the index's numerics on random rows: cached
norms and rescored scores bit for bit, a floor at exactly the best cosine,
and freed rows that never come back.
"""

import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memstream import ingest
from memstream.config import ConsolidateConfig, config_from_dict
from memstream.errors import UnsupportedBackend
from memstream.gateway import MockGateway, mock_embed_text
from memstream.orchestrator import _Pipeline
from memstream.records import KIND_TRIPLET, MemoryRecord, RetrievalSignal, Triplet
from memstream.stores import BACKENDS, build_store, fuse_scores
from memstream.stores.base import (
    FREE_TS,
    cosine,
    fold_cosine,
    normalize_ratio,
    rank_candidates,
)
from memstream.stores.inverted_vector import InvertedVectorStore
from memstream.stores.lsh import LshStore, lsh_signature
from memstream.stores.property_graph import PropertyGraphStore, entity_keys
from memstream.stores.queue_segment import QueueSegmentStore
from memstream.stores.summary_vector import SummaryVectorStore
from memstream.text import index_tokens
from memstream.workloads import SyntheticSpec, synth_workload
from reference import lexical_scores, visible_records

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

def ref_vector_scored(store, signal, now):
    return [
        (rec, fold_cosine(cosine(signal.embedding, rec.embedding)))
        for rec in visible_records(store, now)
        if rec.embedding is not None
    ]


def ref_lexical_scored(store, signal, now):
    """Term-frequency scores of every visible record, from its current text."""
    counts = {rec.record_id: Counter(index_tokens(rec.text)) for rec in store.all_records()}
    return lexical_scores(visible_records(store, now), signal, counts)


def ref_lexical_search(store, signal, k, now):
    return rank_candidates(normalize_ratio(ref_lexical_scored(store, signal, now)), k,
                           source="lexical")


def ref_search(store, signal, k, now):
    if isinstance(store, InvertedVectorStore):
        if store.mode == "lexical":
            return ref_lexical_search(store, signal, k, now)
        if store.mode == "vector":
            if signal.embedding is None:
                return []
            return rank_candidates(ref_vector_scored(store, signal, now), k, source="vector")
        pool = max(k * store.POOL_FACTOR, store.POOL_MIN)
        vector = []
        if signal.embedding is not None:
            scored = [(rec.record_id, cosine(signal.embedding, rec.embedding))
                      for rec in visible_records(store, now) if rec.embedding is not None]
            scored.sort(key=lambda item: (-item[1], item[0]))
            vector = [rec_id for rec_id, _ in scored[:pool]]
        scored = sorted(ref_lexical_scored(store, signal, now),
                        key=lambda item: (-item[1], item[0].record_id))
        lexical = [rec.record_id for rec, _ in scored[:pool]]
        fused = fuse_scores([lexical, vector], store.rrf_k)
        scored = normalize_ratio([(store._records[rec_id], score) for rec_id, score in fused])
        return rank_candidates(scored, k, source="fused")
    if isinstance(store, QueueSegmentStore):
        if signal.embedding is None:
            return ref_lexical_search(store, signal, k, now)
        return rank_candidates(ref_vector_scored(store, signal, now), k, source="vector")
    if isinstance(store, SummaryVectorStore):
        if signal.embedding is None:
            return []
        return rank_candidates(ref_vector_scored(store, signal, now), k, source="vector")
    if isinstance(store, LshStore):
        if signal.embedding is None:
            return []
        # probed: the record shares the query's bucket in at least one table
        query_sigs = [lsh_signature(signal.embedding, planes) for planes in store._planes]
        scored = [(record, fold_cosine(cosine(signal.embedding, record.embedding)))
                  for record in visible_records(store, now)
                  if any(lsh_signature(record.embedding, planes) == sig
                         for planes, sig in zip(store._planes, query_sigs))]
        return rank_candidates(scored, k, source="vector")
    if isinstance(store, PropertyGraphStore):
        query_entities = set(index_tokens(signal.lexical_text()))
        scored = []
        for record in visible_records(store, now):
            bonus = float(len(query_entities & entity_keys(record)))
            sim = 0.0
            if signal.embedding is not None and record.embedding is not None:
                sim = fold_cosine(cosine(signal.embedding, record.embedding))
            if bonus + sim > 0.0:
                scored.append((record, bonus + sim))
        return rank_candidates(normalize_ratio(scored), k, source="graph")
    return ref_lexical_search(store, signal, k, now)  # fifo_queue: lexical only


def ref_nearest_existing(store, record, exclude, limit):
    pool = [r for r in store.all_records() if r.record_id not in exclude]
    if record.embedding is not None:
        scored = [(r, cosine(record.embedding, r.embedding))
                  for r in pool if r.embedding is not None]
    else:
        tokens = set(index_tokens(record.text))
        scored = []
        for r in pool:
            overlap = len(tokens & set(index_tokens(r.text)))
            if overlap:
                scored.append((r, float(overlap)))
    scored.sort(key=lambda item: (-item[1], item[0].record_id))
    return [r for r, _ in scored[:limit]]


def ref_link_evolution(store, new_ids, link_top_m, link_threshold):
    if not store.supports_links:
        raise UnsupportedBackend(store.name)
    created = []
    exclude = set(new_ids)
    for new_id in new_ids:
        record = store.get(new_id)
        if record.embedding is None:
            continue
        scored = [(other, cosine(record.embedding, other.embedding))
                  for other in store.all_records()
                  if other.record_id not in exclude and other.embedding is not None]
        scored = [(other, sim) for other, sim in scored if sim >= link_threshold]
        scored.sort(key=lambda item: (-item[1], item[0].record_id))
        for other, _sim in scored[:link_top_m]:
            record.links.add(other.record_id)
            other.links.add(new_id)
            created.append(f"LINK {new_id}<->{other.record_id}")
    return created


def ref_semantic_consolidation(store, new_ids, dedup_threshold):
    merged = []
    exclude = set(new_ids)
    for new_id in new_ids:
        newer = store.get(new_id)
        if newer.embedding is None:
            continue
        best, best_sim = None, -2.0
        for older in store.all_records():
            if older.record_id in exclude or older.embedding is None:
                continue
            sim = cosine(newer.embedding, older.embedding)
            if sim > best_sim or (sim == best_sim and best is not None
                                  and older.record_id < best.record_id):
                best, best_sim = older, sim
        if best is not None and best_sim >= dedup_threshold:
            ingest.merge_records(store, best, newer)
            merged.append(f"MERGE {new_id}->{best.record_id}")
    return merged


def ref_consolidate(store, new_ids, strategy, gateway):
    live = {record.record_id for record in store.all_records()}
    new_ids = [record_id for record_id in new_ids if record_id in live]
    if strategy == "crud":
        with mock.patch.object(ingest, "_nearest_existing", ref_nearest_existing):
            return ingest.consolidate_crud(store, new_ids, gateway).actions
    if strategy == "link_evolution":
        return ref_link_evolution(store, new_ids, CONSOLIDATE.link_top_m,
                                  CONSOLIDATE.link_threshold)
    return ref_semantic_consolidation(store, new_ids, CONSOLIDATE.dedup_threshold)


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


def as_bits(candidates):
    return [(c.record_id, c.score.hex(), c.source) for c in candidates]


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
                actions = ingest.run_consolidate(real, ids[0], clock, cfg, gateway, turn).actions
                assert actions == ref_consolidate(ref, ids[1], strategy, gateway)
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
    # entity bonus ranks it first; a screen on cosine alone would drop it
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

def index_rows(store):
    index = store._index
    index.flush()
    rows = {}
    for row, record in enumerate(index.records):
        if record is None:
            assert index.ts[row] == FREE_TS  # no now reaches a free row
            continue
        assert index.row_of[record.record_id] == row
        rows[record.record_id] = (int(index.ts[row]), index.matrix[row].tobytes(),
                                  float(index.norms[row]))
    assert len(index.row_of) == len(rows)
    return rows


def live_embedded(store):
    return {r.record_id: (r.ts, np.asarray(r.embedding, dtype=np.float64).tobytes(),
                          float(np.linalg.norm(r.embedding)))
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


def churned_store(rng, dim):
    """A vector store whose rows were built, freed, reused and rewritten in place."""
    store = build_store("inverted_vector", embed_dim=dim, params={"mode": "vector"})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, 60, dim))])
    store.nearest(rng.normal(size=dim))  # build the matrix before rows are freed
    for record in store.all_records()[::3]:
        store.remove(record.record_id)
    # new inserts reuse the freed rows; reindexed records are rewritten in place
    store.insert([MemoryRecord(record_id="", text=f"reused {i}", ts=100 + i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, 20, dim))])
    for record, row in zip(store.all_records()[::4], random_rows(rng, 20, dim)):
        record.embedding = row
        store.reindex(record)
    return store


DIMS = [1, 3, 17, 64, 256]


@pytest.mark.parametrize("dim", DIMS)
def test_batched_rescore_equals_per_pair_cosine_bitwise(dim):
    rng = np.random.default_rng(dim)
    store = churned_store(rng, dim)
    queries = list(random_rows(rng, 12, dim)) + [store.all_records()[1].embedding]
    for query in queries:
        want = sorted(((r.record_id, cosine(query, r.embedding)) for r in store.all_records()),
                      key=lambda item: (-item[1], item[0]))
        got = [(r.record_id, sim) for r, sim in store.nearest(query)]
        assert [(i, s.hex()) for i, s in got] == [(i, s.hex()) for i, s in want]
        top = store.nearest(query, top=5)
        assert [(r.record_id, s.hex()) for r, s in top[:5]] == \
               [(i, s.hex()) for i, s in want[:5]]


def flushed_norms(store):
    index = store._index
    index.flush()
    return {record.record_id: index.norms[row].hex()
            for row, record in enumerate(index.records) if record is not None}


@pytest.mark.parametrize("dim", DIMS)
def test_cached_norms_have_the_bits_of_linalg_norm(dim):
    rng = np.random.default_rng(100 + dim)
    store = build_store("inverted_vector", embed_dim=dim, params={"mode": "vector"})
    store.insert([MemoryRecord(record_id="", text=f"row {i}", ts=i, session_id="s0",
                               embedding=row)
                  for i, row in enumerate(random_rows(rng, 40, dim))])

    def linalg_norms():
        return {r.record_id: float(np.linalg.norm(r.embedding)).hex()
                for r in store.all_records()}

    assert flushed_norms(store) == linalg_norms()
    store = churned_store(rng, dim)
    assert flushed_norms(store) == linalg_norms()


def best_by_cosine(store, query, exclude=()):
    scored = [(r.record_id, cosine(query, r.embedding)) for r in store.all_records()
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
    store.nearest(rng.normal(size=dim))  # build the matrix before rows are freed
    removed = {}
    for record in store.all_records()[1::2]:
        removed[record.record_id] = record.embedding
        store.remove(record.record_id)
    # the last removal is queued for a rewrite first, so its row is stale too
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
