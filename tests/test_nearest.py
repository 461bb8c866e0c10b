"""The shared embedding index against a per-record reference scan.

Every backend's vector search and the three neighbour-scanning consolidation
policies go through ``MemoryStore.nearest``. The reference implementations
below keep the per-record cosine loop each of them replaced; two stores fed
the same operations, one per implementation, must return the same candidate
ids and bit-identical scores and log the same consolidation actions. The
lexical parts of the references score every visible record from its
current text, so a fault in the postings or in ``_lexical_ranked`` shows. A
second property checks that the index rows, with their cached norms, always
mirror the live embedded records.
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
from memstream.records import MemoryRecord, RetrievalSignal, Triplet
from memstream.stores import BACKENDS, build_store
from memstream.stores.base import (
    cosine,
    fold_cosine,
    lexical_scores,
    normalize_ratio,
    rank_candidates,
)
from memstream.stores.inverted_vector import InvertedVectorStore, fuse_scores
from memstream.stores.lsh import LshStore, lsh_signature
from memstream.stores.property_graph import PropertyGraphStore, entity_keys
from memstream.stores.queue_segment import QueueSegmentStore
from memstream.stores.summary_vector import SummaryVectorStore
from memstream.text import index_tokens
from memstream.workloads import SyntheticSpec, synth_workload

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
        for rec in store.visible_records(now)
        if rec.embedding is not None
    ]


def ref_lexical_scored(store, signal, now):
    """Term-frequency scores of every visible record, from its current text."""
    counts = {rec.record_id: Counter(index_tokens(rec.text)) for rec in store.all_records()}
    return lexical_scores(store.visible_records(now), signal, counts)


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
                      for rec in store.visible_records(now) if rec.embedding is not None]
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
                  for record in store.visible_records(now)
                  if any(lsh_signature(record.embedding, planes) == sig
                         for planes, sig in zip(store._planes, query_sigs))]
        return rank_candidates(scored, k, source="vector")
    if isinstance(store, PropertyGraphStore):
        query_entities = set(index_tokens(signal.lexical_text()))
        scored = []
        for record in store.visible_records(now):
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
    if kind == "triplet":
        return TRIPLETS[text_i % len(TRIPLETS)]  # coerced without an embedding
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
            ids = [s.insert([make_record(op, clock, turn, lsh)], now=clock) for s in stores]
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
        store.insert(units, now=1)
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
    for row in np.flatnonzero(index.live[:len(index.records)]):
        record = index.records[row]
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
                                       session_id=f"s{op[1] % 2}", embedding=embedding)],
                         now=clock)
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
