"""The shared lexical index against the full scan it replaced.

fifo_queue, queue_segment and inverted_vector keep one ``LexicalIndex`` and
hand ``lexical_scores`` only the visible records that share a query token.
The reference below keeps the old scan: every visible record, scored from
token counts rebuilt from its current text. A store fed random inserts,
queries, removals, in-place edits and merges must return the same candidate
ids and bit-identical scores as the reference, and its index must always
equal the one rebuilt from scratch.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstream import ingest
from memstream.config import ConsolidateConfig
from memstream.gateway import MockGateway, mock_embed_text
from memstream.records import MemoryRecord, RetrievalSignal
from memstream.stores import base, build_store
from memstream.stores.base import lexical_scores, normalize_ratio, rank_candidates
from memstream.stores.inverted_vector import InvertedVectorStore, fused_candidates
from memstream.text import index_tokens

DIM = 32

# near-duplicate facts (merges under semantic_consolidation), shared and
# repeated words (tf > 1), and a stopword-only text (no index tokens)
TEXTS = (
    "the color of the harbor is red.",
    "the color of the harbor is blue.",
    "the size of the garden is large.",
    "the size of the garden is red red red.",
    "alice lives in paris near the harbor.",
    "bob works at the mill in the garden.",
    "it is what it is.",
)
QUERIES = TEXTS + ("harbor garden", "what color is the harbour?", "nothing matches here")

# name -> build_store keyword arguments; small bounds so fifo_queue evicts
# and queue_segment demotes within a short sequence
CONFIGS = {
    "fifo_queue": dict(params={"capacity": 4}),
    "queue_segment": dict(params={"short_capacity": 3}),
    "inverted_vector/lexical": dict(params={"mode": "lexical"}),
    "inverted_vector/fused": {},
}
CONSOLIDATE = ConsolidateConfig(strategy="semantic_consolidation", dedup_threshold=0.8)


# ----------------------------------------------------------------------
# reference: the full scan the postings replaced
# ----------------------------------------------------------------------

def rebuilt_counts(store):
    return {r.record_id: Counter(index_tokens(r.text)) for r in store.all_records()}


def ref_lexical_scored(store, signal, now):
    return lexical_scores(store.visible_records(now), signal, rebuilt_counts(store))


def ref_search(store, signal, k, now):
    if isinstance(store, InvertedVectorStore) and store.mode == "fused":
        pool = max(k * store.POOL_FACTOR, store.POOL_MIN)
        scored = sorted(ref_lexical_scored(store, signal, now),
                        key=lambda item: (-item[1], item[0].record_id))
        lexical = [record.record_id for record, _ in scored[:pool]]
        vector = store._vector_ranked(signal, now, pool)
        return fused_candidates([lexical, vector], store._records, "fused", store.rrf_k)[:k]
    scored = normalize_ratio(ref_lexical_scored(store, signal, now))
    return rank_candidates(scored, k, source="lexical")


def as_bits(candidates):
    return [(c.record_id, c.score.hex(), c.source) for c in candidates]


def assert_index_rebuilt(store):
    index = store._lexical
    assert index.counts == rebuilt_counts(store)
    postings = {}
    for record_id, counts in index.counts.items():
        for token, tf in counts.items():
            postings.setdefault(token, {})[record_id] = tf
    assert index.postings == postings


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(TEXTS) - 1),
              st.integers(0, 2)),                        # clock advance (0: same ts)
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1),
              st.sampled_from(("now", "past", "unbounded")), st.integers(1, 6),
              st.booleans()),                            # signal carries an embedding
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("edit"), st.integers(0, 50), st.integers(0, len(TEXTS) - 1)),
), min_size=1, max_size=40)


@pytest.mark.parametrize("merge", [False, True], ids=["plain", "merge"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_postings_search_matches_full_scan(config, merge, ops):
    store = build_store(config.split("/")[0], embed_dim=DIM, **CONFIGS[config])
    gateway = MockGateway(dim=DIM)
    cfg = CONSOLIDATE if merge else dataclasses.replace(CONSOLIDATE, strategy="none")
    clock = 10
    for op in ops:
        if op[0] == "insert":
            _, text_i, advance = op
            clock += advance
            text = TEXTS[text_i]
            ids = store.insert([MemoryRecord(record_id="", text=text, ts=clock, session_id="s0",
                                             embedding=mock_embed_text(text, DIM))], now=clock)
            ingest.run_consolidate(store, ids, clock, cfg, gateway, clock)
        elif op[0] == "query":
            _, text_i, when, k, embedded = op
            if config == "queue_segment":
                embedded = False  # an embedded signal takes the vector path
            text = QUERIES[text_i]
            signal = RetrievalSignal(raw_query=text,
                                     embedding=mock_embed_text(text, DIM) if embedded else None)
            now = {"now": clock, "past": clock - 2, "unbounded": None}[when]
            want = ref_search(store, signal, k, now)
            assert as_bits(store.retrieve(signal, k, now=now)) == as_bits(want)
        else:
            live = store.all_records()
            if not live:
                continue
            record = live[op[1] % len(live)]
            if op[0] == "remove":
                store.remove(record.record_id)
            else:
                record.text = TEXTS[op[2]]
                store.reindex(record)
        assert_index_rebuilt(store)


def test_search_scores_only_records_sharing_a_query_token(monkeypatch):
    store = build_store("fifo_queue", params={"capacity": 8})
    for ts, text in enumerate(TEXTS[:6], start=1):
        store.insert([MemoryRecord(record_id="", text=text, ts=ts, session_id="s0")], now=ts)
    scored = []
    original = lexical_scores

    def counted(records, *args):
        records = list(records)
        scored.extend(r.text for r in records)
        return original(records, *args)

    monkeypatch.setattr(base, "lexical_scores", counted)
    got = store.retrieve(RetrievalSignal(raw_query="the mill"), k=3, now=100)
    assert [c.record.text for c in got] == [TEXTS[5]]
    assert scored == [TEXTS[5]]
