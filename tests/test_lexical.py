"""The shared postings index against the scans and hand-kept indexes it replaced.

``MemoryStore`` keeps one ``Postings`` index for every backend, fed by each
backend's ``_index_keys``. fifo_queue, queue_segment and inverted_vector
sum each record's lexical score from the postings of the query's tokens, so
only the records that share a query token are looked up. The reference
(``reference.ref_retrieve``) keeps the old scan: every visible record,
scored from token counts rebuilt from its current text or by its cosine,
then a plain full sort, 1-based reciprocal-rank fusion and division by the
top score. A store fed random inserts, queries, removals, in-place edits and
merges must return the same candidate ids and bit-identical scores as the
reference, and so must fused retrieves and multi_query and decompose fusion
over ties and edge cases. On all six backends, under random operations and
consolidation, the index must always equal the one rebuilt from each live
record's keys, recomputed from scratch.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memstream import ingest
from memstream.config import ConsolidateConfig, IntegrateConfig, config_from_dict
from memstream.gateway import MockGateway, mock_embed_text
from memstream.orchestrator import run_experiment
from memstream.records import KIND_RAW, KIND_SUMMARY, MemoryRecord, RetrievalSignal, Triplet
from memstream.retrieve import execute_search, integrate_multi_query
from memstream.stores import BACKENDS, build_store
from memstream.stores.lsh import LshStore, lsh_signature
from memstream.stores.property_graph import PropertyGraphStore, entity_keys
from memstream.stores.summary_vector import SummaryVectorStore
from memstream.text import index_tokens
from memstream.workloads import SyntheticSpec, synth_workload
from reference import as_bits, ref_fused, ref_lexical_search, ref_retrieve

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
# the last query repeats its tokens, and its first token's posting is the smaller
QUERIES = TEXTS + ("harbor garden", "what color is the harbour?", "nothing matches here",
                   "the mill, the harbor, the mill")

# name -> build_store keyword arguments; small bounds so fifo_queue evicts
# and queue_segment demotes within a short sequence
CONFIGS = {
    "fifo_queue": dict(params={"capacity": 4}),
    "queue_segment": dict(params={"short_capacity": 3}),
    "inverted_vector/lexical": dict(params={"mode": "lexical"}),
    "inverted_vector/fused": {},
}
CONSOLIDATE = ConsolidateConfig(strategy="semantic_consolidation", dedup_threshold=0.8)


def reference_keys(store, record):
    """A record's postings keys, recomputed from scratch."""
    if isinstance(store, LshStore):
        return [(t, lsh_signature(record.embedding, planes))
                for t, planes in enumerate(store._planes)]
    if isinstance(store, PropertyGraphStore):
        return entity_keys(record)
    if isinstance(store, SummaryVectorStore):
        return ()
    return index_tokens(record.text)


def assert_index_rebuilt(store):
    index = store._postings
    rebuilt = {r.record_id: Counter(reference_keys(store, r)) for r in store.all_records()}
    # a record without keys has no entry
    assert index.counts == {record_id: counts for record_id, counts in rebuilt.items() if counts}
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
# "mill" is in one record, "harbor" in three: the small posting comes first,
# and "mill" twice, so the totals start from the larger posting and count
# each posting once
@example(ops=[("insert", 0, 1), ("insert", 5, 1), ("insert", 1, 1), ("insert", 4, 1),
              ("query", len(QUERIES) - 1, "unbounded", 6, False),
              ("query", len(QUERIES) - 1, "now", 2, True),
              ("query", len(QUERIES) - 1, "past", 6, True)])
def test_postings_search_matches_full_scan(config, merge, ops):
    store = build_store(config.split("/")[0], embed_dim=DIM, **CONFIGS[config])
    gateway = MockGateway(dim=DIM)
    cfg = CONSOLIDATE if merge else dataclasses.replace(CONSOLIDATE, strategy="none")
    policy = ingest.build_policy(store, cfg, gateway)
    clock = 10
    for op in ops:
        if op[0] == "insert":
            _, text_i, advance = op
            clock += advance
            text = TEXTS[text_i]
            ids = store.insert([MemoryRecord(record_id="", text=text, ts=clock, session_id="s0",
                                             embedding=mock_embed_text(text, DIM))])
            ingest.run_consolidate(policy, ids, clock, clock)
        elif op[0] == "query":
            _, text_i, when, k, embedded = op
            text = QUERIES[text_i]
            signal = RetrievalSignal(raw_query=text,
                                     embedding=mock_embed_text(text, DIM) if embedded else None)
            now = {"now": clock, "past": clock - 2, "unbounded": None}[when]
            want = ref_retrieve(store, signal, k, now)
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


# ----------------------------------------------------------------------
# ties and edges: equal totals, equal cosines, now=None, k past the matches
# ----------------------------------------------------------------------

# each text twice over: repeated texts tie on their lexical totals and their
# identical embeddings tie on cosine
TIE_TEXTS = ("the harbor is red.", "the harbor is red red.", "the garden is red.",
             "red harbor and red garden.", "it is what it is.") * 2
TIE_QUERIES = ("harbor red", "the garden is red.", "red", "nothing matches here",
               "the harbor and the garden")
TIE_CONFIGS = {
    "fifo_queue": dict(params={"capacity": 16}),
    "queue_segment": dict(params={"short_capacity": 3}),
    "inverted_vector/lexical": dict(params={"mode": "lexical"}),
    "inverted_vector/vector": dict(params={"mode": "vector"}),
    "inverted_vector/fused": {},
}


def tie_store(config):
    store = build_store(config.split("/")[0], embed_dim=DIM, **TIE_CONFIGS[config])
    store.insert([MemoryRecord(record_id="", text=text, ts=ts, session_id="s0",
                               embedding=mock_embed_text(text, DIM))
                  for ts, text in enumerate(TIE_TEXTS, start=1)])
    return store


def tie_signal(text, embedded=True):
    return RetrievalSignal(raw_query=text, embedding=mock_embed_text(text, DIM) if embedded
                           else None)


@pytest.mark.parametrize("config", sorted(TIE_CONFIGS))
def test_ties_and_edges_match_the_reference(config):
    store = tie_store(config)
    for text in TIE_QUERIES:
        for embedded in (False, True):
            signal = tie_signal(text, embedded)
            for now in (None, 1, 4, 7, 100):
                for k in (1, 2, 3, 50):  # 50: more than every match
                    want = ref_retrieve(store, signal, k, now)
                    assert as_bits(store.retrieve(signal, k, now=now)) == as_bits(want)
                    assert as_bits(store._lexical_search(signal, k, now)) == as_bits(
                        ref_lexical_search(store, signal, k, now))


@pytest.mark.parametrize("config", sorted(TIE_CONFIGS))
def test_multi_query_and_decompose_fusion_match_the_reference(config):
    store = tie_store(config)
    gateway = MockGateway(dim=DIM)
    for text in TIE_QUERIES:
        for now in (None, 4, 100):
            for k in (1, 3, 50):
                cands = store.retrieve(tie_signal(text), k, now=now)
                got, flags = integrate_multi_query(text, cands, store, gateway,
                                                   IntegrateConfig(multi_query_count=3), k, now)
                rankings = [[c.record_id for c in cands]]
                for index in range(3):
                    paraphrase = gateway.chat(
                        "paraphrase", {"query": text, "index": index}).strip()
                    rankings.append([c.record_id for c in ref_retrieve(
                        store, tie_signal(paraphrase), k, now)])
                want = ref_fused(rankings, store.get, max(k, len(cands)))
                assert not flags and as_bits(got) == as_bits(want)

                subs = tuple(tie_signal(part) for part in text.split(" and "))
                if len(subs) < 2:
                    subs = (tie_signal(text), tie_signal("red"))
                got = execute_search(store, subs, k, now)
                per_sub = -(-k // len(subs))
                rankings = [[c.record_id for c in ref_retrieve(store, sub, per_sub, now)]
                            for sub in subs]
                assert as_bits(got) == as_bits(ref_fused(rankings, store.get, k))


class LookupLog(dict):
    """A store's record table that logs the ids each read reaches; a scan reaches all."""

    def __init__(self, records):
        super().__init__(records)
        self.looked_up = []

    def __getitem__(self, record_id):
        self.looked_up.append(record_id)
        return super().__getitem__(record_id)

    def get(self, record_id, default=None):
        self.looked_up.append(record_id)
        return super().get(record_id, default)

    def __iter__(self):
        self.looked_up.extend(super().__iter__())
        return super().__iter__()

    def values(self):
        self.looked_up.extend(super().__iter__())
        return super().values()

    def items(self):
        self.looked_up.extend(super().__iter__())
        return super().items()


def test_search_scores_only_records_sharing_a_query_token():
    store = build_store("fifo_queue", params={"capacity": 8})
    ids = [store.insert([MemoryRecord(record_id="", text=text, ts=ts, session_id="s0")])[0]
           for ts, text in enumerate(TEXTS[:6], start=1)]
    store._records = log = LookupLog(store._records)
    got = store.retrieve(RetrievalSignal(raw_query="the mill"), k=3, now=100)
    assert [c.record.text for c in got] == [TEXTS[5]]
    assert set(log.looked_up) == {ids[5]}


# ----------------------------------------------------------------------
# every backend: the postings equal the keys rebuilt from the live records
# ----------------------------------------------------------------------

# triplet records carry the entities property_graph keys on
TRIPLETS = (Triplet("alice", "lives in", "paris"), Triplet("harbor", "has color", "red"))
SECOND_US = 1_000_000
# unsupported strategies raise UnsupportedBackend, so each runs where it applies
KEY_CASES = [(name, strategy) for name in sorted(BACKENDS)
             for strategy in ("none", "semantic_consolidation", "forgetting_curve",
                              "link_evolution", "heat_migration")
             if (strategy != "link_evolution" or BACKENDS[name].supports_links)
             and (strategy != "heat_migration" or BACKENDS[name].supports_tiers)]
KEY_PARAMS = {"fifo_queue": {"capacity": 4}, "queue_segment": {"short_capacity": 3},
              "lsh_hash": {"bits": 4, "tables": 3}, "summary_vector": {"summary_max_sentences": 2}}

KEY_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(TEXTS) + len(TRIPLETS) - 1),
              st.sampled_from((KIND_RAW, KIND_SUMMARY)),  # enrich adds a summary per turn
              st.booleans(),                              # carries an embedding
              st.integers(0, 1),                          # session
              st.integers(0, 2)),                         # clock advance in seconds
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("edit"), st.integers(0, 50), st.integers(0, len(TEXTS) - 1)),
), min_size=1, max_size=30)


def key_record(op, ts, turn, lsh):
    _, text_i, kind, embedded, session, _ = op
    triplet = TRIPLETS[text_i - len(TEXTS)] if text_i >= len(TEXTS) else None
    text = triplet.linearize() if triplet else TEXTS[text_i]
    return MemoryRecord(record_id="", text=text, ts=ts, session_id=f"s{session}",
                        turn_index=turn, kind=kind, triplet=triplet, strength=3.0,
                        embedding=mock_embed_text(text, DIM) if embedded or lsh else None)


@pytest.mark.parametrize("name,strategy", KEY_CASES)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=KEY_OPS)
def test_postings_equal_keys_rebuilt_on_every_backend(name, strategy, ops):
    store = build_store(name, embed_dim=DIM, params=KEY_PARAMS.get(name))
    gateway = MockGateway(dim=DIM)
    # records unread for about two seconds fall below the retention threshold
    cfg = dataclasses.replace(CONSOLIDATE, strategy=strategy, retention_threshold=0.5)
    policy = ingest.build_policy(store, cfg, gateway)
    lsh = name == "lsh_hash"
    clock, turn = 10 * SECOND_US, 0
    for op in ops:
        if op[0] == "insert":
            clock += op[5] * SECOND_US
            turn += 1
            ids = store.insert([key_record(op, clock, turn, lsh)])
            ingest.run_consolidate(policy, ids, clock, turn)
        elif op[0] == "query":
            text = QUERIES[op[1]]
            store.retrieve(RetrievalSignal(raw_query=text, embedding=mock_embed_text(text, DIM)),
                           k=3, now=clock)
        else:
            live = store.all_records()
            if not live:
                continue
            record = live[op[1] % len(live)]
            if op[0] == "remove":
                store.remove(record.record_id)
            else:
                record.text = TEXTS[op[2]]
                record.embedding = mock_embed_text(record.text, DIM)
                store.reindex(record)
        assert_index_rebuilt(store)


def test_enrich_summaries_forgotten_on_summary_vector_keep_session_summaries():
    # enrich inserts summary records of its own beside summary_vector's
    # session summaries; forgetting one must leave the session mapping intact
    manifest, _key = synth_workload(SyntheticSpec(seed=11, n_facts=40, rounds=2,
                                                  queries_per_round=3, n_sessions=2))
    cfg = config_from_dict({
        "store": {"backend": "summary_vector"},
        "operators": {"normalize": {"strategy": "enrich"},
                      "consolidate": {"strategy": "forgetting_curve",
                                      "retention_threshold": 0.5,
                                      "initial_strength_s": 20.0}},
        "checkpoint": {"fraction": 0.5},
        "gateway": {"kind": "mock", "embed_dim": DIM},
    })
    result = run_experiment(cfg, manifest, MockGateway(dim=DIM))
    assert result.status == "complete", result.error
    assert any(" EVICT " in line for line in result.action_log)
