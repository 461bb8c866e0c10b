"""Reference helpers the tests score and count against.

Each reads only record, trace and request fields, never a store's indexes,
so a fault in an index or a fast path cannot hide in its own reference.
"""

import zlib
from collections import Counter

import numpy as np

from memstream.records import Candidate
from memstream.stores.inverted_vector import InvertedVectorStore
from memstream.stores.queue_segment import QueueSegmentStore
from memstream.stream import KIND_INSERT
from memstream.text import index_tokens, metric_tokens

DEFAULT_RRF_K = 60


def visible_records(store, now):
    """Live records strictly older than ``now`` (all when None), in insertion order."""
    return [r for r in store.all_records() if now is None or r.ts < now]


def lexical_scores(records, signal, token_counts: dict[str, Counter]):
    """Term-frequency scores over pre-tokenized records; positive scores only."""
    query_tokens = set(index_tokens(signal.lexical_text()))
    if not query_tokens:
        return []
    scored = []
    for record in records:
        counts = token_counts.get(record.record_id)
        if not counts:
            continue
        score = float(sum(counts[t] for t in query_tokens if t in counts))
        if score > 0:
            scored.append((record, score))
    return scored


def ref_cosine(a, b) -> float:
    """Cosine similarity from ``np.linalg.norm``; 0.0 when either vector is zero."""
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0:
        return 0.0
    return float(np.dot(a, b)) / denom


def ranked(scored):
    """``(item, score)`` pairs fully sorted: descending score, then record id."""
    return sorted(scored, key=lambda item: (-item[1], item[0].record_id))


def divided_by_top(scored):
    """Each score divided by the largest one."""
    if not scored:
        return []
    top = max(score for _, score in scored)
    return [(record, score / top) for record, score in scored]


def as_candidates(scored, source):
    return [Candidate(record=record, score=score, source=source) for record, score in scored]


def fuse_scores(rankings, k_rrf=DEFAULT_RRF_K):
    """Reciprocal-rank fusion over any number of ranked id lists.

    score = sum over lists of 1 / (k_rrf + rank), ranks 1-based, added in
    list order. Returns (id, fused_score) sorted by descending score then id.
    """
    if k_rrf < 0:
        raise ValueError(f"k_rrf must be >= 0, got {k_rrf}")
    fused = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (k_rrf + rank)
    return sorted(fused.items(), key=lambda item: (-item[1], item[0]))


def ref_fused(rankings, record_of, source, limit, k_rrf=DEFAULT_RRF_K):
    """The ``limit`` best fused ids as candidates, scores divided by the best one."""
    fused = [(record_of(doc_id), score) for doc_id, score in fuse_scores(rankings, k_rrf)]
    return as_candidates(divided_by_top(fused)[:limit], source)


def ref_lexical_ranked(store, signal, now):
    """Visible records by term frequency from their current text, best first."""
    counts = {r.record_id: Counter(index_tokens(r.text)) for r in store.all_records()}
    return ranked(lexical_scores(visible_records(store, now), signal, counts))


def ref_cosine_ranked(store, signal, now):
    """Visible embedded records by cosine to the signal's embedding, best first."""
    return ranked([(r, ref_cosine(signal.embedding, r.embedding))
                   for r in visible_records(store, now) if r.embedding is not None])


def ref_lexical_search(store, signal, k, now):
    return as_candidates(divided_by_top(ref_lexical_ranked(store, signal, now))[:k], "lexical")


def ref_vector_search(store, signal, k, now):
    folded = [(r, (1.0 + sim) / 2.0) for r, sim in ref_cosine_ranked(store, signal, now)]
    return as_candidates(ranked(folded)[:k], "vector")


def ref_retrieve(store, signal, k, now):
    """What fifo_queue, queue_segment and inverted_vector retrieve, from a full scan."""
    if isinstance(store, InvertedVectorStore):
        if store.mode == "lexical":
            return ref_lexical_search(store, signal, k, now)
        if signal.embedding is None:
            if store.mode == "vector":
                return []
            vector = []
        else:
            if store.mode == "vector":
                return ref_vector_search(store, signal, k, now)
            vector = [r.record_id for r, _ in ref_cosine_ranked(store, signal, now)]
        pool = max(k * store.POOL_FACTOR, store.POOL_MIN)
        lexical = [r.record_id for r, _ in ref_lexical_ranked(store, signal, now)]
        return ref_fused([lexical[:pool], vector[:pool]], store.get, "fused", k, store.rrf_k)
    if isinstance(store, QueueSegmentStore) and signal.embedding is not None:
        return ref_vector_search(store, signal, k, now)
    return ref_lexical_search(store, signal, k, now)  # fifo_queue


def trigram_loop_embed(text, dim):
    """The mock embedding as one +/-1 per trigram of the joined tokens, L2-normalized."""
    joined = " ".join(metric_tokens(text))
    vec = np.zeros(dim, dtype=np.float64)
    if not joined:
        return vec
    grams = [joined] if len(joined) < 3 else [joined[i:i + 3] for i in range(len(joined) - 2)]
    for gram in grams:
        h = zlib.crc32(gram.encode("utf-8"))
        bucket = h % dim
        sign = 1.0 if (h >> 16) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def chat_ns_by_stage(trace) -> dict[str, int]:
    """Chat wall time of one request trace, summed per stage it was billed to."""
    out: dict[str, int] = {}
    for timing in trace.gateway_calls:
        if timing.call_kind == "chat":
            out[timing.stage] = out.get(timing.stage, 0) + timing.wall_ns
    return out


def insert_count(manifest) -> int:
    """Insert requests in a stream manifest."""
    return sum(1 for r in manifest.requests if r.kind == KIND_INSERT)
