"""Hybrid backend: lexical inverted index fused with a flat vector store.

Both signals rank independently; reciprocal-rank fusion merges them
(score = sum over lists of 1 / (k_rrf + rank), ranks 1-based), ties broken
by record_id. ``mode`` narrows retrieval to one signal ("lexical" or
"vector") which is how the signal-ablation comparisons are run.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Optional

from ..records import Candidate, MemoryRecord, RetrievalSignal
from ..text import index_tokens
from .base import (
    MemoryStore,
    lexical_scores,
    normalize_ratio,
    rank_candidates,
)

DEFAULT_RRF_K = 60


def fuse_scores(rankings: Iterable[list[str]], k_rrf: int = DEFAULT_RRF_K) -> list[tuple[str, float]]:
    """Reciprocal-rank fusion over any number of ranked id lists.

    Returns (id, fused_score) sorted by descending score then id. A document
    at rank 1 in two lists scores 2/(k_rrf+1).
    """
    if k_rrf < 0:
        raise ValueError(f"k_rrf must be >= 0, got {k_rrf}")
    fused: dict[str, float] = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (k_rrf + rank)
    return sorted(fused.items(), key=lambda item: (-item[1], item[0]))


def fused_candidates(rankings: Iterable[list[str]], records: Mapping[str, MemoryRecord],
                     source: str, k_rrf: int = DEFAULT_RRF_K) -> list[Candidate]:
    """RRF-fuse ranked id lists into candidates, best first.

    ``records`` maps every ranked id to its record; scores are the fused
    scores divided by the best one.
    """
    scored = [(records[rec_id], score) for rec_id, score in fuse_scores(rankings, k_rrf)]
    return [Candidate(record=rec, score=score, source=source)
            for rec, score in normalize_ratio(scored)]


class InvertedVectorStore(MemoryStore):
    name = "inverted_vector"

    # how many ids each signal contributes to fusion, relative to k
    POOL_FACTOR = 10
    POOL_MIN = 50

    def __init__(self, rrf_k: int = DEFAULT_RRF_K, mode: str = "fused", **kwargs):
        super().__init__(**kwargs)
        if mode not in ("fused", "lexical", "vector"):
            raise ValueError(f"mode must be fused/lexical/vector, got {mode!r}")
        self.rrf_k = rrf_k
        self.mode = mode
        self._postings: dict[str, dict[str, int]] = {}
        self._tokens: dict[str, Counter] = {}

    def _add_indexes(self, record: MemoryRecord):
        counts = Counter(index_tokens(record.text))
        self._tokens[record.record_id] = counts
        for token, tf in counts.items():
            self._postings.setdefault(token, {})[record.record_id] = tf

    def _forget_indexes(self, record: MemoryRecord):
        counts = self._tokens.pop(record.record_id, None)
        if not counts:
            return
        for token in counts:
            bucket = self._postings.get(token)
            if bucket is not None:
                bucket.pop(record.record_id, None)
                if not bucket:
                    del self._postings[token]

    def _lexical_ranked(self, signal: RetrievalSignal, now: Optional[int],
                        pool: int) -> list[str]:
        query_tokens = set(index_tokens(signal.lexical_text()))
        if not query_tokens:
            return []
        scores: dict[str, float] = {}
        for token in query_tokens:
            for rec_id, tf in self._postings.get(token, {}).items():
                if self._is_visible(self._records[rec_id], now):
                    scores[rec_id] = scores.get(rec_id, 0.0) + tf
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [rec_id for rec_id, _ in ranked[:pool]]

    def _vector_ranked(self, signal: RetrievalSignal, now: Optional[int],
                       pool: int) -> list[str]:
        if signal.embedding is None:
            return []
        scored = self.nearest(signal.embedding, now, top=pool)
        return [record.record_id for record, _ in scored[:pool]]

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        pool = max(k * self.POOL_FACTOR, self.POOL_MIN)
        if self.mode == "lexical":
            visible = self.visible_records(now)
            scored = normalize_ratio(lexical_scores(visible, signal, self._tokens))
            return rank_candidates(scored, k, source="lexical")
        if self.mode == "vector":
            if signal.embedding is None:
                return []
            return self._vector_search(signal, k, now)

        lexical = self._lexical_ranked(signal, now, pool)
        vector = self._vector_ranked(signal, now, pool)
        return fused_candidates([lexical, vector], self._records, "fused", self.rrf_k)[:k]

    def _index_sizes(self) -> dict[str, int]:
        return {
            "tokens": len(self._postings),
            "vectors": sum(1 for r in self.all_records() if r.embedding is not None),
        }
