"""Hybrid backend: lexical inverted index fused with a flat vector store.

Both signals rank independently; reciprocal-rank fusion
(``base.fused_candidates``) merges them, ties broken by record_id. ``mode``
narrows retrieval to one signal ("lexical" or "vector") which is how the
signal-ablation comparisons are run.
"""

from __future__ import annotations

from typing import Optional

from ..records import Candidate, RetrievalSignal
from .base import DEFAULT_RRF_K, MemoryStore, fused_candidates, int_at_least


class InvertedVectorStore(MemoryStore):
    name = "inverted_vector"

    # how many ids each signal contributes to fusion, relative to k
    POOL_FACTOR = 10
    POOL_MIN = 50

    def __init__(self, rrf_k: int = DEFAULT_RRF_K, mode: str = "fused", **kwargs):
        super().__init__(**kwargs)
        if mode not in ("fused", "lexical", "vector"):
            raise ValueError(f"mode must be fused/lexical/vector, got {mode!r}")
        self.rrf_k = int_at_least("rrf_k", rrf_k, 0)
        self.mode = mode

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        pool = max(k * self.POOL_FACTOR, self.POOL_MIN)
        if self.mode == "lexical":
            return self._lexical_search(signal, k, now)
        if self.mode == "vector":
            if signal.embedding is None:
                return []
            return self._vector_search(signal, k, now)

        # each signal's first ``pool`` ids, in the order its own search ranks them
        lexical = self._lexical_ranking(signal, now)[0][:pool]
        vector = []
        if signal.embedding is not None:
            vector = self._ranked_rows(signal.embedding, now, top=pool)[0][:pool]
        return fused_candidates([lexical, vector], self.get, k, self.rrf_k)

    def _index_sizes(self) -> dict[str, int]:
        return {
            "tokens": len(self._postings.postings),
            "vectors": len(self._index.row_of),  # a row per live embedded record
        }
