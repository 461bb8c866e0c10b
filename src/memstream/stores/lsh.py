"""Random-hyperplane LSH backend with exact cosine rescoring.

Each of T tables hashes an embedding to an H-bit signature (one bit per
hyperplane: 1 iff the projection is >= 0). Retrieval unions the query's
bucket across tables and rescores the collected candidates with exact
cosine, so result ordering is exact within whatever the buckets recall.
Hyperplanes are drawn once, at build, from the store seed for the store's
``embed_dim``; same seed, same buckets.
A record without an embedding (its embed call failed open) is kept under no
bucket, so no vector probe reaches it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..records import Candidate, MemoryRecord, RetrievalSignal
from .base import MemoryStore, int_at_least


def lsh_signature(vector: np.ndarray, planes: np.ndarray) -> int:
    """Pack sign bits of ``planes @ vector`` into an int, MSB = first plane."""
    projections = planes @ vector
    signature = 0
    for value in projections:
        signature = (signature << 1) | (1 if value >= 0 else 0)
    return signature


class LshStore(MemoryStore):
    name = "lsh_hash"

    def __init__(self, bits: int = 16, tables: int = 8, seed: int = 0, **kwargs):
        super().__init__(**kwargs)
        if self.embed_dim is None:
            raise ValueError("lsh_hash draws its hyperplanes at build and needs embed_dim")
        self.bits = int_at_least("bits", bits)
        self.tables = int_at_least("tables", tables)
        rng = np.random.default_rng(seed)
        self._planes = [rng.standard_normal((bits, self.embed_dim)) for _ in range(tables)]

    def _bucket_keys(self, vector: np.ndarray) -> list[tuple[int, int]]:
        """One (table, signature) pair per table."""
        return [(t, lsh_signature(vector, planes)) for t, planes in enumerate(self._planes)]

    def _index_keys(self, record: MemoryRecord) -> list[tuple[int, int]]:
        if record.embedding is None:
            return []
        return self._bucket_keys(record.embedding)

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        if signal.embedding is None:
            # No embedding, no buckets to probe; deterministic empty result.
            return []
        candidate_ids = self._postings.matching(self._bucket_keys(signal.embedding))
        return self._vector_search(signal, k, now, rows=candidate_ids)

    def _index_sizes(self) -> dict[str, int]:
        return {"tables": self.tables, "buckets": len(self._postings.postings)}
