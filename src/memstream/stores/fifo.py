"""Bounded FIFO queue backend: the forgetting baseline.

Keeps at most ``capacity`` records; inserting past the bound evicts the
oldest (or raises CapacityExceeded when ``overflow="error"``). Retrieval
is a term-frequency scan over whatever still sits in the queue, so
anything evicted is unrecoverable by construction. The scan never reads an
embedding, so the store declares ``reads_vectors = False``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CapacityExceeded
from ..records import Candidate, MemoryRecord, RetrievalSignal
from .base import MemoryStore, int_at_least


class FifoQueueStore(MemoryStore):
    name = "fifo_queue"
    reads_vectors = False

    def __init__(self, capacity: int = 128, overflow: str = "evict", **kwargs):
        super().__init__(**kwargs)
        self.capacity = int_at_least("capacity", capacity)
        if overflow not in ("evict", "error"):
            raise ValueError(f"overflow must be 'evict' or 'error', got {overflow!r}")
        self.overflow = overflow

    def _after_add(self, record: MemoryRecord):
        # the live records, in insertion order, are the queue
        while len(self._records) > self.capacity:
            if self.overflow == "error":
                self.remove(record.record_id)
                raise CapacityExceeded(
                    f"fifo_queue at capacity {self.capacity} with overflow='error'")
            self.remove(next(iter(self._records)))

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        # the postings hold exactly the queued records
        return self._lexical_search(signal, k, now)

    def _index_sizes(self) -> dict[str, int]:
        return {"queue": len(self._records)}
