"""Bounded FIFO queue backend: the forgetting baseline.

Keeps at most ``capacity`` records; inserting past the bound evicts the
oldest (or raises CapacityExceeded when ``overflow="error"``). Retrieval
is a term-frequency scan over whatever still sits in the queue, so
anything evicted is unrecoverable by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import CapacityExceeded
from ..records import Candidate, MemoryRecord, RetrievalSignal
from ..text import index_tokens
from .base import MemoryStore


class FifoQueueStore(MemoryStore):
    name = "fifo_queue"

    def __init__(self, capacity: int = 128, overflow: str = "evict", **kwargs):
        super().__init__(**kwargs)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if overflow not in ("evict", "error"):
            raise ValueError(f"overflow must be 'evict' or 'error', got {overflow!r}")
        self.capacity = capacity
        self.overflow = overflow
        self._queue: deque[str] = deque()

    def _index_keys(self, record: MemoryRecord) -> list[str]:
        return index_tokens(record.text)

    def _after_remove(self, record: MemoryRecord):
        try:
            self._queue.remove(record.record_id)
        except ValueError:
            pass

    def _after_add(self, record: MemoryRecord):
        self._queue.append(record.record_id)
        while len(self._queue) > self.capacity:
            if self.overflow == "error":
                # undo the tentative append before failing
                self._queue.pop()
                self.remove(record.record_id)
                raise CapacityExceeded(
                    f"fifo_queue at capacity {self.capacity} with overflow='error'")
            self.remove(self._queue[0])

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        # the postings hold exactly the queued records
        return self._lexical_search(signal, k, now)

    def _index_sizes(self) -> dict[str, int]:
        return {"queue": len(self._queue)}
