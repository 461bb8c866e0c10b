"""Tiered backend: bounded short-term FIFO plus per-session mid-term segments.

New records enter the short-term tier. When the short-term queue exceeds its
bound, the oldest record overflows into the mid-term tier, where records
stay grouped by session (the segment structure is simply the tier label
plus session_id). Retrieval scans the union of all tiers: cosine scoring
when both the signal and a record carry embeddings, term-frequency
otherwise. Tier migration preserves records — nothing is evicted here.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import UnsupportedBackend
from ..records import (
    Candidate,
    MemoryRecord,
    RetrievalSignal,
    TIER_MID,
    TIER_ORDER,
    TIER_SHORT,
)
from .base import MemoryStore, int_at_least


class QueueSegmentStore(MemoryStore):
    name = "queue_segment"
    supports_tiers = True

    def __init__(self, short_capacity: int = 32, **kwargs):
        super().__init__(**kwargs)
        self.short_capacity = int_at_least("short_capacity", short_capacity)
        self._short: deque[str] = deque()

    def _default_tier(self) -> str:
        return TIER_SHORT

    def _after_remove(self, record: MemoryRecord):
        try:
            self._short.remove(record.record_id)
        except ValueError:
            pass

    def _after_add(self, record: MemoryRecord):
        self._enter_short(record.record_id)

    def _enter_short(self, record_id: str):
        """Queue a short-term record, overflowing the oldest into mid-term past the bound."""
        self._short.append(record_id)
        while len(self._short) > self.short_capacity:
            demoted = self._short.popleft()
            self._records[demoted].tier = TIER_MID
            self._note(demoted)

    def migrate(self, record_id: str, to_tier: str):
        """Move a record between tiers without losing it.

        Promoting into the bounded short-term tier may push its oldest
        member down to mid-term so the bound holds; record count is
        preserved either way.
        """
        if to_tier not in TIER_ORDER:
            raise UnsupportedBackend(f"unknown tier {to_tier!r}")
        record = self.get(record_id)
        if record.tier == to_tier:
            return
        if record.tier == TIER_SHORT:
            try:
                self._short.remove(record_id)
            except ValueError:
                pass
        record.tier = to_tier
        self._note(record_id)
        if to_tier == TIER_SHORT:
            self._enter_short(record_id)

    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        if signal.embedding is not None:
            return self._vector_search(signal, k, now)
        return self._lexical_search(signal, k, now)

    def _index_sizes(self) -> dict[str, int]:
        segments = len({(r.session_id) for r in self.all_records() if r.tier == TIER_MID})
        return {"short_queue": len(self._short), "mid_segments": segments}
