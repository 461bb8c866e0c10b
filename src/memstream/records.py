"""Data types shared by stores and lifecycle operators."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional

import numpy as np

# Tier labels. Tierless backends report everything under TIER_FLAT.
TIER_SHORT = "short_term"
TIER_MID = "mid_term"
TIER_LONG = "long_term"
TIER_FLAT = "flat"
TIER_ORDER = (TIER_SHORT, TIER_MID, TIER_LONG)
TIER_NAMES = (*TIER_ORDER, TIER_FLAT)  # every tier a record can carry

KIND_RAW = "raw_turn"
KIND_SUMMARY = "summary"
KIND_TRIPLET = "triplet"


# Timestamps whose ISO strings ``ts_to_iso`` keeps, about 200 bytes each, so
# under 1 MB when full. Bundles cite the same records again and again: one
# cold replay of a perfbench workload hits the memo on 228 of 500 (write
# path) to 2,161 of 2,500 (bounded store) lookups and keeps at most 369.
TS_MEMO_SIZE = 1 << 12

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@functools.lru_cache(maxsize=TS_MEMO_SIZE)
def ts_to_iso(ts_us: int) -> str:
    """Microsecond epoch timestamp -> ISO-8601 UTC string.

    Exact in integer microseconds over the whole of ``[TS_MIN, TS_END)``,
    years 1-9999. Memoized, up to ``TS_MEMO_SIZE`` timestamps: a bundle line
    costs one dict lookup for a record cited before.
    """
    return (EPOCH + timedelta(microseconds=ts_us)).isoformat().replace("+00:00", "Z")


def vector_norm(vec: np.ndarray) -> float:
    """``float(np.linalg.norm(vec))`` for a 1-D float64 ``vec``, bit for bit.

    numpy computes that norm as ``sqrt(vec.dot(vec))``; this skips the
    dispatch around it.
    """
    return math.sqrt(vec.dot(vec))


@dataclass(frozen=True)
class Triplet:
    """A (subject, relation, object) unit; entities are stored lowercase."""

    subject: str
    relation: str
    object: str

    def __post_init__(self):
        for name in ("subject", "relation", "object"):
            value = getattr(self, name)
            if not value or not value.strip():
                raise ValueError(f"triplet {name} must be non-empty")
            object.__setattr__(self, name, value.strip().lower())

    def linearize(self) -> str:
        return f"{self.subject} {self.relation} {self.object}"


@dataclass
class MemoryRecord:
    """One stored unit. Mutable: access stats and tier evolve in place."""

    record_id: str
    text: str
    ts: int  # microseconds since epoch
    session_id: str
    turn_index: int = 0
    speaker: Optional[str] = None
    kind: str = KIND_RAW
    embedding: Optional[np.ndarray] = None
    triplet: Optional[Triplet] = None
    tier: str = TIER_FLAT
    access_count: int = 0
    last_access: int = 0  # microseconds; >= ts always
    strength: float = 604_800.0  # retention time constant, seconds
    links: set = field(default_factory=set)

    def __post_init__(self):
        if self.last_access < self.ts:
            self.last_access = self.ts


@dataclass
class RetrievalSignal:
    """What the query-formulation stage hands to a store.

    At least one of raw_query / keywords / embedding must be present unless
    skip is set (stores raise EmptySignal otherwise).
    """

    raw_query: str = ""
    embedding: Optional[np.ndarray] = None
    keywords: tuple[str, ...] = ()
    skip: bool = False

    def lexical_text(self) -> str:
        """Text used for lexical matching: keywords replace the raw query."""
        if self.keywords:
            return " ".join(self.keywords)
        return self.raw_query

    def is_empty(self) -> bool:
        has_text = bool(self.raw_query.strip()) if self.raw_query else False
        return not has_text and not self.keywords and self.embedding is None


@dataclass
class Candidate:
    """One retrieval hit: record reference plus a score normalized to [0, 1]."""

    record: MemoryRecord
    score: float

    @property
    def record_id(self) -> str:
        return self.record.record_id


@dataclass
class StoreStats:
    backend: str
    record_count: int
    tier_counts: dict[str, int]
    evicted_total: int
    index_sizes: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "record_count": self.record_count,
            "tier_counts": dict(sorted(self.tier_counts.items())),
            "evicted_total": self.evicted_total,
            "index_sizes": dict(sorted(self.index_sizes.items())),
        }


@dataclass
class ContextBundle:
    """What the integration stage hands to answer generation."""

    text: str
    provenance: tuple[tuple[str, float, int], ...]  # (record_id, score, record_ts)
    token_estimate: int
