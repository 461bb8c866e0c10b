"""Store contract and mechanics shared by every backend.

All backends guarantee, via this base class:

* ``insert(records)`` takes ``MemoryRecord``s only, without ids, and
  assigns deterministic record ids ("m000001", ...) in insertion order;
* a strictly-earlier visibility rule — retrieval at time ``now`` never
  returns a record with ``record.ts >= now`` (causality is enforced here
  again, independently of the protocol's request ordering);
* candidate ordering by descending score with record_id as the tie-break
  (``rank_candidates``);
* scores normalized to [0, 1] (cosine folded via (1+cos)/2, ratio-style
  scores divided by the list maximum by ``normalize_ratio``, reciprocal-rank
  fusion scores by the best one in ``fused_candidates``);
* access bookkeeping on hits: access_count += 1, last_access = now, and the
  retention strength multiplied by ``strength_gain`` (a run sets it to
  ``operators.consolidate.strength_gain``);
* removal that takes the record out of the store and every index, then
  calls ``_after_remove`` so a backend can drop it from its own queues; a
  removed record is unknown from then on, and the store holds no reference
  to it;
* one shared embedding index behind every nearest-neighbour scan;
* one postings index behind every keyed lookup: lexical search, graph
  entities and LSH buckets.

The embedding index holds one float64 row per live embedded record, with the
record's visibility ``ts`` and norm beside it. A freed row's ts is
``FREE_TS`` (the int64 maximum), which no ``now`` reaches, so the one test
``ts < now`` keeps exactly the live, visible rows; freed rows are reused.
Upkeep is deferred: ``insert`` and ``reindex`` only queue the record and
``remove`` frees its row, and each queued row is written in place at the
next ``nearest`` call (its embedding, ts and norm), so a store that never
runs a vector scan never builds the matrix. The cached norm is
``vector_norm`` of the written row, the bits of the ``np.linalg.norm`` call
``cosine`` makes. ``nearest`` screens every row with one matrix-vector
product divided by the query norm times the cached norms (0 where that is
0, as in ``cosine``). The visibility test, ``exclude``, ``rows`` and the
``floor`` (less ``SCREEN_MARGIN``) make one mask, and of the rows it keeps,
those within ``SCREEN_MARGIN`` of the ``top``-th screened score survive. All
survivors are then rescored in one batch: a stacked ``np.matmul`` of each
survivor row (1 x d) with the query (d x 1), divided by the same
denominator. numpy computes each of those 1 x d by d x 1 products with the
dot loop ``np.dot`` uses, so every rescored score has the bits ``cosine``
gives for that pair. Survivors are sorted by descending score with record_id
as the tie-break. A matrix-vector product may differ from the per-pair dot
product in the last ulp, so the screen alone would flip near-ties; the
rescore keeps every score and order exactly those of a per-record scan.

``Postings`` holds each record's key ``Counter`` plus postings
(key -> {record_id: count}). What a key is belongs to the backend:
``_index_keys(record)`` returns the index tokens of the text by default
(fifo_queue, queue_segment, inverted_vector); property_graph keys the
triplet's entity tokens, lsh_hash one ``(table, signature)`` pair per LSH
table, and summary_vector nothing. The base keeps the postings current
eagerly in ``insert``, ``reindex`` and ``remove``, so a record is keyed once
per write, never per query. ``MemoryStore._keyed_scores`` sums the scores
from the postings: for each distinct index token of the query it adds the
counts in that token's postings to a running total per record, then keeps
the visible records. That is each record's term-frequency sum over the
query's distinct tokens, and only records sharing a token get a total; the
others would score 0 and be dropped anyway. Every consumer sorts on
(-score, record_id), so lexical search returns what a scan over every
record would. property_graph's entity keys are a set, so each count is 1
and a record's score is the number of distinct query entities it mentions.

Insert returns the new record ids and retrieve the candidates; neither times
itself, because the orchestrator times every stage at its own boundaries.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from typing import Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from ..errors import DimensionMismatch, EmptySignal, StoreError, UnknownRecord, UnsupportedBackend
from ..records import (
    KIND_RAW,
    Candidate,
    MemoryRecord,
    RetrievalSignal,
    StoreStats,
    TIER_FLAT,
)
from ..text import index_tokens

DEFAULT_RRF_K = 60


def cosine(a: np.ndarray, b: np.ndarray, norm_a: Optional[float] = None,
           norm_b: Optional[float] = None) -> float:
    """Cosine similarity; 0.0 when either vector is zero.

    ``norm_a`` and ``norm_b`` take norms already computed as
    ``float(np.linalg.norm(v))``; a norm not passed is computed that way here,
    so the result is the same bits either way.
    """
    if norm_a is None:
        norm_a = float(np.linalg.norm(a))
    if norm_b is None:
        norm_b = float(np.linalg.norm(b))
    denom = norm_a * norm_b
    if denom == 0:
        return 0.0
    return float(np.dot(a, b)) / denom


def fold_cosine(value: float) -> float:
    """Map cosine from [-1, 1] onto [0, 1]."""
    return (1.0 + value) / 2.0


def normalize_ratio(scored: list[tuple[MemoryRecord, float]]) -> list[tuple[MemoryRecord, float]]:
    """Divide positive raw scores by the list maximum."""
    if not scored:
        return scored
    top = max(score for _, score in scored)
    if top <= 0:
        return []
    return [(rec, score / top) for rec, score in scored]


def rank_candidates(scored: Iterable[tuple[MemoryRecord, float]], k: int,
                    source: str) -> list[Candidate]:
    ordered = sorted(scored, key=lambda item: (-item[1], item[0].record_id))
    return [Candidate(record=rec, score=score, source=source) for rec, score in ordered[:k]]


def fuse_scores(rankings: Iterable[list[str]], k_rrf: int = DEFAULT_RRF_K) -> list[tuple[str, float]]:
    """Reciprocal-rank fusion over any number of ranked id lists.

    score = sum over lists of 1 / (k_rrf + rank), ranks 1-based. Returns
    (id, fused_score) sorted by descending score then id. A document at rank 1
    in two lists scores 2/(k_rrf+1).
    """
    if k_rrf < 0:
        raise ValueError(f"k_rrf must be >= 0, got {k_rrf}")
    fused: dict[str, float] = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (k_rrf + rank)
    return sorted(fused.items(), key=lambda item: (-item[1], item[0]))


def fused_candidates(rankings: Iterable[list[str]], record_of: Callable[[str], MemoryRecord],
                     source: str, limit: int, k_rrf: int = DEFAULT_RRF_K) -> list[Candidate]:
    """RRF-fuse ranked id lists into the ``limit`` best candidates, best first.

    ``record_of`` looks up a ranked id's record (``MemoryStore.get``); scores
    are the fused scores divided by the best one. Only the first ``limit``
    fused ids become candidates.
    """
    fused = fuse_scores(rankings, k_rrf)
    if not fused:
        return []
    top = fused[0][1]  # fuse_scores sorts by descending score
    return [Candidate(record=record_of(rec_id), score=score / top, source=source)
            for rec_id, score in fused[:limit]]


# Screened scores within this distance of a cut are rescored exactly; a
# matrix product strays from the per-pair cosine by a few ulps at most.
SCREEN_MARGIN = 1e-9

# the ts of a free row: no ``now`` reaches it, so ``ts < now`` drops the row
FREE_TS = np.iinfo(np.int64).max


def vector_norm(vec: np.ndarray) -> float:
    """``float(np.linalg.norm(vec))`` for a 1-D float64 ``vec``, bit for bit.

    numpy computes that norm as ``sqrt(vec.dot(vec))``; this skips the
    dispatch around it.
    """
    return math.sqrt(vec.dot(vec))


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """Copy of ``array`` with its first axis zero-padded to ``capacity``."""
    out = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
    out[:len(array)] = array
    return out


class EmbeddingIndex:
    """Row-per-record embedding matrix with deferred upkeep (see module docstring)."""

    def __init__(self):
        self.matrix: Optional[np.ndarray] = None  # (capacity, dim), built on first flush
        self.ts = np.zeros(0, dtype=np.int64)  # FREE_TS on a free row
        self.norms = np.zeros(0)
        self.records: list[Optional[MemoryRecord]] = []  # row -> record, None when free
        self.row_of: dict[str, int] = {}
        self._free: list[int] = []
        self._pending: dict[str, MemoryRecord] = {}

    def queue(self, record: MemoryRecord):
        """Mark a record's row stale; it is rewritten at the next flush."""
        self._pending[record.record_id] = record

    def drop(self, record_id: str):
        self._pending.pop(record_id, None)
        row = self.row_of.pop(record_id, None)
        if row is not None:
            self.ts[row] = FREE_TS
            self.records[row] = None
            self._free.append(row)

    def flush(self):
        """Write each queued record's embedding, ts and norm into its row."""
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        for record_id, record in pending.items():
            if record.embedding is None:
                self.drop(record_id)
                continue
            row = self.row_of.get(record_id)
            if row is None:
                row = self._allocate(record.embedding.shape[0])
                self.row_of[record_id] = row
            self.records[row] = record
            self.matrix[row] = record.embedding
            self.ts[row] = record.ts
            self.norms[row] = vector_norm(self.matrix[row])

    def _allocate(self, dim: int) -> int:
        if self._free:
            return self._free.pop()
        if self.matrix is None:
            self.matrix = np.zeros((0, dim))
        row = len(self.records)
        if row == self.matrix.shape[0]:
            capacity = max(64, 2 * row)
            self.matrix, self.ts, self.norms = (
                _grown(a, capacity) for a in (self.matrix, self.ts, self.norms))
        self.records.append(None)
        return row

    def screen(self, query: np.ndarray, query_norm: float, now: Optional[int],
               exclude: Iterable[str], top: Optional[int], floor: Optional[float],
               rows: Optional[Iterable[str]], bonus: Optional[dict[str, float]]) -> list[int]:
        """Rows of the visible records whose screened score may reach the exact top or floor."""
        self.flush()
        n = len(self.records)
        if n == 0:
            return []
        # live and visible in one test; clamped to FREE_TS, no now passes a free row
        mask = np.less(self.ts[:n], FREE_TS if now is None else min(now, FREE_TS))
        if rows is not None:
            chosen = np.zeros(n, dtype=bool)
            chosen[[self.row_of[r] for r in rows if r in self.row_of]] = True
            mask &= chosen
        for record_id in exclude:
            row = self.row_of.get(record_id)
            if row is not None:
                mask[row] = False
        # the rescore's formula on every row, with the matrix-vector product
        denom = self.norms[:n] * query_norm
        scores = np.divide(self.matrix[:n].dot(query), denom, out=np.zeros(n),
                           where=denom != 0.0)
        if bonus is not None:
            points = np.zeros(n)
            for record_id, value in bonus.items():
                row = self.row_of.get(record_id)
                if row is not None:
                    points[row] = value
            scores = points + (1.0 + scores) / 2.0
        if floor is not None:
            mask &= scores >= floor - SCREEN_MARGIN
        candidates = mask.nonzero()[0]
        if top is not None and candidates.size > top:
            kept = scores[candidates]
            cut = np.partition(kept, kept.size - top)[kept.size - top]
            candidates = candidates[kept >= cut - SCREEN_MARGIN]
        return candidates.tolist()


class Postings:
    """Per-record key counts plus postings (see module docstring)."""

    def __init__(self):
        self.counts: dict[str, Counter] = {}
        self.postings: dict[Hashable, dict[str, int]] = {}

    def add(self, record_id: str, keys: Iterable[Hashable]):
        """Index the record under ``keys``, replacing any earlier entry."""
        self.drop(record_id)
        counts = Counter(keys)
        if not counts:
            return
        self.counts[record_id] = counts
        for key, count in counts.items():
            self.postings.setdefault(key, {})[record_id] = count

    def drop(self, record_id: str):
        for key in self.counts.pop(record_id, ()):
            bucket = self.postings[key]
            del bucket[record_id]
            if not bucket:
                del self.postings[key]

    def matching(self, keys: Iterable[Hashable]) -> set[str]:
        """Ids of the records holding at least one of ``keys``."""
        ids: set[str] = set()
        for key in keys:
            ids.update(self.postings.get(key, ()))
        return ids


class MemoryStore(ABC):
    """Abstract backend. Subclasses implement _search."""

    name = "abstract"
    supports_tiers = False
    supports_links = False

    def __init__(self, embed_dim: Optional[int] = None):
        self._records: dict[str, MemoryRecord] = {}
        self._turn_map: dict[tuple[str, int], str] = {}
        self._counter = 0
        self.embed_dim = embed_dim
        # a run sets both from operators.consolidate: the gain a hit
        # multiplies strength by, and the strength of the records a backend
        # builds itself (session summaries), like its inserts'
        self.strength_gain = 2.0
        self.initial_strength_s = MemoryRecord.strength
        self.evicted_total = 0
        self._index = EmbeddingIndex()
        self._postings = Postings()

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, records: Sequence[MemoryRecord]) -> list[str]:
        ids = []
        for record in records:
            if not isinstance(record, MemoryRecord):
                raise StoreError(f"cannot insert {type(record).__name__}")
            if record.record_id:
                raise StoreError("records arrive without ids; the store assigns them")
            record.tier = self._default_tier()
            self._check_dim(record)
            self._counter += 1
            record.record_id = f"m{self._counter:06d}"
            self._records[record.record_id] = record
            if record.kind == KIND_RAW:
                self._turn_map[(record.session_id, record.turn_index)] = record.record_id
            self._postings.add(record.record_id, self._index_keys(record))
            self._index.queue(record)
            self._after_add(record)
            ids.append(record.record_id)
        return ids

    def _check_dim(self, record: MemoryRecord):
        if record.embedding is None:
            return
        if self.embed_dim is None:
            self.embed_dim = int(record.embedding.shape[0])
        elif int(record.embedding.shape[0]) != self.embed_dim:
            raise DimensionMismatch(
                f"expected dim {self.embed_dim}, got {record.embedding.shape[0]}")

    def _default_tier(self) -> str:
        return TIER_FLAT

    def _after_add(self, record: MemoryRecord):
        """Capacity/eviction hook; default none."""

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def retrieve(self, signal: RetrievalSignal, k: int,
                 now: Optional[int] = None) -> list[Candidate]:
        if signal.skip:
            return []
        if signal.is_empty():
            raise EmptySignal("retrieval signal carries no text, keywords or embedding")
        if k < 1:
            raise StoreError(f"k must be >= 1, got {k}")
        candidates = self._search(signal, k, now)
        for cand in candidates:
            self._touch(cand.record, now)
        return candidates

    def _touch(self, record: MemoryRecord, now: Optional[int]):
        record.access_count += 1
        if now is not None and now > record.last_access:
            record.last_access = now
        record.strength *= self.strength_gain

    def _is_visible(self, record: MemoryRecord, now: Optional[int]) -> bool:
        return now is None or record.ts < now

    def nearest(self, query: np.ndarray, now: Optional[int] = None,
                exclude: Iterable[str] = (), top: Optional[int] = None,
                floor: Optional[float] = None, rows: Optional[Iterable[str]] = None,
                bonus: Optional[dict[str, float]] = None) -> list[tuple[MemoryRecord, float]]:
        """Live embedded records by exact cosine to ``query``, best first.

        Visible at ``now`` (all live records when None), minus ``exclude``,
        restricted to the ids in ``rows`` when given. The result holds every
        record with ``cosine >= floor`` that can rank among the ``top`` best,
        plus any within ``SCREEN_MARGIN`` of that cut, so callers slice or
        re-rank it. ``bonus`` (record_id -> points) makes the cut rank by
        ``points + fold_cosine(cosine)`` instead; returned scores stay exact
        cosines.
        """
        if top is not None and top < 1:
            return []
        index = self._index
        query_norm = vector_norm(query)
        survivors = index.screen(query, query_norm, now, exclude, top, floor, rows, bonus)
        if not survivors:
            return []
        # a stack of 1xd @ dx1 products: each goes through the dot loop
        # np.dot uses, so every score has the bits of a per-pair cosine
        dots = np.matmul(index.matrix[survivors][:, None, :], query[:, None])[:, 0, 0]
        denom = query_norm * index.norms[survivors]
        sims = np.divide(dots, denom, out=np.zeros(len(survivors)), where=denom != 0)
        scored = list(zip([index.records[row] for row in survivors], sims.tolist()))
        if floor is not None:
            scored = [(record, sim) for record, sim in scored if sim >= floor]
        scored.sort(key=lambda item: (-item[1], item[0].record_id))
        return scored

    def _keyed_scores(self, signal: RetrievalSignal,
                      now: Optional[int]) -> list[tuple[MemoryRecord, float]]:
        """Summed key counts of the visible records sharing a query token."""
        totals: dict[str, int] = {}
        postings = self._postings.postings
        for token in dict.fromkeys(index_tokens(signal.lexical_text())):
            for record_id, count in postings.get(token, {}).items():
                totals[record_id] = totals.get(record_id, 0) + count
        records = self._records
        return [(records[record_id], float(total)) for record_id, total in totals.items()
                if self._is_visible(records[record_id], now)]

    def _lexical_search(self, signal: RetrievalSignal, k: int,
                        now: Optional[int]) -> list[Candidate]:
        """Top ``k`` by term frequency over the visible records sharing a query token."""
        scored = normalize_ratio(self._keyed_scores(signal, now))
        return rank_candidates(scored, k, source="lexical")

    def _vector_search(self, signal: RetrievalSignal, k: int, now: Optional[int],
                       rows: Optional[Iterable[str]] = None) -> list[Candidate]:
        """Top ``k`` by folded cosine to the signal's embedding."""
        scored = [(record, fold_cosine(sim))
                  for record, sim in self.nearest(signal.embedding, now, top=k, rows=rows)]
        return rank_candidates(scored, k, source="vector")

    # ------------------------------------------------------------------
    # maintenance surface (used by consolidation policies)
    # ------------------------------------------------------------------
    def get(self, record_id: str) -> MemoryRecord:
        record = self._records.get(record_id)
        if record is None:
            raise UnknownRecord(record_id)
        return record

    def all_records(self) -> list[MemoryRecord]:
        """Live records in insertion order."""
        return list(self._records.values())

    def is_live(self, record_id: str) -> bool:
        return record_id in self._records

    def remove(self, record_id: str):
        """Take a record out of the store and every index."""
        record = self.get(record_id)
        del self._records[record_id]
        self._postings.drop(record_id)
        self._index.drop(record_id)
        if record.kind == KIND_RAW:
            key = (record.session_id, record.turn_index)
            if self._turn_map.get(key) == record_id:
                del self._turn_map[key]
        for other_id in list(record.links):
            other = self._records.get(other_id)
            if other is not None:
                other.links.discard(record_id)
        self.evicted_total += 1
        self._after_remove(record)

    def reindex(self, record: MemoryRecord):
        """Refresh index entries after an in-place text/embedding/ts change."""
        self._check_dim(record)
        self._postings.add(record.record_id, self._index_keys(record))
        self._index.queue(record)

    def migrate(self, record_id: str, to_tier: str):
        raise UnsupportedBackend(f"{self.name} has no tiers")

    def turn_neighbors(self, session_id: str, turn_index: int, window: int,
                       now: Optional[int] = None) -> list[MemoryRecord]:
        """Live, visible raw turns adjacent to (session_id, turn_index)."""
        out = []
        for delta in range(-window, window + 1):
            if delta == 0:
                continue
            rec_id = self._turn_map.get((session_id, turn_index + delta))
            if rec_id is None:
                continue
            record = self._records[rec_id]
            if self._is_visible(record, now):
                out.append(record)
        out.sort(key=lambda r: r.turn_index)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        live = self.all_records()
        return StoreStats(
            backend=self.name,
            record_count=len(live),
            tier_counts=dict(Counter(r.tier for r in live)),
            evicted_total=self.evicted_total,
            index_sizes=self._index_sizes(),
        )

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    def _index_keys(self, record: MemoryRecord) -> Iterable[Hashable]:
        """The record's postings keys; default the index tokens of its text."""
        return index_tokens(record.text)

    def _after_remove(self, record: MemoryRecord):
        """Bookkeeping hook, called last in ``remove``; default none."""

    @abstractmethod
    def _search(self, signal: RetrievalSignal, k: int,
                now: Optional[int]) -> list[Candidate]:
        ...

    def _index_sizes(self) -> dict[str, int]:
        return {}
