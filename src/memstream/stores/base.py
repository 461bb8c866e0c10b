"""Store contract and mechanics shared by every backend.

All backends guarantee, via this base class:

* ``insert(records)`` takes ``MemoryRecord``s only, without ids, and
  assigns deterministic record ids ("m000001", ...) in insertion order;
* a strictly-earlier visibility rule — retrieval at time ``now`` never
  returns a record with ``record.ts >= now`` (causality is enforced here
  again, independently of the protocol's request ordering);
* candidate ordering by descending score with record_id as the tie-break,
  record ids compared as Python strings (so "m1000000" before "m999999").
  Lexical search and ``rank_candidates`` sort decorated ``(-score,
  record_id)`` tuples once, with no key function; fusion sorts its ids, then
  stably by descending score; ``nearest`` orders its survivors with one
  ``np.lexsort`` (below). Each builds only what its caller reads: lexical
  search its top ``k`` candidates, fusion its first ``limit``;
* scores normalized to [0, 1]: cosine folded via (1+cos)/2; lexical totals
  divided by the best one, for the ``k`` kept only (``float(total) /
  float(top)``, the bits ``normalize_ratio`` gives); property_graph's scores
  divided by the list maximum by ``normalize_ratio``; reciprocal-rank fusion
  scores by the best one in ``fused_candidates``;
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
record's visibility ``ts``, its record_id and its norm and inverse norm
beside it. A freed row's ts is
``FREE_TS`` (``stream.TS_END``, past every valid timestamp), which no
``now`` reaches, so the one test ``ts < now`` keeps exactly the live,
visible rows; freed rows are reused.
A row is written when its record is: ``insert`` and ``reindex`` write the
record's embedding, ts, id and norm into its row, or free the row of a
record without an embedding, and ``remove`` frees it. So the stage that
writes a record pays for its row (StateUpdate for an insert, PostIns for a
merge's reindex), and an unembedded record gets no row; a store that holds
no embedding never builds the matrix. The first allocation reserves 1,024
rows and each later one doubles the capacity. Rows map to record ids through
the ``ids`` column, and ids to records through the store.
The cached norm is ``vector_norm`` of the written row, the bits of
``float(np.linalg.norm(row))``; the inverse norm is ``1 / norm``, 0 where
the norm is 0.
The visibility test, ``exclude`` and ``rows`` make one mask. ``nearest``
screens the rows it keeps with a matrix-vector product times the cached
inverse norms and the query's inverse norm (0 where a norm is 0, as in a
per-pair cosine). The
product spans every row, or only the kept rows when ``rows`` restricts the
scan, so lsh_hash's bucket candidates do not pay for the whole store. Of the
screened rows at or above the ``floor`` (less ``SCREEN_MARGIN``), those
within ``SCREEN_MARGIN`` of the ``top``-th screened score survive. All
survivors are then rescored in one batch: a stacked ``np.matmul`` of each
survivor row (1 x d) with the query (d x 1), divided by the same
denominator. numpy computes each of those 1 x d by d x 1 products with the
dot loop ``np.dot`` uses, so every rescored score has the bits of the
per-pair cosine, ``float(np.dot(a, b))`` divided by
``float(np.linalg.norm(a)) * float(np.linalg.norm(b))``. Survivors are
ordered by one ``np.lexsort`` over the negated scores and the index's row ->
record_id column, an object array whose items compare as Python strings: by
descending score with record_id as the tie-break, the order of a sort over
decorated ``(-score, record_id)`` tuples. ``nearest`` pairs the record of
each ordered row's id with its score; inverted_vector's fusion reads the
ordered rows' ids from that column. A matrix-vector product, and the screen's
multiplication by inverse norms, may differ from the per-pair cosine in the
last ulps, and a product over some rows from one over all of them, so the
screen alone would flip near-ties; the rescore keeps every score and order
exactly those of a per-record scan.

``Postings`` holds each record's key counts, a plain dict counted in one
pass over its keys, plus postings (key -> {record_id: count}). What a key
is belongs to the backend: ``_index_keys(record)`` returns the index
tokens of the text by default (fifo_queue, queue_segment, inverted_vector);
property_graph keys the triplet's entity tokens, lsh_hash one ``(table,
signature)`` pair per LSH table, and summary_vector nothing. The base keeps
the postings current eagerly in ``insert``, ``reindex`` and ``remove``, so a
record is keyed once per write, never per query. ``MemoryStore._key_totals``
sums the scores from the postings: for each distinct index token of the
query it adds the counts in that token's postings to a running total per
record. That is each record's term-frequency sum over the query's distinct
tokens, and only records sharing a token get a total; the others would
score 0 and be dropped anyway. ``_lexical_ranking`` keeps the visible totals
(``ts < now``) and sorts them as ``(-total, record_id)``, so lexical search
returns what a scan over every record would. Every keyed ranking reads it:
lexical search, inverted_vector's fusion and property_graph's entity points.
property_graph's entity keys are a set, so each count is 1 and a record's
points are the number of distinct query entities it mentions.

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
from ..stream import TS_END
from ..text import index_tokens

DEFAULT_RRF_K = 60


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


def rank_candidates(scored: Iterable[tuple[MemoryRecord, float]], k: int) -> list[Candidate]:
    """The ``k`` best of distinct records by descending score, then record_id."""
    ranked = sorted([(-score, record.record_id, record) for record, score in scored])
    return [Candidate(record=record, score=-negated)
            for negated, _, record in ranked[:k]]


def fused_candidates(rankings: Iterable[list[str]], record_of: Callable[[str], MemoryRecord],
                     limit: int, k_rrf: int = DEFAULT_RRF_K) -> list[Candidate]:
    """RRF-fuse ranked id lists into the ``limit`` best candidates, best first.

    A ranked id scores sum over lists of 1 / (k_rrf + rank), ranks 1-based,
    so a document at rank 1 in two lists scores 2/(k_rrf+1). Ids are ordered
    by descending fused score, then id; ``record_of`` looks up the first
    ``limit`` ids' records (``MemoryStore.get``) and their scores are divided
    by the best one.
    """
    if k_rrf < 0:
        raise ValueError(f"k_rrf must be >= 0, got {k_rrf}")
    fused: dict[str, float] = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking, start=k_rrf + 1):
            fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / rank
    if not fused:
        return []
    # by id, then stably by descending score: ties keep their id order
    ranked = sorted(fused)
    ranked.sort(key=fused.__getitem__, reverse=True)
    top = fused[ranked[0]]
    return [Candidate(record=record_of(doc_id), score=fused[doc_id] / top)
            for doc_id in ranked[:limit]]


# Screened scores within this distance of a cut are rescored exactly; a
# matrix product strays from the per-pair cosine by a few ulps at most.
SCREEN_MARGIN = 1e-9

# the ts of a free row: no ``now`` reaches it, so ``ts < now`` drops the row
FREE_TS = TS_END


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
    """Row-per-record embedding matrix, written with its record (see module docstring)."""

    def __init__(self):
        self.matrix: Optional[np.ndarray] = None  # (capacity, dim), built at the first row write
        self.ts = np.zeros(0, dtype=np.int64)  # FREE_TS on a free row
        self.norms = np.zeros(0)
        self.inverse_norms = np.zeros(0)  # 1 / norm, 0 where the norm is 0
        self.ids = np.zeros(0, dtype=object)  # row -> record_id, stale on a free row
        self.row_of: dict[str, int] = {}
        self._free: list[int] = []

    def write(self, record: MemoryRecord):
        """Write the record's embedding, ts, id and norm into its row; free it if unembedded."""
        if record.embedding is None:
            self.drop(record.record_id)
            return
        row = self.row_of.get(record.record_id)
        if row is None:
            row = self._allocate(record.embedding.shape[0])
            self.row_of[record.record_id] = row
        self.ids[row] = record.record_id
        self.matrix[row] = record.embedding
        self.ts[row] = record.ts
        norm = vector_norm(self.matrix[row])
        self.norms[row] = norm
        self.inverse_norms[row] = 1.0 / norm if norm else 0.0

    def drop(self, record_id: str):
        row = self.row_of.pop(record_id, None)
        if row is not None:
            self.ts[row] = FREE_TS
            self._free.append(row)

    def _allocate(self, dim: int) -> int:
        if self._free:
            return self._free.pop()
        if self.matrix is None:
            self.matrix = np.zeros((0, dim))
        row = len(self.row_of)  # no row is free, so every allocated row is mapped
        if row == self.matrix.shape[0]:
            # 1,024 rows first, then doubling; pages never written stay unmapped
            capacity = max(1024, 2 * row)
            self.matrix, self.ts, self.norms, self.inverse_norms, self.ids = (
                _grown(a, capacity)
                for a in (self.matrix, self.ts, self.norms, self.inverse_norms, self.ids))
        return row

    def screen(self, query: np.ndarray, query_norm: float, now: Optional[int],
               exclude: Iterable[str], top: Optional[int], floor: Optional[float],
               rows: Optional[Iterable[str]]) -> np.ndarray:
        """Rows of the visible records whose screened score may reach the exact top or floor."""
        n = len(self.row_of) + len(self._free)
        if n == 0:
            return np.zeros(0, dtype=np.intp)
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
        # the cosine by a matrix-vector product, over every row or over the
        # kept rows only when ``rows`` restricts the scan; 0 where a norm is 0
        span = slice(0, n) if rows is None else mask.nonzero()[0]
        scores = self.matrix[span].dot(query)
        scores *= self.inverse_norms[span]
        scores *= 1.0 / query_norm if query_norm else 0.0
        mask = mask[span]
        if floor is not None:
            mask &= scores >= floor - SCREEN_MARGIN
        candidates = mask.nonzero()[0]
        if top is not None and candidates.size > top:
            kept = scores[candidates]
            cut = np.partition(kept, kept.size - top)[kept.size - top]
            candidates = candidates[kept >= cut - SCREEN_MARGIN]
        return candidates if rows is None else span[candidates]


class Postings:
    """Per-record key counts plus postings (see module docstring)."""

    def __init__(self):
        self.counts: dict[str, dict[Hashable, int]] = {}
        self.postings: dict[Hashable, dict[str, int]] = {}

    def add(self, record_id: str, keys: Iterable[Hashable]):
        """Index the record under ``keys``, replacing any earlier entry."""
        self.drop(record_id)
        counts: dict[Hashable, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
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
    """Abstract backend. Subclasses implement _search.

    ``reads_vectors`` says whether the backend's search may read a record's
    or a signal's embedding; a run on a backend that never does, with no
    consolidation policy that does either, embeds nothing.
    """

    name = "abstract"
    supports_tiers = False
    supports_links = False
    reads_vectors = True

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
            self._index.write(record)
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

    def nearest(self, query: np.ndarray, now: Optional[int] = None,
                exclude: Iterable[str] = (), top: Optional[int] = None,
                floor: Optional[float] = None,
                rows: Optional[Iterable[str]] = None) -> list[tuple[MemoryRecord, float]]:
        """Live embedded records by exact cosine to ``query``, best first.

        Visible at ``now`` (all live records when None), minus ``exclude``,
        restricted to the ids in ``rows`` when given. The result holds every
        record with ``cosine >= floor`` that can rank among the ``top`` best,
        plus any within ``SCREEN_MARGIN`` of that cut, so callers slice or
        re-rank it.
        """
        if top is not None and top < 1:
            return []
        ranked, sims = self._ranked_rows(query, now, exclude, top, floor, rows)
        records = self._records
        return [(records[record_id], sim)
                for record_id, sim in zip(self._index.ids[ranked].tolist(), sims.tolist())]

    def _ranked_rows(self, query: np.ndarray, now: Optional[int], exclude: Iterable[str] = (),
                     top: Optional[int] = None, floor: Optional[float] = None,
                     rows: Optional[Iterable[str]] = None) -> tuple[np.ndarray, np.ndarray]:
        """The index rows of what ``nearest`` returns, best first, and their exact cosines."""
        index = self._index
        query_norm = vector_norm(query)
        survivors = index.screen(query, query_norm, now, exclude, top, floor, rows)
        if not survivors.size:
            return survivors, np.zeros(0)
        # a stack of 1xd @ dx1 products: each goes through the dot loop
        # np.dot uses, so every score has the bits of a per-pair cosine
        dots = np.matmul(index.matrix[survivors][:, None, :], query[:, None])[:, 0, 0]
        denom = query_norm * index.norms[survivors]
        sims = np.divide(dots, denom, out=np.zeros(survivors.size), where=denom != 0)
        if floor is not None:
            kept = sims >= floor
            survivors, sims = survivors[kept], sims[kept]
        # by descending cosine, then record_id in str order: the last key leads
        order = np.lexsort((index.ids[survivors], -sims))
        return survivors[order], sims[order]

    def _key_totals(self, signal: RetrievalSignal) -> dict[str, int]:
        """Summed key counts of every record sharing a query token, visible or not."""
        totals: dict[str, int] = {}
        postings = self._postings.postings
        for token in dict.fromkeys(index_tokens(signal.lexical_text())):
            for record_id, count in postings.get(token, {}).items():
                totals[record_id] = totals.get(record_id, 0) + count
        return totals

    def _lexical_ranking(self, signal: RetrievalSignal,
                         now: Optional[int]) -> list[tuple[int, str]]:
        """``(-total, record_id)`` of the visible records sharing a query token, best first."""
        records = self._records
        ranked = [(-total, record_id) for record_id, total in self._key_totals(signal).items()
                  if now is None or records[record_id].ts < now]
        ranked.sort()
        return ranked

    def _lexical_search(self, signal: RetrievalSignal, k: int,
                        now: Optional[int]) -> list[Candidate]:
        """Top ``k`` by term frequency, divided by the best total."""
        ranked = self._lexical_ranking(signal, now)
        if not ranked:
            return []
        top = float(-ranked[0][0])
        records = self._records
        return [Candidate(record=records[record_id], score=float(-negated) / top)
                for negated, record_id in ranked[:k]]

    def _vector_search(self, signal: RetrievalSignal, k: int, now: Optional[int],
                       rows: Optional[Iterable[str]] = None) -> list[Candidate]:
        """Top ``k`` by folded cosine to the signal's embedding."""
        scored = [(record, fold_cosine(sim))
                  for record, sim in self.nearest(signal.embedding, now, top=k, rows=rows)]
        return rank_candidates(scored, k)

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
        self._index.write(record)

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
            if now is None or record.ts < now:
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
