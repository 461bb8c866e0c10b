"""Store contract and mechanics shared by every backend.

All backends guarantee, via this base class:

* ``insert(records)`` takes ``MemoryRecord``s only, without ids, and
  assigns deterministic record ids ("m000001", ...) in insertion order;
* a strictly-earlier visibility rule — retrieval at time ``now`` never
  returns a record with ``record.ts >= now`` (causality is enforced here
  again, independently of the protocol's request ordering);
* candidate ordering by descending score with record_id as the tie-break,
  record ids compared as Python strings (so "m1000000" before "m999999").
  One function builds every such order, ``rank_ids``: it sorts the ids,
  then sorts them stably by descending score (``list.sort`` with the score
  dict's ``__getitem__`` as key, ``reverse=True``), both sorts in C. Lexical
  search, fusion, vector search, property_graph's search, multi-tier
  integration and crud's lexical neighbour fallback all rank through it,
  and so does ``nearest`` for fewer than ``PAIRS_BELOW`` survivors. The
  lexical ranking ranks every visible match; fusion first keeps only the
  ids scoring at least the ``limit``-th best fused score, so ties at the cut
  stay in id order. There are two exceptions:
  ``nearest`` orders a larger batch of survivors with one ``np.lexsort``
  over index rows (below), the same order without building a dict, and
  time-weighted integration re-sorts by its decayed score alone, stably, so
  its ties keep retrieval order;
* scores normalized to [0, 1]: cosine folded via (1+cos)/2, and vector
  search ranks the folded scores, so two cosines that fold to one score
  tie to the id; lexical totals and reciprocal-rank fusion scores are
  ranked raw, then only the kept ones are divided by the best
  (``float(total) / float(top)`` for totals); property_graph divides its
  positive scores by their maximum first and ranks the quotients, so a tie
  made by the division goes to the id;
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
record's visibility ``ts``, its record_id, its norm and a float32 unit row
beside it. A freed row's ts is
``FREE_TS`` (``stream.TS_END``, past every valid timestamp), which no
``now`` reaches, so the one test ``ts < now`` keeps exactly the live,
visible rows; freed rows are reused.
A row is written when its record is: ``insert`` and ``reindex`` both write
a record through one method, ``_write``, which writes the record's
embedding, ts, id and norms into its row, or frees the row of a record
without an embedding, and ``remove`` frees it. So the stage that writes a
record pays for its row (StateUpdate for an insert, PostIns for a
merge's reindex), and an unembedded record gets no row; a store that holds
no embedding never builds the matrix. The first allocation reserves 1,024
rows and each later one doubles the capacity. Rows map to record ids through
the ``ids`` column, and ids to records through the store.
The cached norm is ``vector_norm`` of the embedding, the bits of
``float(np.linalg.norm(row))``. The unit row is the float32 cast of
``to_unit``: the embedding as it stands when its norm is within
``UNIT_SLACK`` (2**-30) of 1, as every mock, remote, merged and summary
vector's is, else the embedding times its float64 inverse norm; a zero row
stays zero.

``nearest`` screens with one float32 matrix-vector product of the unit rows
and the query's float32 form. A vector query's form is made by the rule of
a row's, from its ``vector_norm``. A record query (each consolidation
policy queries with the record it has just inserted, and excludes it)
reads its own row instead: its float64 embedding, its cached norm and its
unit row, the same bits the rule would give. Each screened score ``s``
lies within ``margin = gamma(d + 2) + 3 * 2**-30`` of the exact cosine
``c`` of a ``d``-dim row, ``gamma(k) = k u / (1 - k u)`` with ``u =
2**-24``: rounding the two unit vectors to float32 and the product's ``d``
float32 multiply-adds, in any order and with or without fused multiply-add,
perturb each term of the dot product by at most ``d + 2`` roundings, so by
``gamma(d + 2)`` of the sum of the terms' magnitudes, which is at most 1 by
Cauchy-Schwarz; a row cast as it stands moves ``s`` by at most its norm's
distance from 1, 2**-30, and a query cast as it stands by another 2**-30;
the last 2**-30 covers the float64 steps before each cast and float32
underflow.
Rows are hidden by score: after the product, the score of each excluded
row is set to ``-inf``, and so is each row with ``ts >= now`` when ``now``
can hide a row (a free row's ``FREE_TS`` passes no ``now``), or else each
free row. Every live row screens at least ``-1 - margin``, so the cuts read
the scores alone and never keep a hidden row. A floor screen first compares
its best score (one ``argmax``) with ``floor - margin`` and keeps no row
when it misses, as most insert-time screens do; otherwise it keeps every
row with ``s >= floor - margin``. A ``top`` screen then keeps, of those,
every row with ``s`` at least the ``top``-th screened score minus ``2
margin`` (the exact ``top``-th cosine is at least that score minus
``margin``); with fewer than ``top`` rows not hidden it keeps them all.
Every row that can pass the exact floor or rank among the exact top
survives. Comparing float32 scores with a threshold rounded to float32
keeps every score at or above the unrounded one.
The store keeps one upper bound on its live records' timestamps, raised by
``_write`` and never lowered. A ``now`` past that bound hides no record, so
both rankings treat it as None: ``_lexical_ranking`` then reads no record's
ts, and the screen reads no ts column. When ``rows``
restricts the scan, the product spans only the chosen rows that are
visible and not excluded, so lsh_hash's bucket candidates do not pay for
the whole store.
The survivors are then rescored in float64, each as ``np.dot`` of its row
and the query divided by the query norm times the cached row norm: the
per-pair cosine, ``float(np.dot(a, b))`` divided by
``float(np.linalg.norm(a)) * float(np.linalg.norm(b))``. Fewer than
``PAIRS_BELOW`` (8) survivors, as a merge's or a link's screen keeps, are
rescored one ``np.dot`` per pair (``pair_cosines``) and ranked with
``rank_ids``; below that count the batch's fixed cost is larger. More are
rescored in one batch (``batch_cosines``): a stacked ``np.matmul`` of each
survivor row (1 x d) with the query (d x 1), then one division. numpy
computes each of those 1 x d by d x 1 products with the dot loop ``np.dot``
uses, so both paths give every score the same bits.
Those bits are the host's, not every host's: numpy's bundled OpenBLAS picks
its dot kernel by CPU, and another kernel (``OPENBLAS_CORETYPE=Haswell`` or
``Zen`` on a SkylakeX host) sums in another order, which moves last bits,
some rankings and the golden digests; under ``Prescott`` the batched
rescore no longer matches the per-pair ``np.dot`` at every dim. The
screen's bound holds under any kernel.
A batch is ordered by one ``np.lexsort`` over the negated scores and
the index's row -> record_id column, an object array whose items compare
as Python strings: by descending score with record_id as the tie-break,
the order ``rank_ids`` gives. Either way ``_ranked_rows`` returns plain
lists of ids and cosines, best first: ``nearest`` pairs the record of each
id with its score, and inverted_vector's fusion reads the ids. The
screen alone would flip near-ties and exact ties, which are common (every
search_heavy query meets one among its top 50); the rescore keeps every
score and order exactly those of a per-record scan.

``Postings`` holds each record's key counts, a plain dict counted in one
pass over its keys, plus postings (key -> {record_id: count}). What a key
is belongs to the backend: ``_index_keys(record)`` returns the index
tokens of the text by default (fifo_queue, queue_segment, inverted_vector);
property_graph keys the triplet's entity tokens, lsh_hash one ``(table,
signature)`` pair per LSH table, and summary_vector nothing. The base keeps
the postings current eagerly in ``_write`` and ``remove``, so a record is
keyed once per write, never per query; ``Postings.add`` writes only the keys
whose count changed, all of them for a record keyed the first time.
``MemoryStore._key_totals`` sums the scores from the postings: it copies the
largest posting among the query's distinct index tokens, then adds the
counts of each other one to a running total per record. That is each record's term-frequency sum over
the query's distinct tokens, and only records sharing a token get a total;
the others would score 0 and be dropped anyway. ``_lexical_ranking``
returns the ids of the visible records (``ts < now``) ranked by their totals
with ``rank_ids``, plus the totals dict they are read from, so
lexical search returns what a scan over every record would. Every keyed
ranking reads it: lexical search, inverted_vector's fusion and
property_graph's entity points.
property_graph's entity keys are a set, so each count is 1 and a record's
points are the number of distinct query entities it mentions.

The store reports its changes to a consolidation policy through one hook,
``_note(record_id)``: ``_write`` (so ``insert`` and ``reindex``), ``_touch``,
``remove`` and a tier move (queue_segment's ``migrate`` and its short-term
overflow) call it for each record they write. It adds the id to ``changed``
only after a policy has called ``watch()``, which starts that set with every
live id; the policy empties it with ``take_changed()``. ``changed`` is None
until then, so a run whose policy keeps no state (``none``, ``crud``,
``link_evolution``, ``semantic_consolidation``) pays one ``None`` test per
write and per hit. Records are kept, and ids handed out, in insertion
order, so ``insert_order`` of an id sorts ids in store order.

Insert returns the new record ids and retrieve the candidates; neither times
itself, because the orchestrator times every stage at its own boundaries.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from collections import Counter
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..errors import DimensionMismatch, EmptySignal, StoreError, UnknownRecord, UnsupportedBackend
from ..records import (
    DEFAULT_STRENGTH_S,
    KIND_RAW,
    Candidate,
    MemoryRecord,
    RetrievalSignal,
    StoreStats,
    TIER_FLAT,
    vector_norm,
)
from ..stream import TS_END, TS_MIN
from ..text import index_tokens

DEFAULT_RRF_K = 60
# (k_rrf, ranking length) pairs whose reciprocal-rank weights are kept
RRF_WEIGHT_MEMO_SIZE = 256


def fold_cosine(value: float) -> float:
    """Map cosine from [-1, 1] onto [0, 1]."""
    return (1.0 + value) / 2.0


def rank_ids(scores: Mapping[str, float], ids: Optional[Iterable[str]] = None) -> list[str]:
    """``ids`` (every key of ``scores`` when None) by descending score, then id."""
    ranked = sorted(scores if ids is None else ids)
    # by id, then stably by descending score: ties keep their id order
    ranked.sort(key=scores.__getitem__, reverse=True)
    return ranked


def insert_order(record_id: str) -> int:
    """Sort key of a store's ids in insertion order: they count up as ``m000001``, ..."""
    return int(record_id[1:])


def int_at_least(name: str, value, least: int = 1) -> int:
    """``value`` when it is an int (not a bool) of at least ``least``, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


@functools.lru_cache(maxsize=RRF_WEIGHT_MEMO_SIZE)
def _rrf_weights(k_rrf: int, count: int) -> tuple[float, ...]:
    """``1.0 / (k_rrf + rank)`` for ranks 1 to ``count``, computed once per pair."""
    return tuple([1.0 / rank for rank in range(k_rrf + 1, k_rrf + 1 + count)])


def fused_candidates(rankings: Iterable[list[str]], record_of: Callable[[str], MemoryRecord],
                     limit: int, k_rrf: int = DEFAULT_RRF_K) -> list[Candidate]:
    """RRF-fuse ranked id lists into the ``limit`` best candidates, best first.

    Each ranking lists distinct ids, as every caller's does. A ranked id
    scores sum over lists of 1 / (k_rrf + rank), ranks 1-based, added in
    list order, so a document at rank 1 in two lists scores 2/(k_rrf+1).
    Ids are ordered by descending fused score, then id; only the ids scoring
    at least the ``limit``-th best score are sorted. ``record_of`` looks up
    the first ``limit`` ids' records (``MemoryStore.get``) and their scores
    are divided by the best one.
    """
    if k_rrf < 0:
        raise ValueError(f"k_rrf must be >= 0, got {k_rrf}")
    fused: dict[str, float] = {}
    for ranking in rankings:
        weights = _rrf_weights(k_rrf, len(ranking))
        if not fused:
            fused = dict(zip(ranking, weights))  # 0.0 + w is w
            continue
        for doc_id, weight in zip(ranking, weights):
            fused[doc_id] = fused.get(doc_id, 0.0) + weight
    if not fused:
        return []
    kept = None
    if 0 < limit < len(fused):
        cut = sorted(fused.values(), reverse=True)[limit - 1]
        kept = [doc_id for doc_id, score in fused.items() if score >= cut]
    ranked = rank_ids(fused, kept)
    top = fused[ranked[0]]
    return [Candidate(record=record_of(doc_id), score=fused[doc_id] / top)
            for doc_id in ranked[:limit]]


# the ts of a free row: no ``now`` reaches it, so ``ts < now`` drops the row
FREE_TS = TS_END

# what a screen that keeps no row returns; read-only, so sharing it is safe
NO_ROWS = np.zeros(0, dtype=np.intp)
NO_ROWS.flags.writeable = False

# a row whose norm is this close to 1 is screened as it stands: the norm's
# distance from 1 moves no screened score by more than this
UNIT_SLACK = 2.0 ** -30


def screen_margin(dim: int) -> float:
    """Bound on how far a screened score of ``dim``-dim rows strays from the exact cosine.

    ``gamma(d + 2) + 3 * 2**-30``, with ``gamma(k) = k * 2**-24 / (1 - k * 2**-24)``
    (see the module docstring).
    """
    rounded = (dim + 2) * 2.0 ** -24
    return rounded / (1.0 - rounded) + 3.0 * UNIT_SLACK


def to_unit(vector: np.ndarray, norm: float) -> np.ndarray:
    """The vector, of norm ``norm``, whose float32 cast the screen multiplies.

    ``vector`` as it stands when ``norm`` is within ``UNIT_SLACK`` of 1, as
    every mock, remote, merged and summary vector's is; otherwise ``vector``
    times its float64 inverse norm. A zero vector stays zero. Rows and
    queries are cast by this one rule.
    """
    if abs(norm - 1.0) <= UNIT_SLACK:
        return vector
    return vector * (1.0 / norm if norm else 0.0)


# fewer survivors than this are rescored and ranked one ``np.dot`` per pair,
# more in one batch: the batch's fixed cost (a gather, a stacked matmul, a
# masked divide and ``np.lexsort``) is about 9-10 us at 64 dims on a 2-vCPU
# x86-64 host, and the per-pair path passes it at 8-9 survivors
PAIRS_BELOW = 8


def pair_cosines(index: EmbeddingIndex, rows: list[int], vector: np.ndarray,
                 norm: float) -> list[float]:
    """Exact cosine of ``vector`` (of norm ``norm``) to each row, one ``np.dot`` per row."""
    matrix, norms = index.matrix, index.norms
    sims = []
    for row in rows:
        denom = norm * norms[row]
        sims.append(float(matrix[row].dot(vector) / denom) if denom else 0.0)
    return sims


def batch_cosines(index: EmbeddingIndex, rows: np.ndarray, vector: np.ndarray,
                  norm: float) -> np.ndarray:
    """``pair_cosines`` in one batch, bit for bit (see the module docstring)."""
    # a stack of 1xd @ dx1 products: each goes through the dot loop
    # np.dot uses, so every score has the bits of a per-pair cosine
    dots = np.matmul(index.matrix[rows, None, :], vector[:, None])[:, 0, 0]
    denom = norm * index.norms[rows]
    return np.divide(dots, denom, out=np.zeros(rows.size), where=denom != 0)


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """Copy of ``array`` with its first axis zero-padded to ``capacity``."""
    out = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
    out[:len(array)] = array
    return out


class EmbeddingIndex:
    """Row-per-record embedding matrix, written with its record (see module docstring)."""

    def __init__(self):
        self.matrix: Optional[np.ndarray] = None  # (capacity, dim), built at the first row write
        self.unit: Optional[np.ndarray] = None  # float32 rows of norm 1, or 0 where the norm is
        self.margin = 0.0  # screen_margin of the dim, set with the matrix
        self.ts = np.zeros(0, dtype=np.int64)  # FREE_TS on a free row
        self.norms = np.zeros(0)
        self.ids = np.zeros(0, dtype=object)  # row -> record_id, stale on a free row
        self.row_of: dict[str, int] = {}
        self._free: list[int] = []

    def write(self, record: MemoryRecord):
        """Write the record's embedding, ts, id and norms into its row; free it if unembedded."""
        embedding = record.embedding
        if embedding is None:
            self.drop(record.record_id)
            return
        row = self.row_of.get(record.record_id)
        if row is None:
            row = self._allocate(embedding.shape[0])
            self.row_of[record.record_id] = row
        self.ids[row] = record.record_id
        self.matrix[row] = embedding
        self.ts[row] = record.ts
        norm = vector_norm(embedding)
        self.norms[row] = norm
        self.unit[row] = to_unit(embedding, norm)  # cast to float32 as it is stored

    def drop(self, record_id: str):
        row = self.row_of.pop(record_id, None)
        if row is not None:
            self.ts[row] = FREE_TS
            self._free.append(row)

    def _allocate(self, dim: int) -> int:
        if self._free:
            return self._free.pop()
        if self.matrix is None:
            self.matrix, self.unit = np.zeros((0, dim)), np.zeros((0, dim), dtype=np.float32)
            self.margin = screen_margin(dim)
        row = len(self.row_of)  # no row is free, so every allocated row is mapped
        if row == self.matrix.shape[0]:
            # 1,024 rows first, then doubling; pages never written stay unmapped
            capacity = max(1024, 2 * row)
            self.matrix, self.unit, self.ts, self.norms, self.ids = (
                _grown(a, capacity)
                for a in (self.matrix, self.unit, self.ts, self.norms, self.ids))
        return row

    def screen(self, unit_query: np.ndarray, now: Optional[int], exclude: Iterable[str],
               top: Optional[int], floor: Optional[float],
               rows: Optional[Iterable[str]]) -> np.ndarray:
        """Rows of the visible records whose screened score may reach the exact top or floor.

        ``unit_query`` is the query's float32 ``to_unit`` form; ``now`` None means every
        live record is visible.
        """
        n = len(self.row_of) + len(self._free)
        if n == 0:
            return NO_ROWS
        row_of = self.row_of
        if rows is None:
            span = None
            scores = self.unit[:n].dot(unit_query)
            # a hidden row scores -inf, below any live row's screened score;
            # a free row's FREE_TS passes no now
            if now is not None:
                scores[self.ts[:n] >= now] = -np.inf
            elif self._free:
                scores[self._free] = -np.inf
            for row in map(row_of.get, exclude):
                if row is not None:
                    scores[row] = -np.inf
        else:
            # only the chosen visible rows, so lsh_hash's probes do not pay for the store
            chosen = {row_of[r] for r in rows if r in row_of}.difference(map(row_of.get, exclude))
            span = np.fromiter(sorted(chosen), dtype=np.intp, count=len(chosen))
            if now is not None:
                span = span[self.ts[span] < now]
            scores = self.unit[span].dot(unit_query)
        if not scores.size:
            return NO_ROWS
        kept = None  # every row not hidden
        if floor is not None:
            # no live row screens below -1 - margin, so a lower floor screens as -1
            threshold = max(floor, -1.0) - self.margin
            if scores[scores.argmax()] < threshold:
                return NO_ROWS
            kept = np.flatnonzero(scores >= threshold)
        if top is not None:
            pool = scores if kept is None else scores[kept]
            if pool.size > top:
                cut = float(np.partition(pool, pool.size - top)[pool.size - top])
                if cut > -np.inf:  # at least ``top`` rows are not hidden
                    near = np.flatnonzero(pool >= cut - 2.0 * self.margin)
                    kept = near if kept is None else kept[near]
        if kept is None:
            kept = np.flatnonzero(scores > -np.inf)
        return kept if span is None else span[kept]


class Postings:
    """Per-record key counts plus postings (see module docstring)."""

    def __init__(self):
        self.counts: dict[str, dict[Hashable, int]] = {}
        self.postings: dict[Hashable, dict[str, int]] = {}

    def add(self, record_id: str, keys: Iterable[Hashable]):
        """Index the record under ``keys``, replacing any earlier entry.

        Only the keys whose count changed are written; a record indexed for
        the first time had none.
        """
        counts: dict[Hashable, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        postings = self.postings
        old = self.counts.pop(record_id, {})
        for key in old:
            if key not in counts:
                bucket = postings[key]
                del bucket[record_id]
                if not bucket:
                    del postings[key]
        for key, count in counts.items():
            if old.get(key) != count:
                postings.setdefault(key, {})[record_id] = count
        if counts:
            self.counts[record_id] = counts

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
    or a signal's embedding; a query on a backend that never does embeds
    nothing, and neither does an insert unless the consolidation policy
    reads vectors.
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
        self.initial_strength_s = DEFAULT_STRENGTH_S
        self.evicted_total = 0
        self._index = EmbeddingIndex()
        self._postings = Postings()
        # at or above every live record's ts: raised by _write, never lowered
        self._ts_bound = TS_MIN
        # ids inserted, touched, reindexed, removed or moved between tiers
        # since a policy last took them; None until a policy asks (``watch``)
        self.changed: Optional[set[str]] = None

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
            self._write(record)
            self._after_add(record)
            ids.append(record.record_id)
        return ids

    def _write(self, record: MemoryRecord):
        """Write the record into its postings, its index row and the ts bound, and note it."""
        self._postings.add(record.record_id, self._index_keys(record))
        self._index.write(record)
        self._ts_bound = max(self._ts_bound, record.ts)
        self._note(record.record_id)

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
        self._note(record.record_id)

    def nearest(self, query: np.ndarray | MemoryRecord, now: Optional[int] = None,
                exclude: Iterable[str] = (), top: Optional[int] = None,
                floor: Optional[float] = None,
                rows: Optional[Iterable[str]] = None) -> list[tuple[MemoryRecord, float]]:
        """Live embedded records by exact cosine to ``query``, best first.

        ``query`` is a vector, or a live embedded record of this store, whose
        own index row (embedding, norm and float32 form) is read in place of
        its vector's: the scores are the same bits. Visible at ``now`` (all
        live records when None), minus ``exclude``, restricted to the ids in
        ``rows`` when given. The result holds every record with ``cosine >=
        floor`` that can rank among the ``top`` best, plus any whose float32
        screened score lies within twice the screen's error bound of the
        ``top``-th screened score, so callers slice or re-rank it. A floor
        that no screened score can reach returns ``[]`` after the product.
        """
        if top is not None and top < 1:
            return []
        ranked, sims = self._ranked_rows(query, now, exclude, top, floor, rows)
        if not ranked:
            return []
        records = self._records
        return [(records[record_id], sim) for record_id, sim in zip(ranked, sims)]

    def _ranked_rows(self, query: np.ndarray | MemoryRecord, now: Optional[int],
                     exclude: Iterable[str] = (), top: Optional[int] = None,
                     floor: Optional[float] = None,
                     rows: Optional[Iterable[str]] = None) -> tuple[list[str], list[float]]:
        """The ids of what ``nearest`` returns, best first, and their exact cosines."""
        index = self._index
        if isinstance(query, MemoryRecord):
            row = index.row_of[query.record_id]
            vector, norm, unit = index.matrix[row], index.norms[row], index.unit[row]
        else:
            vector, norm = query, vector_norm(query)
            unit = to_unit(query, norm).astype(np.float32)
        survivors = index.screen(unit, self._visible_before(now), exclude, top, floor, rows)
        if not survivors.size:  # as most insert-time screens keep
            return [], []
        if survivors.size >= PAIRS_BELOW:
            sims = batch_cosines(index, survivors, vector, norm)
            if floor is not None:
                kept = sims >= floor
                survivors, sims = survivors[kept], sims[kept]
            # by descending cosine, then record_id in str order: the last key leads
            order = np.lexsort((index.ids[survivors], -sims))
            return index.ids[survivors[order]].tolist(), sims[order].tolist()
        survivors = survivors.tolist()
        ids = index.ids
        sims = pair_cosines(index, survivors, vector, norm)
        scores = {ids[row]: sim for row, sim in zip(survivors, sims)
                  if floor is None or sim >= floor}
        ranked = rank_ids(scores)
        return ranked, [scores[record_id] for record_id in ranked]

    def _visible_before(self, now: Optional[int]) -> Optional[int]:
        """``now``, or None when no live record's ts reaches it."""
        return None if now is None or self._ts_bound < now else now

    def _key_totals(self, signal: RetrievalSignal) -> dict[str, int]:
        """Summed key counts of every record sharing a query token, visible or not."""
        postings = self._postings.postings
        buckets = [postings[token] for token in dict.fromkeys(index_tokens(signal.lexical_text()))
                   if token in postings]
        if not buckets:
            return {}
        largest = max(buckets, key=len)
        totals = dict(largest)
        for bucket in buckets:
            if bucket is not largest:
                for record_id, count in bucket.items():
                    totals[record_id] = totals.get(record_id, 0) + count
        return totals

    def _lexical_ranking(self, signal: RetrievalSignal,
                         now: Optional[int]) -> tuple[list[str], dict[str, int]]:
        """Ids of the visible records sharing a query token, best first, and their totals.

        The totals also hold any hidden record sharing a token; read them by
        the ids.
        """
        totals = self._key_totals(signal)
        now = self._visible_before(now)
        visible = None
        if now is not None:
            records = self._records
            visible = [record_id for record_id in totals if records[record_id].ts < now]
        return rank_ids(totals, visible), totals

    def _lexical_search(self, signal: RetrievalSignal, k: int,
                        now: Optional[int]) -> list[Candidate]:
        """Top ``k`` by term frequency, divided by the best total."""
        ranked, totals = self._lexical_ranking(signal, now)
        if not ranked:
            return []
        top = float(totals[ranked[0]])
        records = self._records
        return [Candidate(record=records[record_id], score=float(totals[record_id]) / top)
                for record_id in ranked[:k]]

    def _vector_search(self, signal: RetrievalSignal, k: int, now: Optional[int],
                       rows: Optional[Iterable[str]] = None) -> list[Candidate]:
        """Top ``k`` by folded cosine to the signal's embedding, ranked after folding."""
        ranked, sims = self._ranked_rows(signal.embedding, now, top=k, rows=rows)
        scores = dict(zip(ranked, map(fold_cosine, sims)))
        records = self._records
        return [Candidate(record=records[record_id], score=scores[record_id])
                for record_id in rank_ids(scores)[:k]]

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
        self._note(record_id)
        self._after_remove(record)

    def reindex(self, record: MemoryRecord):
        """Refresh index entries after an in-place text/embedding/ts change."""
        self._check_dim(record)
        self._write(record)

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
    # change reports (read by consolidation policies)
    # ------------------------------------------------------------------
    def watch(self):
        """Report changed ids in ``changed`` from now on, starting with every live one."""
        self.changed = set(self._records)

    def take_changed(self) -> set[str]:
        """The ids changed since ``watch`` or the last take, and start a new set."""
        changed, self.changed = self.changed, set()
        return changed

    def _note(self, record_id: str):
        """The one hook: every insert, touch, reindex, removal and tier move calls it."""
        if self.changed is not None:
            self.changed.add(record_id)

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
