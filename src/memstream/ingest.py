"""Insertion-side operators: normalization strategies and consolidation
policies, plus the pipeline wrappers the orchestrator calls.

Each axis is a table from strategy name to its implementation, and
``config`` takes the axis's valid names from it. Normalization turns one
inbound turn into records, each built by ``_unit``, before the tentative
insert: ``NORMALIZERS`` maps each strategy to a function ``(h, ts, cfg,
gateway) -> records``, and ``run_normalize`` looks it up and returns
``(records, flags)``, falling back to ``none`` when the strategy fails.
Consolidation mutates the store right after the insert. Each strategy is
one policy class in ``POLICIES``, which holds its whole pass:
``build_policy`` makes one object per run, beside the store, and
``run_consolidate`` hands it each insert's live new ids on ``every_n``
boundaries; its ``consolidate`` returns ``(actions, flags)``. crud,
link_evolution and semantic_consolidation query ``MemoryStore.nearest``
with each new record, so their classes set ``reads_vectors``.
forgetting_curve and heat_migration keep deadline heaps from one pass to
the next, fed by the ids the store reports changed (``MemoryStore.watch``),
so a pass costs what changed or came due, not what the store holds. The
flags name each fallback the request took. Operators call the gateway
without naming a stage: the orchestrator bills their calls to the stage it
has open.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import GatewayError, UnparseableExtraction, UnsupportedBackend
from .gateway import Gateway
from .records import (
    KIND_SUMMARY,
    KIND_TRIPLET,
    MemoryRecord,
    TIER_ORDER,
    Triplet,
    vector_norm,
)
from .stores.base import MemoryStore, insert_order, rank_ids
from .stream import TS_END, TS_MIN, InsertPayload
from .text import index_tokens

if TYPE_CHECKING:  # config imports the tables below: annotations only, no cycle
    from .config import ConsolidateConfig, NormalizeConfig

US_PER_S = 1_000_000.0


# ----------------------------------------------------------------------
# normalization (runs before the tentative insert)
# ----------------------------------------------------------------------

def _unit(h: InsertPayload, ts: int, text: str, embedding: Optional[np.ndarray] = None,
          **fields) -> MemoryRecord:
    """A record of turn ``h`` holding ``text``; the store assigns its id."""
    return MemoryRecord(record_id="", text=text, ts=ts, session_id=h.session_id,
                        turn_index=h.turn_index, embedding=embedding, **fields)


def normalize_none(h: InsertPayload, ts: int, cfg: NormalizeConfig,
                   gateway: Gateway) -> list[MemoryRecord]:
    """Store the turn verbatim with its embedding."""
    embedding = gateway.vectors_for([h.context])[0]
    return [_unit(h, ts, h.context, embedding, speaker=h.speaker)]


def normalize_enrich(h: InsertPayload, ts: int, cfg: NormalizeConfig,
                     gateway: Gateway) -> list[MemoryRecord]:
    """Raw record plus a gateway-written summary record."""
    summary_text = gateway.chat(
        "summarize", {"text": h.context, "max_sentences": cfg.summary_max_sentences}).strip()
    if not summary_text:
        raise GatewayError("empty", "summarizer returned an empty completion")
    raw_vec, summary_vec = gateway.vectors_for([h.context, summary_text])
    return [_unit(h, ts, h.context, raw_vec, speaker=h.speaker),
            _unit(h, ts, summary_text, summary_vec, kind=KIND_SUMMARY)]


def normalize_rewrite(h: InsertPayload, ts: int, cfg: NormalizeConfig,
                      gateway: Gateway) -> list[MemoryRecord]:
    """A triplet record per extracted fact, at most max_triplets; the raw text is NOT kept."""
    max_triplets = cfg.max_triplets
    reply = gateway.chat(
        "triplets", {"text": h.context, "max_triplets": max_triplets}).strip()
    if reply.lower() == "no facts" or not reply:
        return []
    triplets = []
    for line in reply.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split("|")
        try:
            if len(parts) != 3:
                raise ValueError(f"{len(parts)} fields")
            # Triplet strips each field and refuses a blank one
            triplets.append(Triplet(*parts))
        except ValueError as exc:
            raise UnparseableExtraction(
                f"expected 'subject | relation | object', got {line!r}") from exc
        if len(triplets) >= max_triplets:
            break
    texts = [t.linearize() for t in triplets]
    vectors = gateway.vectors_for(texts)
    return [_unit(h, ts, text, vec, kind=KIND_TRIPLET, triplet=triplet)
            for triplet, text, vec in zip(triplets, texts, vectors)]


NORMALIZERS = {
    "none": normalize_none,
    "enrich": normalize_enrich,
    "rewrite": normalize_rewrite,
}


def run_normalize(h: InsertPayload, ts: int, cfg: NormalizeConfig,
                  gateway: Gateway) -> tuple[list[MemoryRecord], list[str]]:
    """The records of ``cfg.strategy``, failing open to the raw record.

    A strategy that hits gateway trouble or an unparseable reply falls back
    to ``none`` (never drop the turn), flagged ``<strategy>_fallback``; if
    that embed fails too, the turn is kept unembedded, flagged
    ``embed_failed``.
    """
    flags: list[str] = []
    strategy = cfg.strategy
    if strategy != "none":
        try:
            return NORMALIZERS[strategy](h, ts, cfg, gateway), flags
        except (GatewayError, UnparseableExtraction):
            flags.append(f"{strategy}_fallback")
    try:
        return normalize_none(h, ts, cfg, gateway), flags
    except GatewayError:
        # embedding service down: keep the turn, lexical search still works
        flags.append("embed_failed")
        return [_unit(h, ts, h.context, speaker=h.speaker)], flags


# ----------------------------------------------------------------------
# consolidation (runs right after the tentative insert)
# ----------------------------------------------------------------------

# the existing records crud shows the gateway beside each new unit
CRUD_NEIGHBORS = 3


def retention(record: MemoryRecord, now: int) -> float:
    """r = exp(-dt/S), dt in seconds since last access."""
    dt_s = max(0.0, (now - record.last_access) / US_PER_S)
    return math.exp(-dt_s / record.strength)


def heat(record: MemoryRecord, now: int, alpha: float, beta: float,
         tau_s: float) -> float:
    dt_s = max(0.0, (now - record.last_access) / US_PER_S)
    return alpha * record.access_count + beta * math.exp(-dt_s / tau_s)


# a deadline is set early by this share of its exponent, plus this much of
# it, far more than the few roundings between it and the exact test
DEADLINE_SLACK = 2.0 ** -30


def decay_deadline(last_access: int, scale_s: float, level: float) -> Optional[int]:
    """A time, in us, before which ``exp(-dt_s / scale_s)`` cannot test below ``level``.

    ``dt_s`` is the seconds since ``last_access``, computed as ``retention``
    and ``heat`` compute it. None when no valid timestamp reaches the time.
    """
    if not level > 0.0:  # also NaN: nothing tests below it
        return None
    budget = -math.log(level) * (1.0 - DEADLINE_SLACK) - DEADLINE_SLACK
    if not budget > 0.0:
        return last_access
    span = scale_s * budget * US_PER_S
    if not span < TS_END - TS_MIN:
        return None
    return last_access + int(span)


def merge_records(store: MemoryStore, older: MemoryRecord,
                  newer: MemoryRecord):
    """Older record absorbs the newer one; the newer one is removed."""
    older.access_count += newer.access_count
    older.last_access = max(older.last_access, newer.last_access)
    older.strength = max(older.strength, newer.strength)
    # the merged content is visible only from its newest part's timestamp
    older.ts = max(older.ts, newer.ts)
    if newer.text and newer.text != older.text:
        older.text = f"{older.text} {newer.text}"
    if older.embedding is not None and newer.embedding is not None:
        merged = older.embedding + newer.embedding
        norm = vector_norm(merged)
        if norm > 0.0:
            merged /= norm
            older.embedding = merged
    elif older.embedding is None:
        older.embedding = newer.embedding
    store.reindex(older)
    store.remove(newer.record_id)


class Consolidation:
    """One run's consolidation policy; this base is strategy ``none``.

    ``build_policy`` makes one beside the store, and ``run_consolidate``
    hands it each insert's new ids. A policy that keeps state between passes
    calls ``store.watch()`` as it is built; the store then reports every id
    it inserts, touches, reindexes, removes or moves between tiers in
    ``store.changed``. The other policies leave that set off, so their runs
    pay nothing per touch.

    ``reads_vectors`` says whether the policy reads embeddings, through
    ``MemoryStore.nearest``: a run with such a policy embeds its inserts
    even on a store whose search reads no vectors.
    """

    reads_vectors = False

    def __init__(self, store: MemoryStore, cfg: ConsolidateConfig,
                 gateway: Optional[Gateway] = None):
        self.store, self.cfg, self.gateway = store, cfg, gateway

    def consolidate(self, new_ids: list[str], now: int) -> tuple[list[str], list[str]]:
        """``(actions, flags)`` of one pass over the store after an insert."""
        return [], []


class Crud(Consolidation):
    """Ask the gateway for one ADD/UPDATE/DELETE/NOOP decision per new unit.

    The gateway sees the unit beside its ``CRUD_NEIGHBORS`` nearest existing
    records. New units are already inserted, so ADD and NOOP both leave them
    in place; UPDATE removes the superseded record; DELETE removes its
    target. A gateway failure keeps everything (NOOP) and flags the request.
    """

    reads_vectors = True

    def neighbors(self, record: MemoryRecord, exclude: set[str]) -> list[MemoryRecord]:
        """Top existing records by embedding cosine, lexical overlap fallback."""
        store = self.store
        if record.embedding is not None:
            scored = store.nearest(record, exclude=exclude, top=CRUD_NEIGHBORS)
            return [r for r, _ in scored[:CRUD_NEIGHBORS]]
        tokens = set(index_tokens(record.text))
        overlaps = {}
        for r in store.all_records():
            if r.record_id in exclude:
                continue
            overlap = len(tokens & set(index_tokens(r.text)))
            if overlap:
                overlaps[r.record_id] = overlap
        return [store.get(record_id) for record_id in rank_ids(overlaps)[:CRUD_NEIGHBORS]]

    def consolidate(self, new_ids, now):
        store = self.store
        actions: list[str] = []
        flags: list[str] = []
        exclude = set(new_ids)
        for new_id in new_ids:
            record = store.get(new_id)
            neighbors = self.neighbors(record, exclude)
            neighbor_lines = "\n".join(f"{n.record_id}\t{n.text}" for n in neighbors)
            try:
                reply = self.gateway.chat(
                    "crud", {"new": record.text, "neighbors": neighbor_lines}).strip()
            except GatewayError:
                actions.append(f"NOOP {new_id}")
                flags.append("crud_fallback")
                continue
            parts = reply.split()
            verb = parts[0].upper() if parts else ""
            target = parts[1] if len(parts) > 1 else ""
            if verb == "ADD":
                actions.append(f"ADD {new_id}")
            elif verb == "NOOP":
                actions.append(f"NOOP {new_id}")
            elif verb in ("UPDATE", "DELETE") and target:
                if target in {n.record_id for n in neighbors}:
                    store.remove(target)
                    actions.append(
                        f"UPDATE {target}<-{new_id}" if verb == "UPDATE" else f"DELETE {target}")
                else:
                    actions.append(f"NOOP {new_id}")
                    flags.append("crud_unknown_target")
            else:
                actions.append(f"NOOP {new_id}")
                flags.append("crud_unparseable")
        return actions, flags


class LinkEvolution(Consolidation):
    """Bidirectional links from each new record to its nearest neighbors."""

    reads_vectors = True

    def consolidate(self, new_ids, now):
        store, cfg = self.store, self.cfg
        if not store.supports_links:
            raise UnsupportedBackend(
                f"backend {store.name!r} does not maintain links")
        created = []
        exclude = set(new_ids)
        for new_id in new_ids:
            record = store.get(new_id)
            if record.embedding is None:
                continue
            scored = store.nearest(record, exclude=exclude, top=cfg.link_top_m,
                                   floor=cfg.link_threshold)
            for other, _sim in scored[:cfg.link_top_m]:
                record.links.add(other.record_id)
                other.links.add(new_id)
                created.append(f"LINK {new_id}<->{other.record_id}")
        return created, []


class SemanticConsolidation(Consolidation):
    """Merge each new record into its closest near-duplicate predecessor."""

    reads_vectors = True

    def consolidate(self, new_ids, now):
        store = self.store
        merged = []
        exclude = set(new_ids)
        for new_id in new_ids:
            newer = store.get(new_id)
            if newer.embedding is None:
                continue
            scored = store.nearest(newer, exclude=exclude, top=1,
                                   floor=self.cfg.dedup_threshold)
            if scored:
                best = scored[0][0]
                merge_records(store, best, newer)
                merged.append(f"MERGE {new_id}->{best.record_id}")
        return merged, []


class ForgettingCurve(Consolidation):
    """Evict every record whose retention fell below the threshold.

    Keeps one min-heap entry per live record: ``(deadline, insert order,
    id)``, the deadline ``decay_deadline`` of its retention at the time it was
    pushed. Retention falls only while a record is left alone, and a touch
    or a merge only raises its last access and strength, so a deadline never
    comes later than the record's real one. A pass pushes the records
    inserted since the last one, then pops every entry due at ``now`` and
    decides each on the exact ``retention`` test, before it removes any
    record: a victim is kept for removal, any other is pushed again with its
    fresh deadline, at least ``now + 1``. Victims are removed in store order;
    one already gone when its turn comes is skipped (on summary_vector,
    removing a session's last member also removes the session summary).
    """

    def __init__(self, store, cfg, gateway=None):
        super().__init__(store, cfg, gateway)
        self._heap: list[tuple[int, int, str]] = []
        self._queued: set[str] = set()  # the ids with an entry in the heap
        store.watch()

    def _push(self, record: MemoryRecord, earliest: int):
        """Queue the record at its deadline, or at ``earliest`` if that is later."""
        deadline = decay_deadline(record.last_access, record.strength,
                                  self.cfg.retention_threshold)
        if deadline is not None:
            record_id = record.record_id
            heappush(self._heap, (max(deadline, earliest), insert_order(record_id), record_id))
            self._queued.add(record_id)

    def consolidate(self, new_ids, now):
        store, heap, queued = self.store, self._heap, self._queued
        for record_id in store.take_changed():
            # a touched or merged record's entry is early, never late
            if record_id not in queued and store.is_live(record_id):
                self._push(store.get(record_id), TS_MIN)
        victims = []
        while heap and heap[0][0] <= now:
            _, order, record_id = heappop(heap)
            queued.discard(record_id)
            if not store.is_live(record_id):
                continue
            record = store.get(record_id)
            if retention(record, now) < self.cfg.retention_threshold:
                victims.append((order, record_id))
            else:
                self._push(record, now + 1)
        actions = []
        for _, record_id in sorted(victims):
            if store.is_live(record_id):
                store.remove(record_id)
                actions.append(f"EVICT {record_id}")
        return actions, []


class HeatMigration(Consolidation):
    """Promote hot records one tier toward short_term, demote cold ones.

    Only meaningful on tiered backends; others raise UnsupportedBackend at
    the first pass. A tiered backend keeps every record in a tier of
    ``TIER_ORDER``.

    A pass decides, in store order and on the exact ``heat`` test, the
    records the store reported changed since the last pass (touched,
    inserted, or moved: by the last pass, or by queue_segment's overflow),
    and each record whose cold deadline came. Any other record was decided
    unchanged before, in the tier it still has, and moved nowhere. Its heat
    has only decayed since (with ``heat_beta >= 0``), so it is not hot now
    unless it was then, and it can only have turned cold, which its
    deadline tells: ``decay_deadline`` of ``(cold_heat - alpha *
    access_count) / beta``. One pass moves a record one tier, and a move
    reports it, so a record that is still hot climbs on at the next pass. A
    move made in this pass reports the record it pushed out of short_term
    too; if that record comes later in store order this pass decides it, in
    its new tier, else the next one does. A negative ``heat_beta`` makes heat
    rise between touches, so such a run decides every record every pass.
    """

    def __init__(self, store, cfg, gateway=None):
        super().__init__(store, cfg, gateway)
        self._heap: list[tuple[int, int, str]] = []
        self._deadline: dict[str, int] = {}  # id -> its live heap entry's deadline
        if store.supports_tiers:
            store.watch()

    def _cold_deadline(self, record: MemoryRecord, now: int) -> Optional[int]:
        """When a record just decided to stay may next move, at least ``now + 1``; None: never."""
        cfg = self.cfg
        if cfg.heat_beta < 0.0:
            return now + 1
        if not cfg.heat_beta > 0.0 or record.tier == TIER_ORDER[-1]:
            return None  # heat stays put, or a cold record has nowhere to go
        level = (cfg.cold_heat - cfg.heat_alpha * record.access_count) / cfg.heat_beta
        deadline = decay_deadline(record.last_access, cfg.heat_tau_s, level)
        return None if deadline is None else max(deadline, now + 1)

    def consolidate(self, new_ids, now):
        store, cfg = self.store, self.cfg
        if not store.supports_tiers:
            raise UnsupportedBackend(
                f"backend {store.name!r} has no tiers to migrate between")
        heap, deadline_of = self._heap, self._deadline
        pending = store.take_changed()
        while heap and heap[0][0] <= now:
            deadline, _, record_id = heappop(heap)
            if deadline_of.get(record_id) == deadline:
                pending.add(record_id)
        queue = []
        for record_id in pending:
            if store.is_live(record_id):
                queue.append((insert_order(record_id), record_id))
            else:
                deadline_of.pop(record_id, None)
        heapify(queue)
        migrations, later = [], set()
        while queue:
            order, record_id = heappop(queue)
            deadline_of.pop(record_id, None)
            record = store.get(record_id)
            idx = TIER_ORDER.index(record.tier)
            score = heat(record, now, cfg.heat_alpha, cfg.heat_beta, cfg.heat_tau_s)
            if score >= cfg.hot_heat and idx > 0:
                target = TIER_ORDER[idx - 1]
            elif score < cfg.cold_heat and idx < len(TIER_ORDER) - 1:
                target = TIER_ORDER[idx + 1]
            else:
                deadline = self._cold_deadline(record, now)
                if deadline is not None:
                    deadline_of[record_id] = deadline
                    heappush(heap, (deadline, order, record_id))
                continue
            origin = record.tier
            store.migrate(record_id, target)
            migrations.append(f"MIGRATE {record_id} {origin}->{target}")
            for moved in store.take_changed():
                moved_order = insert_order(moved)
                if moved_order > order and moved not in pending:
                    pending.add(moved)
                    heappush(queue, (moved_order, moved))
                else:
                    later.add(moved)
        store.changed |= later
        return migrations, []


POLICIES: dict[str, type[Consolidation]] = {
    "none": Consolidation,
    "crud": Crud,
    "forgetting_curve": ForgettingCurve,
    "heat_migration": HeatMigration,
    "link_evolution": LinkEvolution,
    "semantic_consolidation": SemanticConsolidation,
}


def build_policy(store: MemoryStore, cfg: ConsolidateConfig,
                 gateway: Optional[Gateway] = None) -> Consolidation:
    """The policy of ``cfg.strategy``, one of ``CONSOLIDATE_STRATEGIES`` (``run_experiment``
    validates it), for one run on ``store``."""
    return POLICIES[cfg.strategy](store, cfg, gateway)


def run_consolidate(policy: Consolidation, new_ids: list[str], now: int,
                    insert_index: int) -> tuple[list[str], list[str]]:
    """One insert's pass of ``policy``; fires only on every_n boundaries."""
    cfg = policy.cfg
    if cfg.strategy == "none" or insert_index % cfg.every_n != 0:
        return [], []
    # capacity eviction during a multi-unit insert can take out a sibling
    is_live = policy.store.is_live
    return policy.consolidate([record_id for record_id in new_ids if is_live(record_id)], now)
