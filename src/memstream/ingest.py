"""Insertion-side operators: normalization strategies and consolidation
policies, plus the pipeline wrappers the orchestrator calls.

Normalization turns one inbound turn into records, each built by ``_unit``,
before the tentative insert; consolidation mutates the store right after it.
``run_normalize`` returns ``(records, flags)`` and ``run_consolidate``
``(actions, flags)``; the flags name each fallback the request took.
Operators call the gateway without naming a stage: the orchestrator bills
their calls to the stage it has open.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .config import ConsolidateConfig, NormalizeConfig
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
from .stores.base import MemoryStore, rank_ids
from .stream import InsertPayload
from .text import index_tokens

US_PER_S = 1_000_000.0


# ----------------------------------------------------------------------
# normalization (runs before the tentative insert)
# ----------------------------------------------------------------------

def _unit(h: InsertPayload, ts: int, text: str, embedding: Optional[np.ndarray] = None,
          **fields) -> MemoryRecord:
    """A record of turn ``h`` holding ``text``; the store assigns its id."""
    return MemoryRecord(record_id="", text=text, ts=ts, session_id=h.session_id,
                        turn_index=h.turn_index, embedding=embedding, **fields)


def normalize_none(h: InsertPayload, ts: int, gateway: Gateway) -> list[MemoryRecord]:
    """Store the turn verbatim with its embedding."""
    embedding = gateway.vectors_for([h.context])[0]
    return [_unit(h, ts, h.context, embedding, speaker=h.speaker)]


def normalize_enrich(h: InsertPayload, ts: int, gateway: Gateway,
                     max_sentences: int) -> list[MemoryRecord]:
    """Raw record plus a gateway-written summary record."""
    summary_text = gateway.chat(
        "summarize", {"text": h.context, "max_sentences": max_sentences}).strip()
    if not summary_text:
        raise GatewayError("empty", "summarizer returned an empty completion")
    raw_vec, summary_vec = gateway.vectors_for([h.context, summary_text])
    return [_unit(h, ts, h.context, raw_vec, speaker=h.speaker),
            _unit(h, ts, summary_text, summary_vec, kind=KIND_SUMMARY)]


def normalize_rewrite(h: InsertPayload, gateway: Gateway,
                      max_triplets: int) -> list[Triplet]:
    """Extract at most max_triplets facts; the raw text is NOT kept."""
    reply = gateway.chat(
        "triplets", {"text": h.context, "max_triplets": max_triplets}).strip()
    if reply.lower() == "no facts" or not reply:
        return []
    triplets = []
    for line in reply.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3 or not all(parts):
            raise UnparseableExtraction(
                f"expected 'subject | relation | object', got {line!r}")
        triplets.append(Triplet(subject=parts[0], relation=parts[1], object=parts[2]))
        if len(triplets) >= max_triplets:
            break
    return triplets


def run_normalize(h: InsertPayload, ts: int, cfg: NormalizeConfig,
                  gateway: Gateway) -> tuple[list[MemoryRecord], list[str]]:
    """Dispatch by strategy with the pipeline's fail-open policy.

    Gateway trouble downgrades to the raw record (never drop the turn);
    the returned flags record that a downgrade happened.
    """
    flags: list[str] = []
    if cfg.strategy == "enrich":
        try:
            return normalize_enrich(h, ts, gateway, cfg.summary_max_sentences), flags
        except GatewayError:
            flags.append("enrich_fallback")
    elif cfg.strategy == "rewrite":
        try:
            triplets = normalize_rewrite(h, gateway, cfg.max_triplets)
            if not triplets:
                return [], flags
            texts = [t.linearize() for t in triplets]
            vectors = gateway.vectors_for(texts)
            return [_unit(h, ts, text, vec, kind=KIND_TRIPLET, triplet=triplet)
                    for triplet, text, vec in zip(triplets, texts, vectors)], flags
        except (GatewayError, UnparseableExtraction):
            flags.append("rewrite_fallback")
    # "none", and the fallback of a failed enrich or rewrite
    try:
        return normalize_none(h, ts, gateway), flags
    except GatewayError:
        # embedding service down: keep the turn, lexical search still works
        flags.append("embed_failed")
        return [_unit(h, ts, h.context, speaker=h.speaker)], flags


# ----------------------------------------------------------------------
# consolidation (runs right after the tentative insert)
# ----------------------------------------------------------------------

# The policies that read embeddings, through ``MemoryStore.nearest``: a run
# with one of them embeds even on a store whose search reads no vectors.
VECTOR_POLICIES = frozenset({"crud", "semantic_consolidation", "link_evolution"})


def _nearest_existing(store: MemoryStore, record: MemoryRecord,
                      exclude: set[str], limit: int) -> list[MemoryRecord]:
    """Top existing records by embedding cosine, lexical overlap fallback."""
    if record.embedding is not None:
        scored = store.nearest(record, exclude=exclude, top=limit)
        return [r for r, _ in scored[:limit]]
    tokens = set(index_tokens(record.text))
    overlaps = {}
    for r in store.all_records():
        if r.record_id in exclude:
            continue
        overlap = len(tokens & set(index_tokens(r.text)))
        if overlap:
            overlaps[r.record_id] = overlap
    return [store.get(record_id) for record_id in rank_ids(overlaps)[:limit]]


def consolidate_crud(store: MemoryStore, new_ids: list[str], gateway: Gateway,
                     neighbor_count: int = 3) -> tuple[list[str], list[str]]:
    """Ask the gateway for one ADD/UPDATE/DELETE/NOOP decision per new unit.

    New units are already inserted, so ADD and NOOP both leave them in
    place; UPDATE removes the superseded record; DELETE removes its target.
    A gateway failure keeps everything (NOOP) and flags the request.
    """
    actions: list[str] = []
    flags: list[str] = []
    exclude = set(new_ids)
    for new_id in new_ids:
        record = store.get(new_id)
        neighbors = _nearest_existing(store, record, exclude, neighbor_count)
        neighbor_lines = "\n".join(f"{n.record_id}\t{n.text}" for n in neighbors)
        try:
            reply = gateway.chat(
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


def retention(record: MemoryRecord, now: int) -> float:
    """r = exp(-dt/S), dt in seconds since last access."""
    dt_s = max(0.0, (now - record.last_access) / US_PER_S)
    return math.exp(-dt_s / record.strength)


def forgetting_curve(store: MemoryStore, now: int,
                     retention_threshold: float) -> list[str]:
    """Evict every record whose retention dropped below the threshold.

    Returns the ids this pass removed. A victim already gone when its turn
    comes is skipped: on summary_vector, removing a session's last member
    also removes the session summary.
    """
    victims = [
        record.record_id
        for record in store.all_records()
        if retention(record, now) < retention_threshold
    ]
    evicted = []
    for record_id in victims:
        if store.is_live(record_id):
            store.remove(record_id)
            evicted.append(record_id)
    return evicted


def heat(record: MemoryRecord, now: int, alpha: float, beta: float,
         tau_s: float) -> float:
    dt_s = max(0.0, (now - record.last_access) / US_PER_S)
    return alpha * record.access_count + beta * math.exp(-dt_s / tau_s)


def heat_migration(store: MemoryStore, now: int,
                   cfg: ConsolidateConfig) -> list[str]:
    """Promote hot records one tier toward short_term, demote cold ones.

    Only meaningful on tiered backends; others raise UnsupportedBackend. A
    tiered backend keeps every record in a tier of ``TIER_ORDER``.
    """
    if not store.supports_tiers:
        raise UnsupportedBackend(
            f"backend {store.name!r} has no tiers to migrate between")
    migrations = []
    for record in store.all_records():
        idx = TIER_ORDER.index(record.tier)
        score = heat(record, now, cfg.heat_alpha, cfg.heat_beta, cfg.heat_tau_s)
        if score >= cfg.hot_heat and idx > 0:
            target = TIER_ORDER[idx - 1]
        elif score < cfg.cold_heat and idx < len(TIER_ORDER) - 1:
            target = TIER_ORDER[idx + 1]
        else:
            continue
        origin = record.tier
        store.migrate(record.record_id, target)
        migrations.append(f"MIGRATE {record.record_id} {origin}->{target}")
    return migrations


def link_evolution(store: MemoryStore, new_ids: list[str],
                   link_top_m: int, link_threshold: float) -> list[str]:
    """Bidirectional links from each new record to its nearest neighbors."""
    if not store.supports_links:
        raise UnsupportedBackend(
            f"backend {store.name!r} does not maintain links")
    created = []
    exclude = set(new_ids)
    for new_id in new_ids:
        record = store.get(new_id)
        if record.embedding is None:
            continue
        scored = store.nearest(record, exclude=exclude, top=link_top_m, floor=link_threshold)
        for other, _sim in scored[:link_top_m]:
            record.links.add(other.record_id)
            other.links.add(new_id)
            created.append(f"LINK {new_id}<->{other.record_id}")
    return created


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
            older.embedding = merged / norm
    elif older.embedding is None:
        older.embedding = newer.embedding
    store.reindex(older)
    store.remove(newer.record_id)


def semantic_consolidation(store: MemoryStore, new_ids: list[str],
                           dedup_threshold: float) -> list[str]:
    """Merge each new record into its closest near-duplicate predecessor."""
    merged = []
    exclude = set(new_ids)
    for new_id in new_ids:
        newer = store.get(new_id)
        if newer.embedding is None:
            continue
        scored = store.nearest(newer, exclude=exclude, top=1, floor=dedup_threshold)
        if scored:
            best = scored[0][0]
            merge_records(store, best, newer)
            merged.append(f"MERGE {new_id}->{best.record_id}")
    return merged


def run_consolidate(store: MemoryStore, new_ids: list[str], now: int,
                    cfg: ConsolidateConfig, gateway: Gateway,
                    insert_index: int) -> tuple[list[str], list[str]]:
    """Dispatch by strategy, one of ``CONSOLIDATE_STRATEGIES`` (``run_experiment``
    validates it); fires only on every_n boundaries."""
    if cfg.strategy == "none" or insert_index % cfg.every_n != 0:
        return [], []
    # capacity eviction during a multi-unit insert can take out a sibling
    new_ids = [record_id for record_id in new_ids if store.is_live(record_id)]
    if cfg.strategy == "crud":
        return consolidate_crud(store, new_ids, gateway)
    if cfg.strategy == "forgetting_curve":
        evicted = forgetting_curve(store, now, cfg.retention_threshold)
        return [f"EVICT {rid}" for rid in evicted], []
    if cfg.strategy == "heat_migration":
        return heat_migration(store, now, cfg), []
    if cfg.strategy == "link_evolution":
        return link_evolution(store, new_ids, cfg.link_top_m, cfg.link_threshold), []
    # semantic_consolidation, the last strategy
    return semantic_consolidation(store, new_ids, cfg.dedup_threshold), []
