"""Retrieval-side operators: query formulation strategies, search execution,
context integration strategies, and bundle assembly.

Formulation produces the RetrievalSignals a query searches, search runs them
against the store, and integration reshapes the candidate list and builds
the final ContextBundle. Each strategy axis is a table from strategy name
(``none`` included) to one function, and ``config`` takes the axis's valid
names from it. A ``FORMULATORS`` function takes ``(q, cfg, gateway)`` and
returns ``(signals, flags)``: one signal per part of a compound question,
one otherwise. An ``INTEGRATORS`` function takes the arguments of
``run_integrate``, those of ``integrate_none``, and returns ``(candidates,
flags)``. Each reads its parameters from ``cfg``. ``run_formulate`` and
``run_integrate`` look the strategy up, and a strategy that fails on the
gateway falls back to ``none``, flagged ``<strategy>_fallback``;
``run_integrate`` then returns ``(ContextBundle, flags)``. The flags name
each fallback the request took. Operators call the gateway without naming a
stage: the orchestrator bills their calls to the stage it has open.
``execute_search`` makes one store retrieve for a single signal; the
rankings of several signals, like the paraphrase rankings of
``multi_query``, are fused by ``fused_candidates``, the store layer's
reciprocal-rank fusion.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .errors import GatewayError
from .gateway import Gateway
from .records import (
    KIND_RAW,
    TIER_NAMES,
    Candidate,
    ContextBundle,
    MemoryRecord,
    RetrievalSignal,
    ts_to_iso,
)
from .stores.base import MemoryStore, fused_candidates, rank_ids
from .stream import RetrievePayload

if TYPE_CHECKING:  # config imports the tables below: annotations only, no cycle
    from .config import FormulateConfig, IntegrateConfig

US_PER_DAY = 86_400.0 * 1_000_000.0
TOKEN_FACTOR = 1.3  # whitespace tokens to budget-token estimate


# ----------------------------------------------------------------------
# D4: query formulation
# ----------------------------------------------------------------------

def formulate_none(q: RetrievePayload, cfg: FormulateConfig,
                   gateway: Gateway) -> tuple[tuple[RetrievalSignal, ...], list[str]]:
    """One signal: the raw query with its embedding."""
    embedding = gateway.vectors_for([q.query])[0]
    return (RetrievalSignal(raw_query=q.query, embedding=embedding),), []


def formulate_validate(q: RetrievePayload, cfg: FormulateConfig,
                       gateway: Gateway) -> tuple[tuple[RetrievalSignal, ...], list[str]]:
    """Ask whether retrieval is needed at all; small talk skips the search."""
    reply = gateway.chat("validate", {"query": q.query}).strip().upper()
    if reply == "SKIP":
        return (RetrievalSignal(raw_query=q.query, skip=True),), []
    return formulate_none(q, cfg, gateway)


def formulate_keyword(q: RetrievePayload, cfg: FormulateConfig,
                      gateway: Gateway) -> tuple[tuple[RetrievalSignal, ...], list[str]]:
    """Keywords replace the raw query as the lexical signal.

    With ``keyword_augments`` they extend it instead: the signal text
    becomes the raw query plus the keywords (flagged so reports can tell).
    An empty reply falls back to the plain signal, flagged.
    """
    reply = gateway.chat(
        "keywords", {"query": q.query, "max_keywords": cfg.max_keywords}).strip()
    if not reply:
        return formulate_none(q, cfg, gateway)[0], ["keyword_fallback"]
    keywords = tuple(reply.split())
    if cfg.keyword_augments:
        joined = f"{q.query} {' '.join(keywords)}"
        embedding = gateway.vectors_for([joined])[0]
        return (RetrievalSignal(raw_query=joined, embedding=embedding),), ["keyword_augmented"]
    embedding = gateway.vectors_for([" ".join(keywords)])[0]
    return (RetrievalSignal(raw_query=q.query, embedding=embedding, keywords=keywords),), []


def formulate_decompose(q: RetrievePayload, cfg: FormulateConfig,
                        gateway: Gateway) -> tuple[tuple[RetrievalSignal, ...], list[str]]:
    """Split a compound question; each part gets its own embedded signal.

    An atomic question gives one signal: the raw query text with its one
    part's embedding.
    """
    max_subqueries = cfg.max_subqueries
    reply = gateway.chat(
        "decompose", {"query": q.query, "max_subqueries": max_subqueries}).strip()
    parts = [line.strip() for line in reply.splitlines() if line.strip()]
    if not parts:
        parts = [q.query]
    parts = parts[:max_subqueries]
    vectors = gateway.vectors_for(parts)
    if len(parts) == 1:
        return (RetrievalSignal(raw_query=q.query, embedding=vectors[0]),), []
    return tuple(RetrievalSignal(raw_query=part, embedding=vec)
                 for part, vec in zip(parts, vectors)), []


FORMULATORS = {
    "none": formulate_none,
    "validate": formulate_validate,
    "keyword": formulate_keyword,
    "decompose": formulate_decompose,
}


def run_formulate(q: RetrievePayload, cfg: FormulateConfig,
                  gateway: Gateway) -> tuple[tuple[RetrievalSignal, ...], list[str]]:
    """The signals of ``cfg.strategy``, failing open to the plain embedded query.

    A strategy that hits gateway trouble falls back to ``none``, flagged
    ``<strategy>_fallback``; if that embed fails too, the raw query is
    searched unembedded, flagged ``embed_failed``.
    """
    flags: list[str] = []
    strategy = cfg.strategy
    if strategy != "none":
        try:
            return FORMULATORS[strategy](q, cfg, gateway)
        except GatewayError:
            flags.append(f"{strategy}_fallback")
    try:
        return formulate_none(q, cfg, gateway)[0], flags
    except GatewayError:
        flags.append("embed_failed")
        return (RetrievalSignal(raw_query=q.query),), flags


# ----------------------------------------------------------------------
# search execution
# ----------------------------------------------------------------------

def execute_search(store: MemoryStore, signals: tuple[RetrievalSignal, ...], k: int,
                   now: Optional[int]) -> list[Candidate]:
    """One retrieve for a single signal; several signals' retrieves fused by RRF."""
    if len(signals) == 1:
        return store.retrieve(signals[0], k, now=now)
    per_signal = math.ceil(k / len(signals))
    rankings = [[c.record_id for c in store.retrieve(signal, per_signal, now=now)]
                for signal in signals]
    return fused_candidates(rankings, store.get, k)


# ----------------------------------------------------------------------
# D5: context integration
# ----------------------------------------------------------------------

def integrate_none(query: str, cands: list[Candidate], store: MemoryStore,
                   gateway: Gateway, cfg: IntegrateConfig, k: int,
                   now: Optional[int]) -> tuple[list[Candidate], list[str]]:
    """The candidates as retrieved."""
    return list(cands), []


def integrate_time_weighted(query, cands, store, gateway, cfg, k, now):
    """score' = score * exp(-lambda * age_days); stable on ties."""
    decay_lambda = cfg.decay_lambda
    rescored = [
        Candidate(
            record=c.record,
            score=c.score * math.exp(-decay_lambda * max(0, now - c.record.ts) / US_PER_DAY),
        )
        for c in cands
    ]
    return sorted(rescored, key=lambda c: -c.score), []


def integrate_threshold(query, cands, store, gateway, cfg, k, now):
    """The candidates scoring at least ``score_threshold``."""
    return [c for c in cands if c.score >= cfg.score_threshold], []


def integrate_multi_tier(query, cands, store, gateway, cfg, k, now):
    """Per-tier quotas in tier order (``k`` a tier by default), dedup by id keeping max score."""
    quotas = cfg.tier_quotas
    if quotas is None:
        quotas = {tier: k for tier in TIER_NAMES}
    by_tier: dict[str, list[Candidate]] = {}
    for cand in cands:
        by_tier.setdefault(cand.record.tier, []).append(cand)
    best: dict[str, Candidate] = {}
    for tier in TIER_NAMES:
        quota = quotas.get(tier, 0)
        for cand in by_tier.get(tier, [])[:quota]:
            held = best.get(cand.record_id)
            if held is None or cand.score > held.score:
                best[cand.record_id] = cand
    return [best[record_id]
            for record_id in rank_ids({record_id: c.score for record_id, c in best.items()})], []


def integrate_augment(query, cands, store, gateway, cfg, k, now):
    """Attach +-``augment_window`` neighboring turns after each raw-turn candidate.

    Neighbors carry zero score (pure provenance) and are never duplicated
    against existing candidates or each other.
    """
    window = cfg.augment_window
    if window <= 0:
        return list(cands), []
    seen = {c.record_id for c in cands}
    out: list[Candidate] = []
    for cand in cands:
        out.append(cand)
        record = cand.record
        if record.kind != KIND_RAW or not record.session_id:
            continue
        for neighbor in store.turn_neighbors(record.session_id,
                                             record.turn_index, window, now):
            if neighbor.record_id in seen:
                continue
            seen.add(neighbor.record_id)
            out.append(Candidate(record=neighbor, score=0.0))
    return out, []


def integrate_multi_query(query, cands, store, gateway, cfg, k, now):
    """Paraphrase the query ``multi_query_count`` times, re-retrieve, RRF-fuse with the original.

    Each paraphrase is embedded and retrieved before the next is asked for,
    so a gateway failure midway keeps the access bookkeeping of the
    retrieves already made.
    """
    rankings = [[c.record_id for c in cands]]
    for index in range(cfg.multi_query_count):
        paraphrase = gateway.chat("paraphrase", {"query": query, "index": index}).strip()
        if not paraphrase:
            continue
        embedding = gateway.vectors_for([paraphrase])[0]
        signal = RetrievalSignal(raw_query=paraphrase, embedding=embedding)
        rankings.append([c.record_id for c in store.retrieve(signal, k, now=now)])
    return fused_candidates(rankings, store.get, max(k, len(cands))), []


INTEGRATORS = {
    "none": integrate_none,
    "time_weighted": integrate_time_weighted,
    "threshold": integrate_threshold,
    "multi_tier": integrate_multi_tier,
    "augment": integrate_augment,
    "multi_query": integrate_multi_query,
}


# ----------------------------------------------------------------------
# bundle assembly
# ----------------------------------------------------------------------

def estimate_tokens(text: str) -> int:
    return round(len(text.split()) * TOKEN_FACTOR)


def context_line(record: MemoryRecord) -> str:
    speaker = record.speaker if record.speaker else "unknown"
    return f"[ts={ts_to_iso(record.ts)}] {speaker}: {record.text}"


def build_bundle(cands: list[Candidate],
                 budget_tokens: int) -> tuple[ContextBundle, bool]:
    """Concatenate candidates in order until the token budget would overflow.

    Returns (bundle, truncated). Provenance covers exactly the included
    records, id-deduplicated.
    """
    lines: list[str] = []
    provenance: list[tuple[str, float, int]] = []
    seen: set[str] = set()
    used = 0
    truncated = False
    for cand in cands:
        if cand.record_id in seen:
            continue
        line = context_line(cand.record)
        cost = estimate_tokens(line)
        if used + cost > budget_tokens:
            truncated = True
            break
        seen.add(cand.record_id)
        lines.append(line)
        provenance.append((cand.record_id, cand.score, cand.record.ts))
        used += cost
    bundle = ContextBundle(text="\n".join(lines), provenance=tuple(provenance),
                           token_estimate=used)
    return bundle, truncated


def run_integrate(query: str, cands: list[Candidate], store: MemoryStore,
                  gateway: Gateway, cfg: IntegrateConfig, k: int,
                  now: Optional[int]) -> tuple[ContextBundle, list[str]]:
    """Reshape the candidates by ``cfg.strategy``, then bundle them under the budget.

    A strategy that hits gateway trouble bundles the candidates as
    retrieved, flagged ``<strategy>_fallback``.
    """
    try:
        working, flags = INTEGRATORS[cfg.strategy](query, cands, store, gateway, cfg, k, now)
    except GatewayError:
        working, flags = list(cands), [f"{cfg.strategy}_fallback"]
    bundle, truncated = build_bundle(working, cfg.budget_tokens)
    if truncated:
        flags.append("budget_truncated")
    return bundle, flags
