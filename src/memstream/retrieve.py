"""Retrieval-side operators: query formulation strategies, search execution,
context integration strategies, and bundle assembly.

Formulation produces the RetrievalSignals a query searches, search runs them
against the store, and integration reshapes the candidate list and builds
the final ContextBundle. ``run_formulate`` returns ``(signals, flags)``, a
tuple of one signal per part of a compound question and one signal
otherwise, and ``run_integrate`` ``(ContextBundle, flags)``; the flags name
each fallback the request took. Operators call the gateway without naming a
stage: the orchestrator bills their calls to the stage it has open.
``execute_search`` makes one store retrieve for a single signal; the
rankings of several signals, like the paraphrase rankings of
``multi_query``, are fused by ``fused_candidates``, the store layer's
reciprocal-rank fusion.
"""

from __future__ import annotations

import math
from typing import Optional

from .config import FormulateConfig, IntegrateConfig
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

US_PER_DAY = 86_400.0 * 1_000_000.0
TOKEN_FACTOR = 1.3  # whitespace tokens to budget-token estimate


# ----------------------------------------------------------------------
# D4: query formulation
# ----------------------------------------------------------------------

def formulate_none(q: RetrievePayload, gateway: Gateway) -> RetrievalSignal:
    embedding = gateway.vectors_for([q.query])[0]
    return RetrievalSignal(raw_query=q.query, embedding=embedding)


def formulate_validate(q: RetrievePayload, gateway: Gateway) -> RetrievalSignal:
    """Ask whether retrieval is needed at all; small talk skips the search."""
    reply = gateway.chat("validate", {"query": q.query}).strip().upper()
    if reply == "SKIP":
        return RetrievalSignal(raw_query=q.query, skip=True)
    return formulate_none(q, gateway)


def formulate_keyword(q: RetrievePayload, gateway: Gateway, max_keywords: int,
                      augments: bool = False) -> tuple[RetrievalSignal, list[str]]:
    """Keywords replace the raw query as the lexical signal.

    With augments=True they extend it instead: the signal text becomes
    the raw query plus the keywords (flagged so reports can tell).
    An empty reply falls back to the plain signal, flagged.
    """
    reply = gateway.chat(
        "keywords", {"query": q.query, "max_keywords": max_keywords}).strip()
    if not reply:
        return formulate_none(q, gateway), ["keyword_fallback"]
    keywords = tuple(reply.split())
    if augments:
        joined = f"{q.query} {' '.join(keywords)}"
        embedding = gateway.vectors_for([joined])[0]
        return RetrievalSignal(raw_query=joined, embedding=embedding), ["keyword_augmented"]
    embedding = gateway.vectors_for([" ".join(keywords)])[0]
    return RetrievalSignal(raw_query=q.query, embedding=embedding, keywords=keywords), []


def formulate_decompose(q: RetrievePayload, gateway: Gateway,
                        max_subqueries: int) -> tuple[RetrievalSignal, ...]:
    """Split a compound question; each part gets its own embedded signal.

    An atomic question gives one signal: the raw query text with its one
    part's embedding.
    """
    reply = gateway.chat(
        "decompose", {"query": q.query, "max_subqueries": max_subqueries}).strip()
    parts = [line.strip() for line in reply.splitlines() if line.strip()]
    if not parts:
        parts = [q.query]
    parts = parts[:max_subqueries]
    vectors = gateway.vectors_for(parts)
    if len(parts) == 1:
        return (RetrievalSignal(raw_query=q.query, embedding=vectors[0]),)
    return tuple(RetrievalSignal(raw_query=part, embedding=vec)
                 for part, vec in zip(parts, vectors))


def run_formulate(q: RetrievePayload, cfg: FormulateConfig,
                  gateway: Gateway) -> tuple[tuple[RetrievalSignal, ...], list[str]]:
    """Dispatch by strategy; gateway failures fall back to plain embedding."""
    flags: list[str] = []
    if cfg.strategy == "validate":
        try:
            return (formulate_validate(q, gateway),), flags
        except GatewayError:
            flags.append("validate_fallback")
    elif cfg.strategy == "keyword":
        try:
            signal, flags = formulate_keyword(q, gateway, cfg.max_keywords,
                                              cfg.keyword_augments)
            return (signal,), flags
        except GatewayError:
            flags.append("keyword_fallback")
    elif cfg.strategy == "decompose":
        try:
            return formulate_decompose(q, gateway, cfg.max_subqueries), flags
        except GatewayError:
            flags.append("decompose_fallback")
    # "none", and the fallback of a failed validate, keyword or decompose
    try:
        return (formulate_none(q, gateway),), flags
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

def integrate_time_weighted(cands: list[Candidate], now: int,
                            decay_lambda: float) -> list[Candidate]:
    """score' = score * exp(-lambda * age_days); stable on ties."""
    rescored = [
        Candidate(
            record=c.record,
            score=c.score * math.exp(-decay_lambda * max(0, now - c.record.ts) / US_PER_DAY),
        )
        for c in cands
    ]
    return sorted(rescored, key=lambda c: -c.score)


def integrate_threshold(cands: list[Candidate],
                        score_threshold: float) -> list[Candidate]:
    return [c for c in cands if c.score >= score_threshold]


def integrate_multi_tier(cands: list[Candidate],
                         quotas: dict[str, int]) -> list[Candidate]:
    """Per-tier quotas in tier order, dedup by id keeping max score."""
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
            for record_id in rank_ids({record_id: c.score for record_id, c in best.items()})]


def integrate_augment(cands: list[Candidate], store: MemoryStore, window: int,
                      now: Optional[int]) -> list[Candidate]:
    """Attach +-window neighboring turns after each raw-turn candidate.

    Neighbors carry zero score (pure provenance) and are never duplicated
    against existing candidates or each other.
    """
    if window <= 0:
        return list(cands)
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
    return out


def integrate_multi_query(query: str, cands: list[Candidate],
                          store: MemoryStore, gateway: Gateway,
                          n_queries: int, k: int,
                          now: Optional[int]) -> tuple[list[Candidate], list[str]]:
    """Paraphrase the query n times, re-retrieve, RRF-fuse with the original.

    Any gateway failure returns the original candidates, flagged.
    """
    flags: list[str] = []
    rankings = [[c.record_id for c in cands]]
    try:
        for index in range(n_queries):
            paraphrase = gateway.chat("paraphrase", {"query": query, "index": index}).strip()
            if not paraphrase:
                continue
            embedding = gateway.vectors_for([paraphrase])[0]
            signal = RetrievalSignal(raw_query=paraphrase, embedding=embedding)
            rankings.append([c.record_id for c in store.retrieve(signal, k, now=now)])
    except GatewayError:
        flags.append("multi_query_fallback")
        return list(cands), flags
    return fused_candidates(rankings, store.get, max(k, len(cands))), flags


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
    """Dispatch by strategy, then assemble the bundle under the budget."""
    flags: list[str] = []
    working = list(cands)  # "none" bundles the candidates as retrieved
    if cfg.strategy == "time_weighted":
        working = integrate_time_weighted(working, now, cfg.decay_lambda)
    elif cfg.strategy == "threshold":
        working = integrate_threshold(working, cfg.score_threshold)
    elif cfg.strategy == "multi_tier":
        quotas = cfg.tier_quotas
        if quotas is None:
            quotas = {tier: k for tier in TIER_NAMES}
        working = integrate_multi_tier(working, quotas)
    elif cfg.strategy == "augment":
        working = integrate_augment(working, store, cfg.augment_window, now)
    elif cfg.strategy == "multi_query":
        working, mq_flags = integrate_multi_query(
            query, working, store, gateway, cfg.multi_query_count, k, now)
        flags.extend(mq_flags)
    bundle, truncated = build_bundle(working, cfg.budget_tokens)
    if truncated:
        flags.append("budget_truncated")
    return bundle, flags
