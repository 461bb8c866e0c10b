"""Scoring and latency aggregation.

Token-level F1 follows the usual extractive-QA convention: multiset token
overlap between prediction and gold after normalization. Normalization here
keeps stopwords (they are dropped only by lexical *indexes*, never by the
metric) and keeps digits; punctuation goes away by Unicode category and
tokens are stemmed to a fixed point, which makes normalization idempotent.

Latency percentiles use the nearest-rank definition: the p-th percentile of
N sorted samples is the ceil(p/100 * N)-th smallest, 1-indexed. For samples
[1..100] that makes p50 = 50 and p95 = 95 exactly.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from math import ceil

from .errors import DegenerateInput
from .text import metric_tokens

STAGE_PRE_INSERT = "PreIns"
STAGE_STATE_UPDATE = "StateUpdate"
STAGE_POST_INSERT = "PostIns"
STAGE_PRE_RETRIEVE = "PreRet"
STAGE_SEARCH = "Search"
STAGE_POST_RETRIEVE = "PostRet"
STAGE_GENERATION = "Generation"

# each request kind's stages, in the order its wall is split into them
INSERT_STAGES = (STAGE_PRE_INSERT, STAGE_STATE_UPDATE, STAGE_POST_INSERT)
QUERY_STAGES = (STAGE_PRE_RETRIEVE, STAGE_SEARCH, STAGE_POST_RETRIEVE, STAGE_GENERATION)
ALL_STAGES = INSERT_STAGES + QUERY_STAGES


def token_f1(prediction: str, gold: str) -> float:
    """Multiset-overlap F1 in [0, 1].

    Both sides empty after normalization -> 1.0 (vacuous match, used by
    abstention golds); exactly one side empty -> 0.0.
    """
    pred = metric_tokens(prediction)
    ref = metric_tokens(gold)
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    # a token counts the lesser of its two counts; ``get`` reads a token the
    # gold lacks as 0 without going through ``Counter.__missing__``
    pred_counts = Counter(pred)
    overlap = sum(map(min, pred_counts.values(),
                      map(Counter(ref).get, pred_counts, repeat(0))))
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


def degradation(round_means: list[float]) -> float:
    """Relative F1 drift from first to last round, in percent, one decimal.

    100 * (last - first) / first, rounded to one decimal place. Negative
    values mean decay. Raises DegenerateInput on fewer than two rounds or a
    zero first-round mean.
    """
    if len(round_means) < 2:
        raise DegenerateInput("degradation needs at least two round means")
    first, last = round_means[0], round_means[-1]
    if first == 0:
        raise DegenerateInput("degradation undefined for a zero first-round mean")
    return round(100.0 * (last - first) / first, 1)


def _nearest_rank(ordered: list[int | float], p: float) -> int | float:
    """The ceil(p/100 * N)-th smallest of the ascending ``ordered``."""
    return ordered[ceil(p / 100.0 * len(ordered)) - 1]


def latency_aggregate(samples_by_stage: dict[str, list[int | float]]) -> dict[str, dict]:
    """Per-stage ``{"count", "mean_us", "p50_us", "p95_us"}`` of wall-time samples.

    Stages with no samples are absent, not zero. Each stage's samples are
    sorted once for both percentiles.
    """
    out = {}
    for stage, samples in samples_by_stage.items():
        if samples:
            ordered = sorted(samples)
            out[stage] = {
                "count": len(samples),
                "mean_us": sum(samples) / len(samples),
                "p50_us": _nearest_rank(ordered, 50),
                "p95_us": _nearest_rank(ordered, 95),
            }
    return out
