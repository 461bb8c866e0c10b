"""Scoring checks against an independent reference implementation.

oracle_f1 below reimplements normalization and multiset-overlap F1 from
scratch (greedy token matching, no Counter), sharing only the already
vector-checked stemmer with the library. 500 seeded random pairs must agree
bit for bit: F1 lands in the result digests, so a rewrite of the overlap
count must not move a single float.
"""

import math
import random
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memstream.errors import DegenerateInput
from memstream.metrics import (
    degradation,
    latency_aggregate,
    token_f1,
)
from memstream.porter import porter_stem
from memstream.text import metric_tokens


def oracle_normalize(text: str) -> list[str]:
    kept = "".join(c for c in text.lower()
                   if not unicodedata.category(c).startswith("P"))
    out = []
    for token in kept.split():
        prev = None
        while prev != token:
            prev, token = token, porter_stem(token)
        if token:
            out.append(token)
    return out


def oracle_f1(prediction: str, gold: str) -> float:
    pred = oracle_normalize(prediction)
    ref = oracle_normalize(gold)
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    remaining = list(ref)
    overlap = 0
    for token in pred:
        if token in remaining:
            remaining.remove(token)
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2 * precision * recall / (precision + recall)


VOCAB = [
    "running", "runs", "ran", "cats", "cat", "ponies", "pony", "agreed",
    "agreement", "the", "a", "of", "is", "was", "this", "meeting", "meetings",
    "organization", "organized", "memory", "memories", "retrieval", "retrieved",
    "consolidation", "forgetting", "caches", "cached", "42", "3.14", "x1",
    "colour", "color", "harbour", "harbor", "exceed", "exceeded", "university",
    "universal", "skies", "sky", "flies", "fly", "don't", "it's", "end.",
    "comma,", "(paren)", "[brack]", "semi;", "quote”", "dash—joined",
]


def random_text(rng: random.Random) -> str:
    n = rng.randint(0, 12)
    return " ".join(rng.choice(VOCAB) for _ in range(n))


def test_f1_matches_oracle_on_500_seeded_pairs():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(500):
        prediction = random_text(rng)
        gold = random_text(rng)
        expected = oracle_f1(prediction, gold)
        actual = token_f1(prediction, gold)
        assert actual == expected, (prediction, gold)
        checked += 1
    assert checked == 500


def test_f1_hand_cases():
    assert token_f1("paris", "paris") == 1.0
    assert token_f1("Paris.", "paris") == 1.0
    assert token_f1("", "") == 1.0          # both empty: vacuous match
    assert token_f1("something", "") == 0.0
    assert token_f1("", "gold") == 0.0
    assert token_f1("alpha beta", "gamma delta") == 0.0
    # multiset: repeated token only counts to the gold's multiplicity
    assert token_f1("dog dog", "dog") == pytest.approx(2 * (0.5 * 1) / 1.5)
    # stemming unifies inflections
    assert token_f1("running", "runs") == 1.0


def test_normalization_idempotent():
    for text in ("The cats were running!", "exceed", "ORGANIZED meetings, really?"):
        once = metric_tokens(text)
        twice = metric_tokens(" ".join(once))
        assert once == twice


def test_frozen_degradation_rows():
    assert degradation([0.169, 0.094]) == -44.4
    assert degradation([0.395, 0.338]) == -14.4
    assert degradation([0.411, 0.358]) == -12.9


def test_degradation_uses_first_and_last_only():
    assert degradation([0.2, 0.9, 0.1, 0.3]) == 50.0


def test_degradation_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        degradation([0.5])
    with pytest.raises(DegenerateInput):
        degradation([0.0, 0.5])


def test_latency_aggregate_nearest_rank_edges():
    samples = list(range(1, 101))
    random.Random(3).shuffle(samples)
    out = latency_aggregate({"Search": samples, "PreRet": [7], "PostRet": [2, 1]})
    assert (out["Search"]["p50_us"], out["Search"]["p95_us"]) == (50, 95)
    # one sample is every percentile
    assert (out["PreRet"]["p50_us"], out["PreRet"]["p95_us"]) == (7, 7)
    # ranks round up: p50 of two samples is the smallest (rank 1), p95 the largest
    assert (out["PostRet"]["p50_us"], out["PostRet"]["p95_us"]) == (1, 2)


def test_latency_aggregate_shape():
    out = latency_aggregate({"Search": [10, 20, 30], "PreRet": [], })
    assert "PreRet" not in out          # empty stage absent, not zero
    assert out["Search"]["count"] == 3
    assert out["Search"]["mean_us"] == 20.0
    assert out["Search"]["p50_us"] == 20
    assert out["Search"]["p95_us"] == 30


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60))
def test_latency_aggregate_takes_nearest_rank_percentiles_of_each_stage(samples):
    # both percentiles come from one sort; the mean sums in arrival order
    ordered = sorted(samples)
    assert latency_aggregate({"Search": samples}) == {"Search": {
        "count": len(samples),
        "mean_us": sum(samples) / len(samples),
        "p50_us": ordered[math.ceil(0.50 * len(samples)) - 1],
        "p95_us": ordered[math.ceil(0.95 * len(samples)) - 1],
    }}


texts = st.lists(st.sampled_from(VOCAB), min_size=0, max_size=8).map(" ".join)


@given(texts, texts)
def test_f1_bounds_and_symmetry(a, b):
    value = token_f1(a, b)
    assert 0.0 <= value <= 1.0
    assert token_f1(b, a) == pytest.approx(value)


@given(texts)
def test_f1_self_match(a):
    assert token_f1(a, a) == 1.0
