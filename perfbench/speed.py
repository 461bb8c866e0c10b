"""Host-speed reference: scales measured times to a fixed machine speed.

On a shared host the same replay can run twice as slowly from one minute
to the next while the benchmark's own process does nothing different: the
core it runs on is shared with other tenants whose load comes and goes.
Such swings last tens of seconds, longer than one benchmark run, so a
median over the run cannot remove them.

``reference_s`` times a fixed loop of the same kinds of work the program
does (small numpy dot products and norms, string and dict operations),
over data that fits a core's caches and over data that does not. It
lives wholly in the benchmark, so no change to the program can move it.
It runs on the thread that replays, between replays. A time measured
between two reference runs is multiplied by
``REF_SECONDS / mean(reference before, reference after)``: it then reads
as if the host ran at the speed at which the reference takes exactly
``REF_SECONDS``. A program that does twice the work still reads twice
as long; a host that runs twice as slowly does not.
"""

from __future__ import annotations

import time

import numpy as np

REF_ROUNDS = 4500
# about what the reference takes on the uncontended 2.1 GHz Xeon host the
# benchmark was sized on, so scaled times stay close to wall times there
REF_SECONDS = 0.25

_RNG = np.random.default_rng(12345)
# a hot set that stays in a core's caches and a cold one of several MB,
# walked with strides, so the reference feels contention for the caches
# as the program's scans over its stores do
_HOT_VECTORS = [_RNG.standard_normal(64) for _ in range(97)]
_HOT_WORDS = [f"token{i}ing" for i in range(211)]
_COLD_VECTORS = [_RNG.standard_normal(64) for _ in range(6007)]
_COLD_WORDS = [f"token{i}ing" for i in range(20011)]


def _cosine(a, b) -> float:
    return float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


def reference_s(rounds: int = REF_ROUNDS) -> float:
    """Wall seconds of one run of the fixed reference loop."""
    start = time.perf_counter_ns()
    acc = 0.0
    table: dict[str, int] = {}
    for i in range(rounds):
        acc += _cosine(_HOT_VECTORS[i % 97], _HOT_VECTORS[(i * 31) % 97])
        word = _HOT_WORDS[i % 211]
        stem = word[:-3] if word.endswith("ing") else word
        table[stem] = table.get(stem, 0) + len(word.split("n"))
        acc += sum(v for _, v in sorted(table.items())[:8])
    table = {}
    for i in range(3 * rounds):
        acc += _cosine(_COLD_VECTORS[(i * 7919) % 6007], _COLD_VECTORS[(i * 104729) % 6007])
        word = _COLD_WORDS[(i * 7907) % 20011]
        stem = word[:-3] if word.endswith("ing") else word
        table[stem] = table.get(stem, 0) + len(word.split("n"))
        acc += sum(table.get(_COLD_WORDS[(i * k) % 20011][:-3], 0) for k in (3, 5, 7, 11, 13))
    if acc != acc:  # keeps the loop's result live
        raise ArithmeticError("reference loop produced NaN")
    return (time.perf_counter_ns() - start) / 1e9


class SpeedScale:
    """Reference runs around each measured interval, and the factor they give."""

    def __init__(self):
        reference_s(REF_ROUNDS // 10)  # warm the loop's code paths
        self.last = reference_s()
        self.factors: list[float] = []

    def next_factor(self) -> float:
        """Run the reference again; return the factor for the interval since the last run."""
        now = reference_s()
        factor = REF_SECONDS / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
