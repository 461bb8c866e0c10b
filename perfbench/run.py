#!/usr/bin/env python3
"""Replay benchmark for memstream.

    python3 perfbench/run.py --workload search_heavy --seed 7 --seconds 30 --trace 0

Run from the repository root. The script generates the workload's synthetic
stream from ``--seed``, writes it under ``.bench_out/``, and hands the
program only that file. Set-up (``load_generic`` plus ``config_from_dict``)
is timed on its own, many times. One unmeasured warm-up replay follows,
then timed replays of ``memstream.orchestrator.run_experiment`` run until
``--seconds`` have passed. Each replay is a closed loop with one client:
the next request is sent only when the previous one has finished, in one
process whose only threads are the stream producer and the consumer.
Every time reported is scaled to a fixed host speed by reference runs
between the measured intervals (see ``speed.py``).

Every replay is checked: it completes, its insert, query and checkpoint
counts match the stream, each query is scored at its own round's
checkpoint, no provenance timestamp reaches its query's timestamp, and all
result data outside ``latency`` keys is byte-identical across replays. A
failed check exits 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off. With ``--trace 1`` it carries the per-layer
metrics of traced replays (see ``tracer.py``) that alternate with untraced
ones for ``--seconds``; the traced replays' deterministic counters must
agree exactly. The spans of the last traced replay are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_BLOCKS = 6
SETUP_BLOCK_SECONDS = 0.25
MIN_TIMED_REPLAYS = 3
TRACED_REPLAYS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "replay_s": "s",
    "insert_p50_us": "us",
    "insert_p99_us": "us",
    "query_p50_us": "us",
    "query_p95_us": "us",
    "mean_f1": "f1",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


class CheckFailed(Exception):
    """An output check failed: the program's results are wrong."""


def load_program():
    """Import memstream from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "memstream" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no memstream sources under {src}")
    # one BLAS thread: the replay must run on the producer and consumer only
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import memstream
    if Path(memstream.__file__).resolve().parent != (src / "memstream").resolve():
        raise SystemExit(f"perfbench: imported memstream from {memstream.__file__}")


# ----------------------------------------------------------------------
# inputs and set-up
# ----------------------------------------------------------------------

def make_stream(workload, seed: int) -> Path:
    from memstream.stream import write_stream_file
    from memstream.workloads import SyntheticSpec, synth_workload

    manifest, _key = synth_workload(SyntheticSpec(seed=seed, **workload.spec))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-s{seed}.jsonl"
    write_stream_file(manifest, str(path))
    return path


def set_up(path: Path, workload, seed: int):
    """Time load + config in SETUP_BLOCKS blocks, each scaled by the reference runs around it.

    Returns the last manifest and config, the median scaled set-up time,
    the median raw one and the number of set-ups timed.
    """
    from memstream.config import config_from_dict
    from memstream.workloads import load_generic

    from speed import SpeedScale

    scale = SpeedScale()
    raw, scaled = [], []
    for _ in range(SETUP_BLOCKS):
        block = []
        start = time.perf_counter()
        while not block or time.perf_counter() - start < SETUP_BLOCK_SECONDS:
            gc.collect()
            t0 = time.perf_counter_ns()
            manifest = load_generic(path)
            cfg = config_from_dict(workload.config(seed))
            block.append((time.perf_counter_ns() - t0) / 1e9)
        factor = scale.next_factor()
        raw.extend(block)
        scaled.extend(wall * factor for wall in block)
    return manifest, cfg, statistics.median(scaled), statistics.median(raw), len(raw)


def input_properties(manifest) -> dict:
    """Counts and query-text repetition of one stream (queries of a round share a ts)."""
    queries = [r for r in manifest.requests if r.kind == "retrieve"]
    return {
        "requests": len(manifest.requests),
        "inserts": len(manifest.requests) - len(queries),
        "queries": len(queries),
        "query_repeats": len(queries) - len({r.payload.query for r in queries}),
        "query_repeats_in_round": len(queries) - len({(r.ts, r.payload.query) for r in queries}),
        "rounds": len({r.ts for r in queries}),
    }


# ----------------------------------------------------------------------
# one replay and its checks
# ----------------------------------------------------------------------

def _strip_latency(obj):
    if isinstance(obj, dict):
        return {k: _strip_latency(v) for k, v in obj.items() if k != "latency"}
    if isinstance(obj, list):
        return [_strip_latency(v) for v in obj]
    return obj


def result_digest(result) -> str:
    """Hash of every result file's content outside ``latency`` keys."""
    h = hashlib.sha256()
    for report in result.reports:
        h.update(json.dumps(_strip_latency(report.as_dict()), sort_keys=True).encode())
    for res in result.query_results:
        h.update(json.dumps(_strip_latency(res.as_dict()), sort_keys=True).encode())
    h.update(json.dumps(_strip_latency(result.summary()), sort_keys=True).encode())
    h.update("\n".join(result.action_log).encode())
    return h.hexdigest()


def check_result(result, props: dict):
    if result.status != "complete":
        raise CheckFailed(f"replay ended {result.status}: {result.error}")
    inserts = sum(1 for t in result.traces if t.kind == "insert")
    queries = result.query_results
    got = (inserts, len(queries), len(result.reports))
    want = (props["inserts"], props["queries"], props["rounds"])
    if got != want:
        raise CheckFailed(f"inserts/queries/checkpoints {got}, stream has {want}")
    round_ts = sorted({res.ts for res in queries})
    for res in queries:
        if res.checkpoint_index != round_ts.index(res.ts) + 1:
            raise CheckFailed(f"{res.query_id} scored at checkpoint "
                              f"{res.checkpoint_index}, not its own round's")
        for record_id, _score, ts in res.provenance:
            if ts >= res.ts:
                raise CheckFailed(f"{res.query_id} at ts {res.ts} saw {record_id} "
                                  f"from ts {ts}")


def failures(result) -> tuple[int, int]:
    """(operations attempted, operations failed) in one replay."""
    flagged = sum(1 for res in result.query_results
                  if {"answer_failed", "embed_failed"} & set(res.flags))
    calls = [t for trace in result.traces for t in trace.gateway_calls]
    failed = (result.status != "complete") + flagged + sum(1 for t in calls if not t.ok)
    return 1 + len(result.query_results) + len(calls), failed


class Replayer:
    """Runs replays of one stream, checks each and keeps what the metrics need."""

    def __init__(self, cfg, manifest, props):
        self.cfg, self.manifest, self.props = cfg, manifest, props
        self.digest = None
        self.attempted = self.failed = 0

    def replay(self):
        from memstream.orchestrator import run_experiment

        gc.collect()
        t0 = time.perf_counter_ns()
        result = run_experiment(self.cfg, self.manifest)
        wall = time.perf_counter_ns() - t0
        check_result(result, self.props)
        digest = result_digest(result)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("result data outside latency keys differs between replays")
        attempted, failed = failures(result)
        self.attempted += attempted
        self.failed += failed
        return wall, result

    def timed(self, seconds: float, min_replays: int) -> dict:
        """Replay until ``seconds`` pass; return the scaled timings.

        Each replay's wall and request latencies are multiplied by the
        factor of the reference runs just before and after it (see
        ``speed.py``). Latency percentiles are pooled over all replays of
        the call: each checkpoint scores its round's queries in one short
        burst, so pooling samples many stretches of host speed where one
        replay samples only a few.
        """
        from speed import SpeedScale

        scale = SpeedScale()
        walls, raw_walls, inserts, queries = [], [], [], []
        start = time.perf_counter()
        while len(walls) < min_replays or time.perf_counter() - start < seconds:
            wall, result = self.replay()
            factor = scale.next_factor()
            raw_walls.append(wall / 1e9)
            walls.append(wall / 1e9 * factor)
            for trace in result.traces:
                (inserts if trace.kind == "insert" else queries).append(trace.e2e_ns * factor)
            mean_f1 = result.summary()["mean_f1"]  # equal in every replay: see replay()
            del result
        return {
            "replay_s": statistics.median(walls),
            "insert_p50_us": nearest_rank(inserts, 50) / 1e3,
            "insert_p99_us": nearest_rank(inserts, 99) / 1e3,
            "query_p50_us": nearest_rank(queries, 50) / 1e3,
            "query_p95_us": nearest_rank(queries, 95) / 1e3,
            "mean_f1": mean_f1,
            "raw_replay_s": statistics.median(raw_walls),
            "factor": statistics.median(scale.factors),
            "walls": walls,
            "samples": (len(inserts), len(queries)),
        }


def nearest_rank(samples, p: float) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


# ----------------------------------------------------------------------
# per-layer metrics from a traced replay
# ----------------------------------------------------------------------

def window_of_seq(result) -> dict:
    """Request seq -> checkpoint window (1-based) it ran in."""
    bounds = [r.inserts_consumed for r in result.reports]
    out = {}
    ordinal = 0
    for trace in result.traces:
        if trace.kind == "insert":
            ordinal += 1
            out[trace.seq] = next(i for i, b in enumerate(bounds, 1) if ordinal <= b)
    for res in result.query_results:
        out[res.seq] = res.checkpoint_index
    return out


def layer_metrics(tracer, wall_ns: int, result, overhead: float) -> dict:
    from tracer import NAME, SEQ, SPAN_NAMES

    own = tracer.self_times()
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    windows = window_of_seq(result)
    last = len(result.reports)
    by_window = {}  # (name, window) -> [calls, self_ns]
    for span, ns in zip(tracer.spans, own):
        name = span[NAME]
        calls[name] += 1
        self_ns[name] += ns
        window = windows.get(span[SEQ])
        if window in (1, last):
            acc = by_window.setdefault((name, window), [0, 0])
            acc[0] += 1
            acc[1] += ns

    def mean_us(*names):
        n = sum(calls[x] for x in names)
        return sum(self_ns[x] for x in names) / n / 1e3 if n else 0.0

    def growth(name):
        first, final = by_window.get((name, 1)), by_window.get((name, last))
        if not first or not final or first[1] == 0:
            return 0.0
        return (final[1] / final[0]) / (first[1] / first[0])

    counts = tracer.counts
    merges = sum(1 for line in result.action_log if " MERGE " in line)
    queries = result.query_results
    traced_ns = sum(own)
    m = {
        "stream.validate_us": self_ns["stream.validate"] / 1e3,
        "orchestrator.unattributed_s": (wall_ns - traced_ns) / 1e9,
        "ingest.normalize_us": mean_us("ingest.normalize"),
        "ingest.normalize_calls": calls["ingest.normalize"],
        "ingest.consolidate_us": mean_us("ingest.consolidate"),
        "ingest.consolidate_calls": calls["ingest.consolidate"],
        "ingest.cosine_calls": counts["ingest.cosine"],
        "ingest.merges": merges,
        "ingest.merge_ratio": merges / calls["ingest.consolidate"] if calls["ingest.consolidate"] else 0.0,
        "ingest.consolidate_growth": growth("ingest.consolidate"),
        "stores.insert_us": mean_us("stores.insert"),
        "stores.retrieve_us": mean_us("stores.retrieve"),
        "stores.retrieve_calls": calls["stores.retrieve"],
        "stores.cosine_calls": counts["stores.cosine"],
        "stores.lexical_scored": counts["stores.lexical_scored"],
        "stores.scored_per_retrieve": (
            (counts["stores.cosine"] + counts["stores.lexical_scored"]) / calls["stores.retrieve"]
            if calls["stores.retrieve"] else 0.0),
        "stores.remove_calls": calls["stores.remove"],
        "stores.reindex_calls": calls["stores.reindex"],
        "stores.maintenance_us": (self_ns["stores.remove"] + self_ns["stores.reindex"]) / 1e3,
        "stores.retrieve_growth": growth("stores.retrieve"),
        "stores.record_growth": (result.reports[-1].store.record_count
                                 / max(1, result.reports[0].store.record_count)),
        "retrieve.formulate_us": mean_us("retrieve.formulate"),
        "retrieve.search_us": mean_us("retrieve.search"),
        "retrieve.integrate_us": mean_us("retrieve.integrate"),
        "retrieve.bundle_tokens": statistics.fmean(r.token_estimate for r in queries),
        "retrieve.truncated_share": sum("budget_truncated" in r.flags for r in queries) / len(queries),
        "gateway.embed_us": mean_us("gateway.embed"),
        "gateway.embed_calls": calls["gateway.embed"],
        "gateway.embed_repeat_share": (counts["gateway.embed_repeats"] / counts["gateway.embed_texts"]
                                       if counts["gateway.embed_texts"] else 0.0),
        "gateway.chat_us": mean_us("gateway.chat"),
        "gateway.chat_calls": calls["gateway.chat"],
        "gateway.failed_calls": tracer.failures["gateway.embed"] + tracer.failures["gateway.chat"],
        "text.stem_calls": counts["text.stem"],
        "text.stem_repeat_share": (1 - len(tracer.stems) / counts["text.stem"]
                                   if counts["text.stem"] else 0.0),
        "metrics.f1_us": mean_us("metrics.f1"),
        "trace.overhead_ratio": overhead,
        "trace.spans": len(tracer.spans),
        "share.orchestrator": (wall_ns - traced_ns) / wall_ns,
    }
    for name in SPAN_NAMES:
        m[f"share.{name}"] = self_ns[name] / wall_ns
    return m


LAYER_UNITS_BY_SUFFIX = (
    ("_us", "us"), ("_s", "s"), ("_calls", "count"), ("_share", "share"),
    ("_ratio", "ratio"), ("_growth", "ratio"), ("_tokens", "tokens"),
)


def layer_unit(name: str) -> str:
    if name.startswith("share."):
        return "share"
    for suffix, unit in LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def traced_replays(replayer, manifest, seconds: float):
    """Alternate untraced and traced replays until ``seconds`` pass.

    At least TRACED_REPLAYS pairs run, and the deterministic counters of
    every traced replay must agree. Returns the last traced replay's
    tracer, result and raw wall (ns), and the tracing overhead: median
    traced over median untraced wall, both scaled (see ``speed.py``).
    Alternating keeps a slow stretch of the host from landing on one side.
    """
    from speed import SpeedScale
    from tracer import Tracer

    scale = SpeedScale()
    counters, plain, traced = None, [], []
    start = time.perf_counter()
    while len(traced) < TRACED_REPLAYS or time.perf_counter() - start < seconds:
        wall, _ = replayer.replay()
        plain.append(wall * scale.next_factor())
        tracer = Tracer(manifest)
        tracer.install()
        try:
            wall, result = replayer.replay()
        finally:
            tracer.uninstall()
        calls = [t for trace in result.traces for t in trace.gateway_calls]
        seen = tracer.deterministic_counts()
        for kind in ("embed", "chat"):
            logged = sum(1 for t in calls if t.call_kind == kind)
            if seen[f"gateway.{kind}.calls"] != logged:
                raise CheckFailed(f"traced {seen[f'gateway.{kind}.calls']} gateway {kind} "
                                  f"calls, the program logged {logged}")
        if counters is not None and seen != counters:
            drift = {k: (counters.get(k), seen.get(k)) for k in counters.keys() | seen.keys()
                     if counters.get(k) != seen.get(k)}
            raise CheckFailed(f"deterministic counters drifted between replays: {drift}")
        counters = seen
        traced.append(wall * scale.next_factor())
    return tracer, result, wall, statistics.median(traced) / statistics.median(plain)


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")

    path = make_stream(workload, args.seed)
    manifest, cfg, setup_s, raw_setup_s, setup_repeats = set_up(path, workload, args.seed)
    props = input_properties(manifest)
    replayer = Replayer(cfg, manifest, props)
    try:
        _, warm = replayer.replay()
        props["final_records"] = warm.reports[-1].store.record_count
        del warm
        if args.trace:
            tracer, result, wall_ns, overhead = traced_replays(replayer, manifest, args.seconds)
            metrics = layer_metrics(tracer, wall_ns, result, overhead)
            tracer.write(OUT / f"trace-{workload.name}-s{args.seed}.jsonl")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
        else:
            timing = replayer.timed(args.seconds, MIN_TIMED_REPLAYS)
            values = {"setup_s": setup_s}
            values.update((k, timing[k]) for k in END_TO_END_UNITS if k in timing)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["ok_share"] = 1 - replayer.failed / replayer.attempted
            print(f"# {workload.name} seed={args.seed}: {len(timing['walls'])} timed replays of "
                  f"{props['inserts']} inserts and {props['queries']} queries each, scaled "
                  f"({' '.join('%.2f' % w for w in timing['walls'])} s); percentiles pooled "
                  f"over {timing['samples'][0]} inserts and {timing['samples'][1]} queries")
            print(f"# unscaled medians: replay {timing['raw_replay_s']:.4f} s, set-up "
                  f"{raw_setup_s:.5f} s over {setup_repeats} set-ups; median speed factor "
                  f"{timing['factor']:.3f}")
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    except CheckFailed as err:
        print(f"perfbench: output check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, replayer.attempted),
                          "failed": replayer.failed, "metrics": {}}))
        return 1
    print(f"# inputs: {json.dumps(props, sort_keys=True)}")
    print(f"# result digest outside latency keys: {replayer.digest}")
    print(json.dumps({"correct": True, "attempted": replayer.attempted,
                      "failed": replayer.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
