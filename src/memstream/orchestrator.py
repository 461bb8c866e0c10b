"""The main pipeline: bounded-buffer streaming, the strictly blocking
insert/evaluate cycle, checkpoint scheduling, and result persistence.

Execution model
---------------
A producer thread feeds requests through a bounded buffer (capacity B, the
backpressure knob); the consumer processes them one at a time. Every Insert
runs normalize -> tentative insert -> consolidate to completion before the
next request is taken. Every Retrieve is evaluated when it arrives, against
the store as it stands then, so later inserts, evictions and merges cannot
reach back into its answer and the answer does not depend on where the
checkpoint boundaries fall. Its result is held until the next checkpoint
boundary groups it into a report; the visibility filter (now = query ts)
keeps retrieval causal on its own.

Stage walls per request are measured at contiguous monotonic-clock
boundaries, so the per-request stage sum equals end-to-end minus generation
exactly. The logical clock handed to stores and policies is always the
request timestamp, never the wall clock.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .config import CheckpointSchedule, ExperimentConfig, config_to_dict
from .errors import (
    DegenerateInput,
    GatewayError,
    SchemaError,
    SinkExists,
    StoreError,
)
from .gateway import Gateway, GatewayTiming, MockGateway, RemoteGateway, TokenBucket
from .ingest import run_consolidate, run_normalize
from .metrics import (
    STAGE_GENERATION,
    STAGE_POST_INSERT,
    STAGE_POST_RETRIEVE,
    STAGE_PRE_INSERT,
    STAGE_PRE_RETRIEVE,
    STAGE_SEARCH,
    STAGE_STATE_UPDATE,
    LatencyReport,
    degradation,
    latency_aggregate,
    token_f1,
)
from .records import StoreStats
from .retrieve import execute_search, run_formulate, run_integrate
from .stores import build_store
from .stores.base import MemoryStore
from .stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    Request,
    StreamManifest,
    validate_stream,
    write_atomic,
)

_END = object()


# ----------------------------------------------------------------------
# bounded streaming source
# ----------------------------------------------------------------------

class HistorySource:
    """Replays a manifest through a bounded buffer with backpressure.

    The producer thread blocks whenever ``buffer_capacity`` requests are
    waiting, so the stream never runs more than ``buffer_capacity`` requests
    ahead of the consumer. The consumer wakes a blocked producer only once
    the buffer has drained to half of it (``capacity // 2``), so the
    producer refills in one run per half buffer instead of waking, and
    taking the GIL, between every two requests the consumer measures.
    ``high_water`` records the largest buffer occupancy ever observed
    (updated under the same lock that guards the buffer, so it is exact).
    ``close`` releases a producer blocked on a full buffer once the consumer
    stops early, e.g. when a run aborts.
    """

    def __init__(self, manifest: StreamManifest, buffer_capacity: int):
        if buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {buffer_capacity}")
        self.manifest = manifest
        self.capacity = buffer_capacity
        self._refill_at = buffer_capacity // 2
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.high_water = 0

    def _put(self, item) -> bool:
        """Append under backpressure; False once the source is closed."""
        with self._not_full:
            while len(self._items) >= self.capacity and not self._closed:
                self._not_full.wait()
            if self._closed:
                return False
            self._items.append(item)
            # the end-of-stream sentinel is not a buffered request
            if item is not _END and len(self._items) > self.high_water:
                self.high_water = len(self._items)
            self._not_empty.notify()
            return True

    def _get(self):
        with self._not_empty:
            while not self._items:
                self._not_empty.wait()
            item = self._items.popleft()
            if len(self._items) <= self._refill_at:
                self._not_full.notify()
            return item

    def _produce(self):
        for request in self.manifest.requests:
            if not self._put(request):
                return
        self._put(_END)

    def start(self):
        if self._thread is None:
            self._thread = threading.Thread(target=self._produce, daemon=True)
            self._thread.start()

    def close(self):
        """Stop the producer and wait for its thread to exit."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
        if self._thread is not None:
            self._thread.join()

    def __iter__(self) -> Iterator[Request]:
        self.start()
        while True:
            item = self._get()
            if item is _END:
                return
            yield item


# ----------------------------------------------------------------------
# checkpoint scheduling
# ----------------------------------------------------------------------

def fraction_boundaries(fraction: float, total_inserts: int) -> list[int]:
    """Insert counts at which a fraction schedule checkpoints.

    f = 0.2 over 10 inserts gives [2, 4, 6, 8, 10]. Computed with a small
    epsilon so exact decimal multiples survive float representation.
    """
    if total_inserts <= 0:
        return []
    steps = math.ceil(round(1.0 / fraction, 9))
    bounds = set()
    for j in range(1, steps + 1):
        bound = math.ceil(j * fraction * total_inserts - 1e-9)
        bounds.add(min(max(bound, 1), total_inserts))
    return sorted(bounds)


def checkpoint_due(progress: int, schedule: CheckpointSchedule,
                   total_inserts: int, boundaries: Optional[set[int]] = None) -> bool:
    """True when an insert count lands on a schedule boundary.

    per_round boundaries are session transitions, which only the stream
    consumer can see; this predicate returns False for them. A run passes
    its fraction ``boundaries``, computed once, instead of having them
    rebuilt for every insert.
    """
    if progress <= 0:
        return False
    if schedule.fraction is not None:
        if boundaries is None:
            boundaries = set(fraction_boundaries(schedule.fraction, total_inserts))
        return progress in boundaries
    if schedule.every_n is not None:
        return progress % schedule.every_n == 0
    return False


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------

@dataclass
class RequestTrace:
    """Instrumentation for one processed request."""

    seq: int
    ts: int
    kind: str
    stage_ns: dict[str, int] = field(default_factory=dict)
    e2e_ns: int = 0
    gateway_calls: list[GatewayTiming] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    def chat_ns_by_stage(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for timing in self.gateway_calls:
            if timing.call_kind == "chat":
                out[timing.stage] = out.get(timing.stage, 0) + timing.wall_ns
        return out


@dataclass
class QueryResult:
    query_id: str
    category: str
    prediction: str
    gold: str
    f1: float
    seq: int
    ts: int
    checkpoint_index: int
    provenance: tuple[tuple[str, float, int], ...]
    token_estimate: int
    flags: list[str]
    stage_us: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "category": self.category,
            "prediction": self.prediction,
            "gold": self.gold,
            "f1": self.f1,
            "seq": self.seq,
            "ts_us": self.ts,
            "checkpoint_index": self.checkpoint_index,
            "provenance": [list(entry) for entry in self.provenance],
            "token_estimate": self.token_estimate,
            "flags": sorted(self.flags),
            "latency": {stage: us for stage, us in sorted(self.stage_us.items())},
        }


@dataclass
class CheckpointReport:
    checkpoint_index: int
    inserts_consumed: int
    results: list[QueryResult]
    mean_f1: float
    category_f1: dict[str, float]
    latency: LatencyReport
    store: StoreStats

    def as_dict(self) -> dict:
        return {
            "checkpoint_index": self.checkpoint_index,
            "inserts_consumed": self.inserts_consumed,
            "n_queries": len(self.results),
            "mean_f1": self.mean_f1,
            "category_f1": self.category_f1,
            "store": self.store.as_dict(),
            "latency": self.latency.as_dict(),
        }


def rollup(results: list[QueryResult],
           traces: list[RequestTrace]) -> tuple[dict[str, float], LatencyReport, dict[str, int]]:
    """Per-category mean F1, per-stage latency and flag counts.

    F1 comes from ``results``; stage walls and flags come from ``traces``,
    one per request, so each request's flags count once.
    """
    by_category: dict[str, list[float]] = {}
    for res in results:
        by_category.setdefault(res.category, []).append(res.f1)
    samples: dict[str, list[float]] = {}
    flags: Counter = Counter()
    for trace in traces:
        for stage, ns in trace.stage_ns.items():
            samples.setdefault(stage, []).append(ns / 1000.0)
        flags.update(trace.flags)
    category_f1 = {cat: sum(vals) / len(vals) for cat, vals in sorted(by_category.items())}
    return category_f1, latency_aggregate(samples), dict(sorted(flags.items()))


@dataclass
class ExperimentResult:
    config: dict
    reports: list[CheckpointReport] = field(default_factory=list)
    traces: list[RequestTrace] = field(default_factory=list)
    action_log: list[str] = field(default_factory=list)
    status: str = "complete"
    error: Optional[str] = None
    high_water: int = 0

    @property
    def query_results(self) -> list[QueryResult]:
        return [res for report in self.reports for res in report.results]

    def summary(self) -> dict:
        scored_rounds = [r for r in self.reports if r.results]
        round_means = [r.mean_f1 for r in scored_rounds]
        mean_f1 = sum(round_means) / len(round_means) if round_means else 0.0
        try:
            deg = degradation(round_means) if len(round_means) >= 2 else None
        except DegenerateInput:
            deg = None
        category_f1, latency, flags = rollup(self.query_results, self.traces)
        chat_us: dict[str, float] = {}
        embed_us: dict[str, float] = {}
        for trace in self.traces:
            for timing in trace.gateway_calls:
                bucket = chat_us if timing.call_kind == "chat" else embed_us
                bucket[timing.stage] = bucket.get(timing.stage, 0.0) + timing.wall_us
        inserts = sum(1 for t in self.traces if t.kind == KIND_INSERT)
        retrieves = sum(1 for t in self.traces if t.kind == KIND_RETRIEVE)
        return {
            "config": self.config,
            "status": self.status,
            "error": self.error,
            "counts": {
                "inserts": inserts,
                "retrieves": retrieves,
                "checkpoints": len(self.reports),
            },
            "round_mean_f1": round_means,
            "mean_f1": mean_f1,
            "degradation_pct": deg,
            "category_f1": category_f1,
            "flags": flags,
            "latency": {
                "stages": latency.as_dict(),
                "gateway_chat_us_by_stage": dict(sorted(chat_us.items())),
                "gateway_embed_us_by_stage": dict(sorted(embed_us.items())),
                "buffer_high_water": self.high_water,
            },
        }


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------

def build_gateway(cfg: ExperimentConfig) -> Gateway:
    bucket = None
    if cfg.gateway.rate_limit is not None:
        bucket = TokenBucket(rate=cfg.gateway.rate_limit,
                             capacity=max(1.0, cfg.gateway.rate_limit))
    if cfg.gateway.kind == "remote":
        return RemoteGateway(chat_model=cfg.gateway.chat_model,
                             embed_model=cfg.gateway.embed_model,
                             rate_limit=bucket)
    return MockGateway(dim=cfg.gateway.embed_dim, rate_limit=bucket)


class _Pipeline:
    """One experiment run; single thread of control over a private store."""

    def __init__(self, cfg: ExperimentConfig, manifest: StreamManifest,
                 gateway: Optional[Gateway] = None):
        self.cfg = cfg
        self.manifest = manifest
        self.gateway = gateway if gateway is not None else build_gateway(cfg)
        self.store: MemoryStore = build_store(
            cfg.store.backend, embed_dim=cfg.gateway.embed_dim,
            seed=cfg.seed, params=cfg.store.params)
        self.store.strength_gain = cfg.operators.consolidate.strength_gain
        self.store.initial_strength_s = cfg.operators.consolidate.initial_strength_s
        self.result = ExperimentResult(config=config_to_dict(cfg))
        self.pending: list[QueryResult] = []  # scored, not yet reported
        self.inserts_consumed = 0
        self.insert_index = 0
        self.last_flush_progress = -1
        self.armed = False
        self.eval_in_flight = False
        self.window_traces: list[RequestTrace] = []
        self.prev_session: Optional[str] = None
        self.total_inserts = manifest.insert_count

    # -- guards ---------------------------------------------------------
    def _assert_not_evaluating(self, stage: str):
        if self.eval_in_flight:
            raise RuntimeError(
                f"blocking violation: {stage} entered during checkpoint evaluation")

    # -- insert path ------------------------------------------------------
    def _process_insert(self, request: Request):
        payload = request.payload
        ops = self.cfg.operators
        trace = RequestTrace(seq=request.seq, ts=request.ts, kind=KIND_INSERT)

        self._assert_not_evaluating(STAGE_PRE_INSERT)
        t0 = time.perf_counter_ns()
        units, flags = run_normalize(payload, request.ts, ops.normalize, self.gateway)
        trace.flags.extend(flags)
        for unit in units:
            unit.strength = ops.consolidate.initial_strength_s

        self._assert_not_evaluating(STAGE_STATE_UPDATE)
        t1 = time.perf_counter_ns()
        ids = self.store.insert(units, now=request.ts)

        self._assert_not_evaluating(STAGE_POST_INSERT)
        t2 = time.perf_counter_ns()
        self.insert_index += 1
        outcome = run_consolidate(self.store, ids, request.ts, ops.consolidate,
                                  self.gateway, self.insert_index)
        t3 = time.perf_counter_ns()

        trace.stage_ns = {
            STAGE_PRE_INSERT: t1 - t0,
            STAGE_STATE_UPDATE: t2 - t1,
            STAGE_POST_INSERT: t3 - t2,
        }
        trace.e2e_ns = t3 - t0
        trace.flags.extend(outcome.flags)
        trace.actions.extend(outcome.actions)
        trace.gateway_calls = self.gateway.drain_timings()
        self.result.traces.append(trace)
        self.window_traces.append(trace)
        self.inserts_consumed += 1

        self.result.action_log.append(
            f"{request.seq} ts={request.ts} INSERT {','.join(ids) if ids else '-'}")
        for action in outcome.actions:
            self.result.action_log.append(f"{request.seq} ts={request.ts} {action}")

    # -- evaluation path --------------------------------------------------
    def _evaluate_query(self, request: Request, checkpoint_index: int) -> QueryResult:
        payload = request.payload
        ops = self.cfg.operators
        trace = RequestTrace(seq=request.seq, ts=request.ts, kind=KIND_RETRIEVE)
        flags: list[str] = []

        t0 = time.perf_counter_ns()
        fq = run_formulate(payload, ops.formulate, self.gateway)
        flags.extend(fq.flags)

        t1 = time.perf_counter_ns()
        candidates = execute_search(self.store, fq, ops.k, now=request.ts)

        t2 = time.perf_counter_ns()
        integration = run_integrate(payload.query, candidates, self.store,
                                    self.gateway, ops.integrate, ops.k,
                                    now=request.ts)
        flags.extend(integration.flags)
        bundle = integration.bundle

        t3 = time.perf_counter_ns()
        try:
            prediction = self.gateway.answer(payload.query, bundle.text,
                                             stage=STAGE_GENERATION)
        except GatewayError:
            prediction = ""
            flags.append("answer_failed")
        t4 = time.perf_counter_ns()

        f1 = token_f1(prediction, payload.gold_answer)
        trace.stage_ns = {
            STAGE_PRE_RETRIEVE: t1 - t0,
            STAGE_SEARCH: t2 - t1,
            STAGE_POST_RETRIEVE: t3 - t2,
            STAGE_GENERATION: t4 - t3,
        }
        trace.e2e_ns = t4 - t0
        trace.flags = list(flags)
        trace.gateway_calls = self.gateway.drain_timings()
        self.result.traces.append(trace)
        self.window_traces.append(trace)
        return QueryResult(
            query_id=payload.query_id,
            category=payload.category,
            prediction=prediction,
            gold=payload.gold_answer,
            f1=f1,
            seq=request.seq,
            ts=request.ts,
            checkpoint_index=checkpoint_index,
            provenance=bundle.provenance,
            token_estimate=bundle.token_estimate,
            flags=flags,
            stage_us={stage: ns / 1000.0 for stage, ns in trace.stage_ns.items()},
        )

    def _score_on_arrival(self, request: Request):
        self.eval_in_flight = True
        try:
            self.pending.append(self._evaluate_query(request, len(self.result.reports) + 1))
        finally:
            self.eval_in_flight = False

    def _flush_checkpoint(self):
        index = len(self.result.reports) + 1
        results, self.pending = self.pending, []
        self.result.action_log.append(
            f"CHECKPOINT {index} inserts={self.inserts_consumed} queries={len(results)}")
        self.result.action_log.extend(
            f"{res.seq} ts={res.ts} QUERY {res.query_id} -> {res.prediction}"
            for res in results)

        mean_f1 = sum(r.f1 for r in results) / len(results) if results else 0.0
        category_f1, latency, _ = rollup(results, self.window_traces)
        self.window_traces = []
        self.result.reports.append(CheckpointReport(
            checkpoint_index=index,
            inserts_consumed=self.inserts_consumed,
            results=results,
            mean_f1=mean_f1,
            category_f1=category_f1,
            latency=latency,
            store=self.store.stats(),
        ))
        self.last_flush_progress = self.inserts_consumed

    # -- main loop ----------------------------------------------------------
    def run(self) -> ExperimentResult:
        schedule = self.cfg.checkpoint
        boundaries = (set(fraction_boundaries(schedule.fraction, self.total_inserts))
                      if schedule.fraction is not None else None)
        source = HistorySource(self.manifest, self.cfg.buffer_capacity)
        try:
            for request in source:
                if request.kind == KIND_INSERT:
                    session = request.payload.session_id
                    round_break = (schedule.per_round
                                   and self.prev_session is not None
                                   and session != self.prev_session)
                    if self.armed or round_break:
                        self._flush_checkpoint()
                        self.armed = False
                    self._process_insert(request)
                    self.prev_session = session
                    if checkpoint_due(self.inserts_consumed, schedule,
                                      self.total_inserts, boundaries):
                        self.armed = True
                else:
                    self._score_on_arrival(request)
            if self.armed or self.pending or (
                    self.inserts_consumed > 0
                    and self.last_flush_progress != self.inserts_consumed):
                self._flush_checkpoint()
        except StoreError as err:
            self.result.status = "aborted"
            self.result.error = f"{type(err).__name__}: {err}"
        finally:
            source.close()
        self.result.high_water = source.high_water
        return self.result


def run_experiment(cfg: ExperimentConfig, manifest: StreamManifest,
                   gateway: Optional[Gateway] = None) -> ExperimentResult:
    """Validate the stream, then run the blocking protocol over it."""
    report = validate_stream(manifest)
    if not report.ok:
        first = report.violations[0]
        raise SchemaError(
            f"stream failed validation with {len(report.violations)} violation(s); "
            f"first: [{first.kind}] at index {first.index}: {first.detail}")
    return _Pipeline(cfg, manifest, gateway).run()


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

SINK_FILES = ("checkpoints.jsonl", "queries.jsonl", "summary.json", "actions.log")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def experiment_sink(result: ExperimentResult, out_dir: str | Path,
                    force: bool = False) -> list[Path]:
    """Write checkpoints.jsonl / queries.jsonl / summary.json / actions.log.

    Refuses to overwrite existing result files unless force is set. Each
    file is replaced atomically, and the summary is computed before any file
    is touched. Wall clock readings only ever appear under "latency" keys,
    so consumers can strip those for byte comparisons.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    targets = [out / name for name in SINK_FILES]
    if not force:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            raise SinkExists(
                f"refusing to overwrite {', '.join(existing)} (use --force)")
    summary = json.dumps(result.summary(), sort_keys=True, indent=2)
    write_atomic(targets[0], (_dump(report.as_dict()) for report in result.reports))
    write_atomic(targets[1], (_dump(res.as_dict()) for res in result.query_results))
    write_atomic(targets[2], [summary])
    write_atomic(targets[3], result.action_log)
    return targets
