"""The main pipeline: one loop over the stream, the strictly blocking
insert/evaluate cycle, checkpoint scheduling, and result persistence.

Execution model
---------------
A run is one ``for`` loop, on one thread, over the manifest's requests in
stream order. Every Insert runs normalize -> tentative insert -> consolidate
to completion before the loop takes the next request, so no insert can run
while a query is evaluated. Every Retrieve is evaluated when it arrives,
against the store as it stands then, so later inserts, evictions and merges
cannot reach back into its answer and the answer does not depend on where
the checkpoint boundaries fall. Its result is held until the next checkpoint
groups it into a report; the visibility filter (now = query ts) keeps
retrieval causal on its own. Acceptance criterion 4 replays prefixes of a
stream to check that no query's result depends on a later request.

Checkpoints only group results, so they are planned before the run:
``checkpoint_plan`` reads the schedule and the manifest once and returns
the insert counts after which a checkpoint closes. The loop closes one
just before the insert that follows a planned count, so the queries that
arrive after that count land in it, and once more at the end of the stream,
or when a store error aborts the run with answered queries not yet reported.

Stage walls per request are measured at contiguous monotonic-clock
boundaries, so the per-request stage sum equals end-to-end exactly. An
insert that raises a store error, and so aborts the run, is traced with the
stages it finished and the flags it raised, so the summary counts it. Each
boundary is opened by ``_Pipeline._enter``, which also points
``Gateway.stage`` at the new stage, so every gateway call bills to the stage
``_enter`` opened last and no operator names its own stage. The logical
clock handed to stores and policies is always the request timestamp, never
the wall clock.

A run embeds only what some stage reads. ``_Pipeline`` sets
``Gateway.vectors`` when it builds the store: true when the store's search
reads vectors (``MemoryStore.reads_vectors``) or the consolidation policy
does (``ingest.VECTOR_POLICIES``). When it is false, the operators'
``Gateway.vectors_for`` calls return ``None`` vectors without calling the
model, as if the embedder had failed open, but unflagged and untimed, so a
``fifo_queue`` run with no such policy bills no embedding time to any stage.

Garbage collection
------------------
``run_experiment`` turns CPython's automatic cyclic collector off for the
store build and the replay, and turns it back on afterwards only if it was
on when the run began, also when the run raises. Left on, the collector
runs inside requests every few hundred container allocations, mostly the
run's own traces, and bills each pause (0.1-2.5 ms) to whichever stage it
interrupts. Reference counting still frees every object as soon as it dies,
so turning the collector off is safe only because a run makes no reference
cycles. ``tests/test_gc.py`` pins that: it replays a grid of configs, with
and without injected gateway faults, and a full collection afterwards must
find nothing. A change that makes a run build a cycle per request fails that
test rather than growing memory unseen. The switch is process wide, and
``_COLLECTOR_LOCK`` serves library callers who run experiments on their own
threads, each with its own gateway (``memstream run`` starts none): the run
that turned it off turns it back on when it ends, so a run on another thread
may finish with it on.
"""

from __future__ import annotations

import gc
import json
import math
import operator
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .config import CheckpointSchedule, ExperimentConfig, config_to_dict
from .errors import (
    DegenerateInput,
    GatewayError,
    SchemaError,
    SinkExists,
    StoreError,
)
from .gateway import Gateway, GatewayTiming, MockGateway, RemoteGateway, TokenBucket, _token_codes
from .ingest import VECTOR_POLICIES, run_consolidate, run_normalize
from .metrics import (
    INSERT_STAGES,
    QUERY_STAGES,
    STAGE_GENERATION,
    STAGE_POST_INSERT,
    STAGE_POST_RETRIEVE,
    STAGE_PRE_INSERT,
    STAGE_PRE_RETRIEVE,
    STAGE_SEARCH,
    STAGE_STATE_UPDATE,
    degradation,
    latency_aggregate,
    token_f1,
)
from .records import StoreStats, ts_to_iso
from .retrieve import execute_search, run_formulate, run_integrate
from .stores import build_store
from .stores.base import MemoryStore, _rrf_weights
from .stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    Request,
    StreamManifest,
    validate_stream,
    write_atomic,
)
from .text import _word


# ----------------------------------------------------------------------
# checkpoint scheduling
# ----------------------------------------------------------------------

def fraction_count(fraction: float, total: int) -> int:
    """How many of ``total`` inserts make up ``fraction`` of them.

    ``ceil(fraction * total)`` clamped to [1, total], less 1e-9 so an exact
    decimal product survives float representation: 0.07 * 100 is
    7.000000000000001 in binary, and still counts 7.
    """
    return min(max(math.ceil(fraction * total - 1e-9), 1), total)


def fraction_boundaries(fraction: float, total_inserts: int) -> list[int]:
    """Insert counts at which a fraction schedule checkpoints.

    f = 0.2 over 10 inserts gives [2, 4, 6, 8, 10]: the ``fraction_count`` of
    each multiple of f, up to the first at or past 1. The counts never
    decrease. When ``f * total_inserts < 1/2``, each multiple adds less than
    1 to the product, float rounding included, so the counts take every
    integer from the first to the last and the ``1 / f`` multiples are not
    walked; otherwise there are at most about ``2 * total_inserts`` of them.
    """
    if total_inserts <= 0:
        return []
    if fraction * total_inserts < 0.5:
        # the first multiple at or past 1 counts every insert; no reciprocal
        # is formed, so a fraction whose 1 / f overflows takes this branch
        return list(range(fraction_count(fraction, total_inserts), total_inserts + 1))
    steps = math.ceil(round(1.0 / fraction, 9))
    return sorted({fraction_count(j * fraction, total_inserts) for j in range(1, steps + 1)})


def checkpoint_plan(schedule: CheckpointSchedule, manifest: StreamManifest) -> set[int]:
    """Insert counts after which a checkpoint closes.

    fraction: ``fraction_boundaries``; every_n: the multiples of n;
    per_round: the last insert of each run of inserts from one session. The
    last insert always closes one, so no insert is left out of a report.
    """
    sessions = [r.payload.session_id for r in manifest.requests if r.kind == KIND_INSERT]
    total = len(sessions)
    if schedule.fraction is not None:
        plan = set(fraction_boundaries(schedule.fraction, total))
    elif schedule.every_n is not None:
        plan = set(range(schedule.every_n, total + 1, schedule.every_n))
    else:
        plan = {n for n in range(1, total) if sessions[n - 1] != sessions[n]}
    if total:
        plan.add(total)
    return plan


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------

@dataclass(slots=True)
class RequestTrace:
    """Instrumentation for one processed request."""

    seq: int
    ts: int
    kind: str
    stage_ns: dict[str, int]
    e2e_ns: int
    gateway_calls: list[GatewayTiming]
    flags: list[str]


@dataclass(slots=True)
class QueryResult(RequestTrace):
    """A query's trace plus its answer, one record from formulation to report."""

    query_id: str
    category: str
    prediction: str
    gold: str
    f1: float
    checkpoint_index: int
    provenance: tuple[tuple[str, float, int], ...]
    token_estimate: int

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
            "latency": {stage: ns / 1000.0 for stage, ns in sorted(self.stage_ns.items())},
        }


@dataclass
class CheckpointReport:
    checkpoint_index: int
    inserts_consumed: int
    results: list[QueryResult]
    mean_f1: float
    category_f1: dict[str, float]
    latency: dict[str, dict]
    store: StoreStats

    def as_dict(self) -> dict:
        return {
            "checkpoint_index": self.checkpoint_index,
            "inserts_consumed": self.inserts_consumed,
            "n_queries": len(self.results),
            "mean_f1": self.mean_f1,
            "category_f1": self.category_f1,
            "store": self.store.as_dict(),
            "latency": self.latency,
        }


def rollup(traces: list[RequestTrace]) -> tuple[dict[str, float], dict[str, dict], dict[str, int]]:
    """Per-category mean F1, per-stage latency and flag counts of ``traces``.

    F1 comes from the query traces; stage walls and flags from every trace,
    one per request, so each request's flags count once.
    """
    by_category: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {}
    flags: Counter = Counter()
    for trace in traces:
        if isinstance(trace, QueryResult):
            by_category.setdefault(trace.category, []).append(trace.f1)
        for stage, ns in trace.stage_ns.items():
            samples.setdefault(stage, []).append(ns / 1000.0)
        if trace.flags:
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
        category_f1, latency, flags = rollup(self.traces)
        chat_us: dict[str, float] = {}
        embed_us: dict[str, float] = {}
        for trace in self.traces:
            for timing in trace.gateway_calls:
                bucket = chat_us if timing.call_kind == "chat" else embed_us
                bucket[timing.stage] = bucket.get(timing.stage, 0.0) + timing.wall_us
        kinds = Counter(trace.kind for trace in self.traces)
        return {
            "config": self.config,
            "status": self.status,
            "error": self.error,
            "counts": {
                "inserts": kinds[KIND_INSERT],
                "retrieves": kinds[KIND_RETRIEVE],
                "checkpoints": len(self.reports),
            },
            "round_mean_f1": round_means,
            "mean_f1": mean_f1,
            "degradation_pct": deg,
            "category_f1": category_f1,
            "flags": flags,
            "latency": {
                "stages": latency,
                "gateway_chat_us_by_stage": dict(sorted(chat_us.items())),
                "gateway_embed_us_by_stage": dict(sorted(embed_us.items())),
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
                             rate_limit=bucket, dim=cfg.gateway.embed_dim)
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
        # set on every run, like ``stage``: an injected gateway may serve
        # several runs, one after another (see ``Gateway``)
        self.gateway.vectors = (self.store.reads_vectors
                                or cfg.operators.consolidate.strategy in VECTOR_POLICIES)
        self.store.strength_gain = cfg.operators.consolidate.strength_gain
        self.store.initial_strength_s = cfg.operators.consolidate.initial_strength_s
        self.result = ExperimentResult(config=config_to_dict(cfg))
        self.pending: list[QueryResult] = []  # scored, not yet reported
        self.inserts_consumed = 0
        self.window_start = 0  # index of the open checkpoint's first trace

    # -- tracing ----------------------------------------------------------
    def _enter(self, stage: str) -> int:
        """Open ``stage``: bill the gateway calls that follow to it; returns its start stamp."""
        self.gateway.stage = stage
        return time.perf_counter_ns()

    def _close_request(self, request: Request, stages: tuple[str, ...],
                       stamps: list[int], flags: list[str],
                       record: type[RequestTrace] = RequestTrace, **answer) -> RequestTrace:
        """Trace one finished request; ``stages[i]`` ran from ``stamps[i]`` to ``stamps[i + 1]``.

        A query passes ``QueryResult`` as ``record`` with its answer fields.
        An aborted insert passes only the stamps of the stages it finished.
        """
        trace = record(
            seq=request.seq, ts=request.ts, kind=request.kind,
            stage_ns=dict(zip(stages, map(operator.sub, stamps[1:], stamps))),
            e2e_ns=stamps[-1] - stamps[0],
            gateway_calls=self.gateway.drain_timings(),
            flags=flags,
            **answer,
        )
        self.result.traces.append(trace)
        return trace

    # -- insert path ------------------------------------------------------
    def _process_insert(self, request: Request):
        payload = request.payload
        ops = self.cfg.operators

        stamps = [self._enter(STAGE_PRE_INSERT)]
        units, flags = run_normalize(payload, request.ts, ops.normalize, self.gateway)
        for unit in units:
            unit.strength = ops.consolidate.initial_strength_s

        try:
            stamps.append(self._enter(STAGE_STATE_UPDATE))
            ids = self.store.insert(units)

            stamps.append(self._enter(STAGE_POST_INSERT))
            self.inserts_consumed += 1
            actions, post_flags = run_consolidate(self.store, ids, request.ts,
                                                  ops.consolidate, self.gateway,
                                                  self.inserts_consumed)
        except StoreError:
            # the insert that aborts the run is traced too, with the stages it finished
            self._close_request(request, INSERT_STAGES, stamps, flags)
            raise
        stamps.append(time.perf_counter_ns())

        self._close_request(request, INSERT_STAGES, stamps, flags + post_flags)
        log = self.result.action_log
        log.append(f"{request.seq} ts={request.ts} INSERT {','.join(ids) if ids else '-'}")
        if actions:
            prefix = f"{request.seq} ts={request.ts}"
            log.extend(f"{prefix} {action}" for action in actions)

    # -- evaluation path --------------------------------------------------
    def _evaluate_query(self, request: Request, checkpoint_index: int) -> QueryResult:
        payload = request.payload
        ops = self.cfg.operators

        stamps = [self._enter(STAGE_PRE_RETRIEVE)]
        signals, flags = run_formulate(payload, ops.formulate, self.gateway)

        stamps.append(self._enter(STAGE_SEARCH))
        candidates = execute_search(self.store, signals, ops.k, now=request.ts)

        stamps.append(self._enter(STAGE_POST_RETRIEVE))
        bundle, post_flags = run_integrate(payload.query, candidates, self.store,
                                           self.gateway, ops.integrate, ops.k,
                                           now=request.ts)
        flags = flags + post_flags

        stamps.append(self._enter(STAGE_GENERATION))
        try:
            prediction = self.gateway.answer(payload.query, bundle.text)
        except GatewayError:
            prediction = ""
            flags.append("answer_failed")
        stamps.append(time.perf_counter_ns())

        return self._close_request(
            request, QUERY_STAGES, stamps, flags, QueryResult,
            query_id=payload.query_id,
            category=payload.category,
            prediction=prediction,
            gold=payload.gold_answer,
            f1=token_f1(prediction, payload.gold_answer),
            checkpoint_index=checkpoint_index,
            provenance=bundle.provenance,
            token_estimate=bundle.token_estimate,
        )

    def _flush_checkpoint(self):
        index = len(self.result.reports) + 1
        results, self.pending = self.pending, []
        self.result.action_log.append(
            f"CHECKPOINT {index} inserts={self.inserts_consumed} queries={len(results)}")
        self.result.action_log.extend(
            f"{res.seq} ts={res.ts} QUERY {res.query_id} -> {res.prediction}"
            for res in results)

        mean_f1 = sum(r.f1 for r in results) / len(results) if results else 0.0
        traces = self.result.traces
        category_f1, latency, _ = rollup(traces[self.window_start:])
        self.window_start = len(traces)
        self.result.reports.append(CheckpointReport(
            checkpoint_index=index,
            inserts_consumed=self.inserts_consumed,
            results=results,
            mean_f1=mean_f1,
            category_f1=category_f1,
            latency=latency,
            store=self.store.stats(),
        ))

    # -- main loop ----------------------------------------------------------
    def run(self) -> ExperimentResult:
        plan = checkpoint_plan(self.cfg.checkpoint, self.manifest)
        try:
            for request in self.manifest.requests:
                if request.kind == KIND_INSERT:
                    if self.inserts_consumed in plan:
                        self._flush_checkpoint()
                    self._process_insert(request)
                else:
                    self.pending.append(
                        self._evaluate_query(request, len(self.result.reports) + 1))
            if self.inserts_consumed in plan or self.pending:
                self._flush_checkpoint()
        except StoreError as err:
            self.result.status = "aborted"
            self.result.error = f"{type(err).__name__}: {err}"
            # the queries answered since the last checkpoint are results too
            if self.pending:
                self._flush_checkpoint()
        return self.result


_COLLECTOR_LOCK = threading.Lock()


def run_experiment(cfg: ExperimentConfig, manifest: StreamManifest,
                   gateway: Optional[Gateway] = None) -> ExperimentResult:
    """Validate the config and the stream, then run the blocking protocol over it.

    An invalid config raises ``ConfigError`` naming its key, as ``memstream
    run`` reports it, so no dispatcher meets a strategy it does not know.
    """
    cfg.validate()
    violations = validate_stream(manifest)
    if violations:
        first = violations[0]
        raise SchemaError(
            f"stream failed validation with {len(violations)} violation(s); "
            f"first: [{first.kind}] at index {first.index}: {first.detail}")
    # see "Garbage collection" in the module docstring; the lock keeps a run
    # on another thread from turning the collector on between check and act
    with _COLLECTOR_LOCK:
        enabled = gc.isenabled()
        gc.disable()
    try:
        return _Pipeline(cfg, manifest, gateway).run()
    finally:
        if enabled:
            with _COLLECTOR_LOCK:
                gc.enable()


def clear_memos():
    """Empty the process-wide memos that a run fills as it goes.

    ``text._word``, ``gateway._token_codes``, ``records.ts_to_iso`` and
    ``stores.base._rrf_weights`` outlive a run, so a run that follows another
    in the same process finds them warm and bills less time per request.
    ``memstream run`` calls this before each variant, so every variant of a
    grid starts cold; ``run_experiment`` leaves them as they are.
    """
    for memo in (_word, _token_codes, ts_to_iso, _rrf_weights):
        memo.cache_clear()


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

SINK_FILES = ("checkpoints.jsonl", "queries.jsonl", "summary.json", "actions.log")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_sink(out_dir: str | Path, force: bool = False):
    """Raise SinkExists unless ``experiment_sink`` may write to ``out_dir``.

    ``out_dir`` and each of its parents must be a directory or not exist,
    and unless ``force`` is set no result file may exist in it yet. Creates
    nothing, so a run can be checked before it starts.
    """
    out = Path(out_dir)
    for path in (out, *out.parents):
        if path.is_dir():
            break
        if path.exists() or path.is_symlink():  # a file, or a dangling link
            raise SinkExists(f"cannot create result directory {out}: {path} is not a directory")
    if not force:
        existing = [str(out / name) for name in SINK_FILES if (out / name).exists()]
        if existing:
            raise SinkExists(
                f"refusing to overwrite {', '.join(existing)} (use --force)")


def experiment_sink(result: ExperimentResult, out_dir: str | Path,
                    force: bool = False) -> list[Path]:
    """Write checkpoints.jsonl / queries.jsonl / summary.json / actions.log.

    Raises SinkExists when ``check_sink`` refuses ``out_dir``. Each file is
    replaced atomically, and the summary is computed before any file is
    touched. Wall clock readings only ever appear under "latency" keys, so
    consumers can strip those for byte comparisons.
    """
    check_sink(out_dir, force)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    targets = [out / name for name in SINK_FILES]
    summary = json.dumps(result.summary(), sort_keys=True, indent=2)
    write_atomic(targets[0], (_dump(report.as_dict()) for report in result.reports))
    write_atomic(targets[1], (_dump(res.as_dict()) for res in result.query_results))
    write_atomic(targets[2], [summary])
    write_atomic(targets[3], result.action_log)
    return targets
