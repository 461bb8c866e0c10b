"""Pipeline protocol tests: bounded-buffer backpressure, checkpoint
scheduling, abort semantics, determinism of persisted results, and
stage-wall accounting."""

import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from memstream.config import (
    CheckpointSchedule,
    ExperimentConfig,
    GatewayConfig,
    IntegrateConfig,
    OperatorConfig,
    StoreConfig,
)
from memstream.errors import SchemaError, SinkExists
from memstream.gateway import MockGateway
from memstream.metrics import (
    ALL_STAGES,
    INSERT_STAGES,
    STAGE_GENERATION,
    STAGE_POST_RETRIEVE,
    STAGE_PRE_INSERT,
    STAGE_PRE_RETRIEVE,
)
from memstream.orchestrator import (
    HistorySource,
    SINK_FILES,
    _Pipeline,
    checkpoint_due,
    experiment_sink,
    fraction_boundaries,
    run_experiment,
)
from memstream.stream import (
    AfterCount,
    KIND_INSERT,
    KIND_RETRIEVE,
    QuerySpec,
    Request,
    RetrievePayload,
    SessionTurns,
    StreamManifest,
    Turn,
    serialize_stream,
    write_atomic,
)


def make_manifest(n_inserts=10, queries=(), sessions=1, source="test"):
    """n_inserts spread over equally sized sessions, plus AfterCount queries.

    queries: iterable of (query_id, text, gold, count) tuples.
    """
    per_session = n_inserts // sessions
    session_list = []
    for s in range(sessions):
        turns = tuple(
            Turn(text=f"session {s} turn {t} fact number {s * per_session + t}")
            for t in range(per_session)
        )
        session_list.append(SessionTurns(session_id=f"s{s}", turns=turns,
                                         base_ts=s * 10_000_000_000))
    specs = [
        QuerySpec(payload=RetrievePayload(query=text, gold_answer=gold,
                                          query_id=qid),
                  trigger=AfterCount(count=count))
        for qid, text, gold, count in queries
    ]
    return serialize_stream(session_list, specs, source=source)


def base_config(**overrides):
    cfg = ExperimentConfig(
        store=StoreConfig(backend="fifo_queue"),
        operators=OperatorConfig(),
        checkpoint=CheckpointSchedule(fraction=0.5),
        gateway=GatewayConfig(embed_dim=32),  # matches the injected MockGateway
        output_dir="unused",
    )
    for name, value in overrides.items():
        setattr(cfg, name, value)
    return cfg


# ----------------------------------------------------------------------
# bounded buffer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("capacity", [1, 4, 64])
def test_history_source_high_water_bounded(capacity):
    manifest = make_manifest(n_inserts=30)
    source = HistorySource(manifest, buffer_capacity=capacity)
    seen = []
    for i, request in enumerate(source):
        if i < 5:
            time.sleep(0.002)  # let the producer run ahead as far as it can
        seen.append(request.seq)
    assert seen == [r.seq for r in manifest.requests]
    assert 1 <= source.high_water <= capacity


class CountingCondition(threading.Condition):
    """A condition that counts the returns from ``wait``."""

    def __init__(self, lock):
        super().__init__(lock)
        self.returns = 0

    def wait(self, timeout=None):
        woken = super().wait(timeout)
        self.returns += 1
        return woken


@pytest.mark.parametrize("capacity", [1, 2, 3, 64])
def test_producer_refills_in_runs_of_half_a_buffer(capacity):
    manifest = make_manifest(n_inserts=1000)
    source = HistorySource(manifest, buffer_capacity=capacity)
    source._not_full = CountingCondition(source._lock)
    seen = []

    def consume():
        for request in source:
            time.sleep(0)  # hand the producer the GIL between requests
            seen.append(request.seq)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out lost wake-ups
    try:
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive(), "the stream stalled"
    source.close()
    assert seen == [r.seq for r in manifest.requests]
    assert 1 <= source.high_water <= capacity
    if capacity == 64:
        # woken once per half buffer drained, not once per request (~935)
        assert source._not_full.returns <= 1000 / 32 + 2, source._not_full.returns


def test_high_water_counts_requests_not_the_end_marker():
    manifest = make_manifest(n_inserts=6, queries=[("q0", "fact number 2", "two", 3)])
    source = HistorySource(manifest, buffer_capacity=len(manifest.requests) + 1)
    source._produce()  # nothing consumes, so every request stays buffered
    assert len(source._items) == len(manifest.requests) + 1
    assert source.high_water == len(manifest.requests)


def test_history_source_rejects_bad_capacity():
    manifest = make_manifest(n_inserts=2)
    with pytest.raises(ValueError):
        HistorySource(manifest, buffer_capacity=0)


# ----------------------------------------------------------------------
# checkpoint scheduling
# ----------------------------------------------------------------------

def test_fraction_boundaries_hand_values():
    assert fraction_boundaries(0.2, 10) == [2, 4, 6, 8, 10]
    assert fraction_boundaries(0.3, 10) == [3, 6, 9, 10]
    assert fraction_boundaries(1.0, 7) == [7]
    assert fraction_boundaries(0.5, 1) == [1]
    assert fraction_boundaries(0.2, 0) == []


def test_checkpoint_due_predicates():
    frac = CheckpointSchedule(fraction=0.5)
    assert not checkpoint_due(0, frac, 10)
    assert checkpoint_due(5, frac, 10) and checkpoint_due(10, frac, 10)
    assert not checkpoint_due(4, frac, 10)

    every = CheckpointSchedule(every_n=3)
    assert checkpoint_due(3, every, 10) and checkpoint_due(6, every, 10)
    assert not checkpoint_due(4, every, 10)

    per_round = CheckpointSchedule(per_round=True)
    assert not checkpoint_due(5, per_round, 10)


def test_fraction_schedule_flushes_at_expected_inserts():
    manifest = make_manifest(n_inserts=10)
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.2))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.status == "complete"
    assert [r.inserts_consumed for r in result.reports] == [2, 4, 6, 8, 10]


def test_run_builds_the_fraction_schedule_once(monkeypatch):
    from memstream import orchestrator

    calls = []
    original = orchestrator.fraction_boundaries

    def counted(fraction, total_inserts):
        calls.append((fraction, total_inserts))
        return original(fraction, total_inserts)

    monkeypatch.setattr(orchestrator, "fraction_boundaries", counted)
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.2))
    result = run_experiment(cfg, make_manifest(n_inserts=10), MockGateway(dim=32))
    assert [r.inserts_consumed for r in result.reports] == [2, 4, 6, 8, 10]
    assert calls == [(0.2, 10)]


def test_every_n_schedule_with_ragged_tail():
    cfg = base_config(checkpoint=CheckpointSchedule(every_n=4))
    result = run_experiment(cfg, make_manifest(n_inserts=10), MockGateway(dim=32))
    assert [r.inserts_consumed for r in result.reports] == [4, 8, 10]
    # an exact multiple does not add an empty trailing checkpoint
    result = run_experiment(cfg, make_manifest(n_inserts=8), MockGateway(dim=32))
    assert [r.inserts_consumed for r in result.reports] == [4, 8]


def test_per_round_schedule_flushes_on_session_transitions():
    manifest = make_manifest(n_inserts=12, sessions=3)
    cfg = base_config(checkpoint=CheckpointSchedule(per_round=True))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert [r.inserts_consumed for r in result.reports] == [4, 8, 12]


def test_queries_evaluated_at_next_checkpoint_boundary():
    # the query anchors to insert 3; with every_n=2 its results must appear
    # in the checkpoint that fires right after insert 4, not earlier
    manifest = make_manifest(
        n_inserts=6,
        queries=[("q0", "fact number 2", "two", 3)],
    )
    cfg = base_config(checkpoint=CheckpointSchedule(every_n=2))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert [r.inserts_consumed for r in result.reports] == [2, 4, 6]
    assert [len(r.results) for r in result.reports] == [0, 1, 0]
    res = result.reports[1].results[0]
    assert res.query_id == "q0"
    assert res.checkpoint_index == 2


def test_trailing_queries_flushed_at_end_of_stream():
    manifest = make_manifest(
        n_inserts=4,
        queries=[("q0", "fact number 3", "three", 4)],
    )
    cfg = base_config(checkpoint=CheckpointSchedule(every_n=10))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert len(result.reports) == 1
    assert result.reports[0].inserts_consumed == 4
    assert [r.query_id for r in result.reports[0].results] == ["q0"]


# ----------------------------------------------------------------------
# causality and blocking
# ----------------------------------------------------------------------

def test_provenance_is_strictly_causal():
    queries = [(f"q{i}", f"fact number {i}", "x", i + 1) for i in range(8)]
    manifest = make_manifest(n_inserts=8, queries=queries)
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.25))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.status == "complete"
    checked = 0
    for res in result.query_results:
        for _rid, _score, record_ts in res.provenance:
            assert record_ts < res.ts
            checked += 1
    assert checked > 0


def test_insert_guard_rejects_reentry_during_evaluation():
    manifest = make_manifest(n_inserts=2)
    pipeline = _Pipeline(base_config(), manifest, MockGateway(dim=32))
    pipeline.eval_in_flight = True
    insert_request = manifest.requests[0]
    with pytest.raises(RuntimeError, match="blocking violation"):
        pipeline._process_insert(insert_request)


def test_stage_walls_sum_to_end_to_end_exactly():
    queries = [(f"q{i}", f"fact number {i}", "x", i + 1) for i in range(5)]
    manifest = make_manifest(n_inserts=10, queries=queries)
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.5))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.traces
    for trace in result.traces:
        assert sum(trace.stage_ns.values()) == trace.e2e_ns
        assert all(ns >= 0 for ns in trace.stage_ns.values())


def test_gateway_free_strategies_spend_no_chat_outside_generation():
    queries = [("q0", "fact number 1", "x", 2)]
    manifest = make_manifest(n_inserts=4, queries=queries)
    result = run_experiment(base_config(), manifest, MockGateway(dim=32))
    summary = result.summary()
    chat = summary["latency"]["gateway_chat_us_by_stage"]
    assert set(chat) <= {STAGE_GENERATION}
    assert STAGE_PRE_RETRIEVE not in chat and STAGE_POST_RETRIEVE not in chat
    embed = summary["latency"]["gateway_embed_us_by_stage"]
    assert set(embed) <= {STAGE_PRE_INSERT, STAGE_PRE_RETRIEVE}


# ----------------------------------------------------------------------
# abort semantics
# ----------------------------------------------------------------------

def test_store_failure_mid_run_aborts_with_partial_results():
    manifest = make_manifest(n_inserts=5)
    cfg = base_config(
        store=StoreConfig(backend="fifo_queue",
                          params={"capacity": 2, "overflow": "error"}),
        checkpoint=CheckpointSchedule(every_n=1),
    )
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.status == "aborted"
    assert "CapacityExceeded" in result.error
    # checkpoints flushed before the failure survive
    assert [r.inserts_consumed for r in result.reports] == [1, 2]
    assert result.high_water >= 1


def test_aborted_runs_release_the_producer_thread():
    # 30 requests through a 2-slot buffer: the producer is still blocked on
    # a full buffer when the third insert overflows the store and aborts
    manifest = make_manifest(n_inserts=30)
    cfg = base_config(
        store=StoreConfig(backend="fifo_queue",
                          params={"capacity": 2, "overflow": "error"}),
        checkpoint=CheckpointSchedule(every_n=1),
        buffer_capacity=2,
    )
    before = threading.active_count()
    for _ in range(3):
        result = run_experiment(cfg, manifest, MockGateway(dim=32))
        assert result.status == "aborted"
    assert threading.active_count() == before


def test_close_ends_a_producer_blocked_on_a_full_buffer():
    source = HistorySource(make_manifest(n_inserts=10), buffer_capacity=1)
    next(iter(source))
    source.close()
    assert source._thread is not None and not source._thread.is_alive()


def test_run_experiment_rejects_invalid_stream():
    good = make_manifest(n_inserts=3)
    shuffled = StreamManifest(requests=tuple(reversed(good.requests)),
                              source="test")
    with pytest.raises(SchemaError, match="violation"):
        run_experiment(base_config(), shuffled, MockGateway(dim=32))


# ----------------------------------------------------------------------
# summary and action log
# ----------------------------------------------------------------------

def test_summary_counts_and_structure():
    # golds overlap the mock predictions so both rounds score above zero
    # and the first-to-last degradation is computable
    queries = [("q0", "fact number 1", "fact number 1", 2),
               ("q1", "fact number 3", "fact number 3", 4)]
    manifest = make_manifest(n_inserts=6, queries=queries)
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.5), buffer_capacity=4)
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    summary = result.summary()
    assert summary["status"] == "complete" and summary["error"] is None
    assert summary["counts"] == {"inserts": 6, "retrieves": 2, "checkpoints": 2}
    assert len(summary["round_mean_f1"]) == 2
    assert summary["latency"]["buffer_high_water"] == result.high_water
    assert isinstance(summary["flags"], dict)
    assert summary["degradation_pct"] is not None


def test_summary_counts_each_request_flags_once():
    queries = [(f"q{i}", f"fact number {i}", f"fact number {i}", i + 1) for i in range(4)]
    manifest = make_manifest(n_inserts=8, queries=queries)
    # one context line costs more than 5 tokens, so every bundle truncates
    cfg = base_config(operators=OperatorConfig(integrate=IntegrateConfig(budget_tokens=5)))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert all("budget_truncated" in res.flags for res in result.query_results)
    assert result.summary()["flags"] == {"budget_truncated": 4}


def test_summary_rollup_agrees_with_checkpoints_and_traces():
    golds = ("fact number 1", "nothing alike", "fact number 5", "fact")
    specs = [
        QuerySpec(payload=RetrievePayload(query=f"fact number {i}", gold_answer=golds[i % 4],
                                          query_id=f"q{i}", category=f"cat{i % 3}"),
                  trigger=AfterCount(count=i + 1))
        for i in range(7)
    ]
    session = SessionTurns(session_id="s0", turns=tuple(
        Turn(text=f"turn {t} fact number {t}") for t in range(9)), base_ts=0)
    manifest = serialize_stream([session], specs)
    cfg = base_config(checkpoint=CheckpointSchedule(every_n=2))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    summary = result.summary()
    assert len(result.reports) > 2
    assert set(summary["latency"]["stages"]) == set(ALL_STAGES)
    for stage, agg in summary["latency"]["stages"].items():
        per_checkpoint = sum(report.latency.stages[stage].count
                             for report in result.reports if stage in report.latency.stages)
        kind = KIND_INSERT if stage in INSERT_STAGES else KIND_RETRIEVE
        assert agg["count"] == per_checkpoint
        assert agg["count"] == sum(1 for trace in result.traces if trace.kind == kind)
    by_category = {}
    for res in result.query_results:
        by_category.setdefault(res.category, []).append(res.f1)
    assert summary["category_f1"] == {
        cat: sum(vals) / len(vals) for cat, vals in sorted(by_category.items())}
    assert len(by_category) == 3


def test_summary_degradation_needs_two_scored_rounds():
    manifest = make_manifest(n_inserts=4, queries=[("q0", "fact number 1", "x", 2)])
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.5))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.summary()["degradation_pct"] is None


ACTION_LINE = re.compile(
    r"^(\d+ ts=\d+ (INSERT m\d{6}(,m\d{6})*|QUERY \S+ -> .*|[A-Z]+ .*)"
    r"|CHECKPOINT \d+ inserts=\d+ queries=\d+)$"
)


def test_action_log_shape_and_order():
    queries = [("q0", "fact number 1", "x", 2)]
    manifest = make_manifest(n_inserts=4, queries=queries)
    cfg = base_config(checkpoint=CheckpointSchedule(every_n=2))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    log = result.action_log
    assert log[0].endswith("INSERT m000001")
    for line in log:
        assert ACTION_LINE.match(line), line
    # the query line appears after its checkpoint header
    cp_index = next(i for i, l in enumerate(log) if l.startswith("CHECKPOINT 1"))
    q_index = next(i for i, l in enumerate(log) if " QUERY q0 -> " in l)
    assert cp_index < q_index


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def run_small(tmp_path, name, **cfg_overrides):
    queries = [(f"q{i}", f"fact number {i}", f"gold {i}", i + 1) for i in range(4)]
    manifest = make_manifest(n_inserts=8, queries=queries)
    cfg = base_config(**cfg_overrides)
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    out = tmp_path / name
    experiment_sink(result, out)
    return out


def strip_latency(obj):
    if isinstance(obj, dict):
        return {k: strip_latency(v) for k, v in obj.items() if k != "latency"}
    if isinstance(obj, list):
        return [strip_latency(v) for v in obj]
    return obj


def normalized_lines(path):
    return [strip_latency(json.loads(line))
            for line in path.read_text().splitlines()]


def test_results_do_not_depend_on_buffer_capacity(tmp_path):
    queries = [(f"q{i}", f"fact number {i * 7}", f"fact number {i * 7}", i * 10 + 10)
               for i in range(8)]
    manifest = make_manifest(n_inserts=90, queries=queries, sessions=3)

    def outside_latency(capacity):
        result = run_experiment(base_config(buffer_capacity=capacity), manifest,
                                MockGateway(dim=32))
        out = tmp_path / f"b{capacity}"
        experiment_sink(result, out)
        summary = strip_latency(json.loads((out / "summary.json").read_text()))
        del summary["config"]["buffer_capacity"]  # the one input that differs
        return (normalized_lines(out / "checkpoints.jsonl"),
                normalized_lines(out / "queries.jsonl"),
                (out / "actions.log").read_bytes(), summary)

    first, *rest = map(outside_latency, (1, 3, 64))
    assert all(other == first for other in rest)


def test_sink_writes_all_files_and_refuses_overwrite(tmp_path):
    out = run_small(tmp_path, "run1")
    for name in SINK_FILES:
        assert (out / name).exists()
    manifest = make_manifest(n_inserts=2)
    result = run_experiment(base_config(), manifest, MockGateway(dim=32))
    with pytest.raises(SinkExists, match="--force"):
        experiment_sink(result, out)
    experiment_sink(result, out, force=True)  # explicit overwrite allowed


def test_sink_failure_keeps_previous_files_and_leaves_no_temp(tmp_path, monkeypatch):
    out = run_small(tmp_path, "run1")
    before = {name: (out / name).read_bytes() for name in SINK_FILES}
    result = run_experiment(base_config(), make_manifest(n_inserts=2), MockGateway(dim=32))

    def broken_summary():
        raise RuntimeError("summary failed")

    monkeypatch.setattr(result, "summary", broken_summary)
    with pytest.raises(RuntimeError, match="summary failed"):
        experiment_sink(result, out, force=True)
    assert {name: (out / name).read_bytes() for name in SINK_FILES} == before
    assert not list(out.glob("*.tmp"))


def test_write_atomic_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_text("old\n")

    def lines():
        yield "new"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        write_atomic(target, lines())
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_sink_creates_nested_directories(tmp_path):
    manifest = make_manifest(n_inserts=2)
    result = run_experiment(base_config(), manifest, MockGateway(dim=32))
    out = tmp_path / "a" / "b" / "c"
    experiment_sink(result, out)
    assert (out / "summary.json").exists()


def test_repeat_runs_are_identical_modulo_wall_clock(tmp_path):
    out_a = run_small(tmp_path, "a", seed=11)
    out_b = run_small(tmp_path, "b", seed=11)
    assert (out_a / "actions.log").read_bytes() == (out_b / "actions.log").read_bytes()
    for name in ("checkpoints.jsonl", "queries.jsonl"):
        assert normalized_lines(out_a / name) == normalized_lines(out_b / name)
    summary_a = strip_latency(json.loads((out_a / "summary.json").read_text()))
    summary_b = strip_latency(json.loads((out_b / "summary.json").read_text()))
    assert summary_a == summary_b


def test_queries_jsonl_isolates_wall_clock_under_latency_keys(tmp_path):
    out = run_small(tmp_path, "walls")
    rows = [json.loads(line)
            for line in (out / "queries.jsonl").read_text().splitlines()]
    assert rows
    for row in rows:
        assert set(row["latency"]) == {
            STAGE_PRE_RETRIEVE, "Search", STAGE_POST_RETRIEVE, STAGE_GENERATION}
        # logical fields carry no wall readings
        assert isinstance(row["ts_us"], int)
        assert row["checkpoint_index"] >= 1
