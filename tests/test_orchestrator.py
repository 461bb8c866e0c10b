"""Pipeline protocol tests: checkpoint scheduling, abort semantics,
determinism of persisted results, and stage-wall accounting."""

import json
import math
import re
import threading
from pathlib import Path

import pytest

from memstream.config import (
    CheckpointSchedule,
    ConfigError,
    ConsolidateConfig,
    ExperimentConfig,
    FormulateConfig,
    GatewayConfig,
    IntegrateConfig,
    NormalizeConfig,
    OperatorConfig,
    StoreConfig,
)
from memstream.errors import SchemaError, SinkExists
from memstream.gateway import MockGateway
from memstream.metrics import (
    ALL_STAGES,
    INSERT_STAGES,
    STAGE_GENERATION,
    STAGE_POST_INSERT,
    STAGE_POST_RETRIEVE,
    STAGE_PRE_INSERT,
    STAGE_PRE_RETRIEVE,
)
from memstream.orchestrator import (
    SINK_FILES,
    checkpoint_plan,
    experiment_sink,
    fraction_boundaries,
    run_experiment,
)
from memstream.records import (
    Candidate,
    ContextBundle,
    MemoryRecord,
    RetrievalSignal,
    Triplet,
)
from memstream.stores import BACKENDS
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
from reference import (
    GRID_DIM,
    golden_configs,
    insert_count,
    make_config,
    ref_fraction_boundaries,
    result_digest,
    small_stream,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def make_manifest(n_inserts=10, queries=(), sessions=1):
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
    return serialize_stream(session_list, specs)


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
# checkpoint scheduling
# ----------------------------------------------------------------------

def test_fraction_boundaries_first_checkpoint_is_the_exact_integer_ceiling():
    # float products such as 0.07 * 100 = 7.000000000000001 still count 7
    for i in range(1, 101):
        for n in range(1, 200):
            assert fraction_boundaries(i / 100, n)[0] == max(1, -(-i * n // 100)), (i, n)


def test_fraction_boundaries_hand_values():
    assert fraction_boundaries(0.2, 10) == [2, 4, 6, 8, 10]
    assert fraction_boundaries(0.3, 10) == [3, 6, 9, 10]
    assert fraction_boundaries(1.0, 7) == [7]
    assert fraction_boundaries(0.5, 1) == [1]
    assert fraction_boundaries(0.2, 0) == []
    # 1 / f overflows a float: every insert closes a checkpoint
    assert fraction_boundaries(1e-320, 10) == list(range(1, 11))
    assert fraction_boundaries(5e-324, 3) == [1, 2, 3]


def fraction_grid(total):
    """Fractions whose products with ``total`` sit on or beside 1 and 1/2, plus exact decimals."""
    grid = {i / 100 for i in range(1, 101)}  # 0.07 * 100 is 7.000000000000001
    for target in (1.0, 0.5):
        exact = target / total
        grid |= {exact, math.nextafter(exact, 0.0), math.nextafter(exact, 1.0),
                 exact * (1 - 1e-9), exact * (1 + 1e-9)}
    return sorted(f for f in grid if 0.0 < f <= 1.0)


def test_fraction_boundaries_equal_the_walk_over_every_multiple():
    for total in list(range(0, 60)) + [97, 100, 128, 199]:
        for fraction in fraction_grid(total or 1):
            assert fraction_boundaries(fraction, total) == \
                ref_fraction_boundaries(fraction, total), (fraction, total)
    for fraction in (1e-4, 3.3e-4, 1 / 3000):
        for total in (1, 2, 7, 100, 1000, 2999, 3000, 3001):
            assert fraction_boundaries(fraction, total) == \
                ref_fraction_boundaries(fraction, total), (fraction, total)


def test_fraction_boundaries_work_is_bounded_by_the_insert_count(monkeypatch):
    from memstream import orchestrator

    calls = []
    original = orchestrator.fraction_count

    def counted(fraction, total):
        calls.append(fraction)
        return original(fraction, total)

    monkeypatch.setattr(orchestrator, "fraction_count", counted)
    for fraction, total in ((1e-6, 100), (0.004, 100), (0.3, 1000), (1.0, 5)):
        calls.clear()
        want = ref_fraction_boundaries(fraction, total)
        assert fraction_boundaries(fraction, total) == want
        assert len(calls) <= 2 * total + 2, (fraction, total, len(calls))
    # the reference would walk a billion multiples
    calls.clear()
    assert fraction_boundaries(1e-9, 100) == list(range(1, 101))
    assert len(calls) <= 2


@pytest.mark.parametrize("operator", ["normalize", "consolidate", "formulate", "integrate"])
def test_run_experiment_rejects_a_misspelled_strategy_naming_its_key(operator):
    # a config built in code is validated like one read from a file, so no
    # dispatcher falls through to "none" and no echo names a bogus strategy
    cfg = ExperimentConfig(gateway=GatewayConfig(embed_dim=GRID_DIM))
    getattr(cfg.operators, operator).strategy = "bogus"
    with pytest.raises(ConfigError, match=rf"^{operator}\.strategy must be one of .*'bogus'"):
        run_experiment(cfg, small_stream())


def test_checkpoint_plan():
    frac = CheckpointSchedule(fraction=0.5)
    assert checkpoint_plan(frac, make_manifest(n_inserts=10)) == {5, 10}

    # the remainder after the last multiple closes at the last insert
    every = CheckpointSchedule(every_n=3)
    assert checkpoint_plan(every, make_manifest(n_inserts=10)) == {3, 6, 9, 10}
    assert checkpoint_plan(every, make_manifest(n_inserts=9)) == {3, 6, 9}

    # the last insert of each session; queries between inserts do not count
    manifest = make_manifest(n_inserts=12, sessions=3,
                             queries=[("q0", "fact number 2", "two", 4)])
    per_round = CheckpointSchedule(per_round=True)
    assert checkpoint_plan(per_round, manifest) == {4, 8, 12}


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


def test_stage_walls_sum_to_end_to_end_exactly():
    queries = [(f"q{i}", f"fact number {i}", "x", i + 1) for i in range(5)]
    manifest = make_manifest(n_inserts=10, queries=queries)
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.5))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.traces
    for trace in result.traces:
        assert sum(trace.stage_ns.values()) == trace.e2e_ns
        assert all(ns >= 0 for ns in trace.stage_ns.values())


def test_per_request_types_are_slotted():
    # a type that loses its slots builds an instance dict for every request
    queries = [("q0", "fact number 1", "x", 2)]
    manifest = make_manifest(n_inserts=4, queries=queries)
    result = run_experiment(base_config(), manifest, MockGateway(dim=32))
    requests = [next(r for r in manifest.requests if r.kind == kind)
                for kind in (KIND_INSERT, KIND_RETRIEVE)]
    traces = [next(t for t in result.traces if t.kind == kind)
              for kind in (KIND_INSERT, KIND_RETRIEVE)]
    record = MemoryRecord("m1", "a fact.", 0, "s0")
    instances = [
        record, Triplet("cat", "is", "red"), RetrievalSignal("a query"),
        Candidate(record, 0.5), ContextBundle("", (), 0),
        *requests, *(request.payload for request in requests), *traces,
    ]
    assert {type(obj).__name__ for obj in instances} == {
        "MemoryRecord", "Triplet", "RetrievalSignal", "Candidate", "ContextBundle",
        "Request", "InsertPayload", "RetrievePayload", "RequestTrace", "QueryResult"}
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


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


def test_gateway_calls_bill_to_the_stage_the_orchestrator_opened():
    queries = [(f"q{i}", f"fact number {i}", "x", i + 2) for i in range(3)]
    manifest = make_manifest(n_inserts=8, queries=queries)
    ops = OperatorConfig(normalize=NormalizeConfig(strategy="enrich"),
                         consolidate=ConsolidateConfig(strategy="crud"),
                         formulate=FormulateConfig(strategy="keyword"),
                         integrate=IntegrateConfig(strategy="multi_query"))
    # a store whose search reads vectors, so queries embed too
    cfg = base_config(store=StoreConfig(backend="inverted_vector"), operators=ops)
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    calls = [timing for trace in result.traces for timing in trace.gateway_calls]
    chat = {(t.template_id, t.stage) for t in calls if t.call_kind == "chat"}
    assert chat == {("summarize", STAGE_PRE_INSERT), ("crud", STAGE_POST_INSERT),
                    ("keywords", STAGE_PRE_RETRIEVE), ("paraphrase", STAGE_POST_RETRIEVE),
                    ("answer", STAGE_GENERATION)}
    embed = {t.stage for t in calls if t.call_kind == "embed"}
    assert embed == {STAGE_PRE_INSERT, STAGE_PRE_RETRIEVE, STAGE_POST_RETRIEVE}


def test_failed_answer_fails_open_to_an_empty_prediction():
    queries = [(f"q{i}", f"fact number {i}", "x", i + 1) for i in range(4)]
    manifest = make_manifest(n_inserts=6, queries=queries)
    result = run_experiment(base_config(), manifest,
                            MockGateway(dim=32, failing={"answer"}))
    assert result.status == "complete"
    assert len(result.query_results) == 4
    for res in result.query_results:
        assert res.prediction == "" and "answer_failed" in res.flags
    assert result.summary()["flags"] == {"answer_failed": 4}
    failed = [t for trace in result.traces for t in trace.gateway_calls if not t.ok]
    assert len(failed) == 4
    assert all(t.stage == STAGE_GENERATION for t in failed)


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


def test_aborted_run_reports_queries_answered_after_last_checkpoint(tmp_path):
    # the third insert overflows the 2-record store before the first every_n
    # checkpoint closes; the query answered after the second insert must
    # still reach the results, in a checkpoint of its own
    manifest = make_manifest(n_inserts=5, queries=[("q0", "fact number 1", "1", 2)])
    cfg = base_config(
        store=StoreConfig(backend="fifo_queue",
                          params={"capacity": 2, "overflow": "error"}),
        checkpoint=CheckpointSchedule(every_n=10),
    )
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    assert result.status == "aborted"
    # the third insert, which aborted the run, is counted; it was never consumed
    assert result.summary()["counts"] == {"inserts": 3, "retrieves": 1, "checkpoints": 1}
    assert [r.inserts_consumed for r in result.reports] == [2]
    assert [res.query_id for res in result.query_results] == ["q0"]
    assert result.query_results[0].checkpoint_index == 1
    experiment_sink(result, tmp_path)
    assert len((tmp_path / "queries.jsonl").read_text().splitlines()) == 1
    assert any(" QUERY q0 -> " in line
               for line in (tmp_path / "actions.log").read_text().splitlines())


def test_an_aborted_run_counts_the_request_that_aborted_it():
    # every insert falls back from the failing triplet extraction; the third
    # overflows the 2-record store, and its flag and finished stage count too
    manifest = make_manifest(n_inserts=5, queries=[("q0", "fact number 1", "1", 2)])
    cfg = base_config(
        store=StoreConfig(backend="fifo_queue",
                          params={"capacity": 2, "overflow": "error"}),
        operators=OperatorConfig(normalize=NormalizeConfig(strategy="rewrite")),
        checkpoint=CheckpointSchedule(every_n=10),
    )
    result = run_experiment(cfg, manifest, MockGateway(dim=32, failing={"triplets"}))
    assert result.status == "aborted" and result.error.startswith("CapacityExceeded")
    summary = result.summary()
    assert summary["flags"] == {"rewrite_fallback": 3}
    assert summary["counts"]["inserts"] == 3
    aborting = result.traces[-1]
    assert (aborting.seq, aborting.kind) == (manifest.requests[3].seq, KIND_INSERT)
    assert list(aborting.stage_ns) == [STAGE_PRE_INSERT]
    assert aborting.e2e_ns == aborting.stage_ns[STAGE_PRE_INSERT]
    assert [call.template_id for call in aborting.gateway_calls] == ["triplets"]
    assert summary["latency"]["stages"][STAGE_PRE_INSERT]["count"] == 3


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_backend_fails_open_when_every_embed_call_fails(backend):
    # each failed embed call leaves its turn or query unembedded and flagged;
    # the run goes on, and lsh_hash keeps such turns under no bucket
    manifest = small_stream()
    result = run_experiment(make_config(backend, "none", "none", "none", "none"), manifest,
                            MockGateway(dim=GRID_DIM, failing={"embed"}))
    assert result.status == "complete", result.error
    embedding = [trace for trace in result.traces
                 if any(call.call_kind == "embed" for call in trace.gateway_calls)]
    assert all("embed_failed" in trace.flags for trace in embedding)
    assert result.summary()["flags"].get("embed_failed", 0) == len(embedding)
    assert bool(embedding) is BACKENDS[backend].reads_vectors
    if backend == "lsh_hash":
        assert result.reports[-1].store.record_count == insert_count(manifest)
        assert not any(res.provenance for res in result.query_results)


@pytest.mark.parametrize("backend, query_embeds", [
    ("fifo_queue", set()),
    ("inverted_vector", {STAGE_PRE_RETRIEVE, STAGE_POST_RETRIEVE}),
])
def test_a_query_embeds_only_when_the_store_search_reads_vectors(backend, query_embeds):
    # semantic_consolidation reads the inserted records' vectors, so every
    # insert embeds; fifo_queue's search reads none, so its queries embed
    # nothing, not even multi_query's paraphrases, and results stay the same
    golden = json.loads(GOLDEN.read_text())
    ((key, cfg),) = [(key, cfg) for key, cfg in golden_configs().items()
                     if key.startswith(f"{backend}/semantic_consolidation/")
                     and key.endswith("/multi_query")]
    result = run_experiment(cfg, small_stream(), MockGateway(dim=GRID_DIM))
    assert golden[key] == {"status": "complete", "digest": result_digest(result)}
    embeds = {call.stage for trace in result.traces for call in trace.gateway_calls
              if call.call_kind == "embed"}
    assert embeds == {STAGE_PRE_INSERT} | query_embeds


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_each_query_result_is_the_trace_of_its_request(backend):
    # one record per query: no field is copied from the trace into the result
    result = run_experiment(make_config(backend, "none", "none", "decompose", "none"),
                            small_stream(), MockGateway(dim=GRID_DIM))
    by_seq = {trace.seq: trace for trace in result.traces}
    assert len(result.query_results) == sum(
        1 for trace in result.traces if trace.kind == KIND_RETRIEVE) > 0
    for res in result.query_results:
        assert res is by_seq[res.seq]
        assert res.as_dict()["latency"] == {
            stage: ns / 1000.0 for stage, ns in res.stage_ns.items()}


class ThreadCountingGateway(MockGateway):
    """Mock gateway that records the live thread count at every call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.thread_counts = []

    def _call(self, *args):
        self.thread_counts.append(threading.active_count())
        return super()._call(*args)


@pytest.mark.parametrize("store_capacity, status", [(64, "complete"), (2, "aborted")])
def test_runs_start_no_thread(store_capacity, status):
    # a 2-record store that refuses to overflow aborts the run on its third
    # insert
    manifest = make_manifest(n_inserts=30, queries=[("q0", "fact number 1", "1", 2)])
    cfg = base_config(
        store=StoreConfig(backend="fifo_queue",
                          params={"capacity": store_capacity, "overflow": "error"}),
        checkpoint=CheckpointSchedule(every_n=1),
    )
    gateway = ThreadCountingGateway(dim=32)
    before = threading.active_count()
    result = run_experiment(cfg, manifest, gateway)
    assert result.status == status
    assert gateway.thread_counts
    assert set(gateway.thread_counts) == {before}
    assert threading.active_count() == before


def test_run_experiment_rejects_invalid_stream():
    good = make_manifest(n_inserts=3)
    shuffled = StreamManifest(requests=tuple(reversed(good.requests)))
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
    cfg = base_config(checkpoint=CheckpointSchedule(fraction=0.5))
    result = run_experiment(cfg, manifest, MockGateway(dim=32))
    summary = result.summary()
    assert summary["status"] == "complete" and summary["error"] is None
    assert summary["counts"] == {"inserts": 6, "retrieves": 2, "checkpoints": 2}
    assert len(summary["round_mean_f1"]) == 2
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


def test_summary_counts_every_keyword_augmented_query():
    queries = [(f"q{i}", f"where is fact number {i}", f"fact number {i}", i + 1)
               for i in range(4)]
    manifest = make_manifest(n_inserts=8, queries=queries)
    ops = OperatorConfig(formulate=FormulateConfig(strategy="keyword", keyword_augments=True))
    summary = run_experiment(base_config(operators=ops), manifest, MockGateway(dim=32)).summary()
    assert summary["counts"]["retrieves"] == 4
    assert summary["flags"] == {"keyword_augmented": 4}


# (flag, operator settings, failing templates, sides whose requests it flags)
FALLBACKS = [
    ("validate_fallback", {"formulate": FormulateConfig(strategy="validate")},
     {"validate"}, {KIND_RETRIEVE}),
    ("keyword_fallback", {"formulate": FormulateConfig(strategy="keyword")},
     {"keywords"}, {KIND_RETRIEVE}),
    ("decompose_fallback", {"formulate": FormulateConfig(strategy="decompose")},
     {"decompose"}, {KIND_RETRIEVE}),
    ("multi_query_fallback", {"integrate": IntegrateConfig(strategy="multi_query")},
     {"paraphrase"}, {KIND_RETRIEVE}),
    ("enrich_fallback", {"normalize": NormalizeConfig(strategy="enrich")},
     {"summarize"}, {KIND_INSERT}),
    ("rewrite_fallback", {"normalize": NormalizeConfig(strategy="rewrite")},
     {"triplets"}, {KIND_INSERT}),
    ("crud_fallback", {"consolidate": ConsolidateConfig(strategy="crud")},
     {"crud"}, {KIND_INSERT}),
    ("embed_failed", {}, {"embed"}, {KIND_INSERT, KIND_RETRIEVE}),
    ("answer_failed", {}, {"answer"}, {KIND_RETRIEVE}),
]


@pytest.mark.parametrize("flag, ops, failing, sides", FALLBACKS,
                         ids=[case[0] for case in FALLBACKS])
def test_each_fallback_flags_every_affected_request_once(tmp_path, flag, ops, failing, sides):
    # a flag list shared or extended across requests would count a flag twice
    queries = [(f"q{i}", f"where is fact number {i}", f"fact number {i}", i + 1)
               for i in range(4)]
    manifest = make_manifest(n_inserts=6, queries=queries)
    cfg = base_config(store=StoreConfig(backend="inverted_vector"),
                      operators=OperatorConfig(**ops))
    result = run_experiment(cfg, manifest, MockGateway(dim=32, failing=failing))
    assert result.status == "complete", result.error
    experiment_sink(result, tmp_path)
    rows = [json.loads(line) for line in (tmp_path / "queries.jsonl").read_text().splitlines()]
    inserts = [trace.flags for trace in result.traces if trace.kind == KIND_INSERT]
    affected = {KIND_INSERT: inserts, KIND_RETRIEVE: [row["flags"] for row in rows]}
    assert (len(inserts), len(rows)) == (6, 4)
    for side, flag_lists in affected.items():
        assert [flags.count(flag) for flags in flag_lists] == [int(side in sides)] * len(flag_lists)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flags"][flag] == sum(len(affected[side]) for side in sides)


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
        per_checkpoint = sum(report.latency[stage]["count"]
                             for report in result.reports if stage in report.latency)
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
