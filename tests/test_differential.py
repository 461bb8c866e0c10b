"""Whole runs of the consolidation policies against their per-record loops.

forgetting_curve and heat_migration keep state from one pass to the next:
deadline heaps, fed by the ids the store reports changed. crud,
link_evolution and semantic_consolidation find each new record's neighbours
through the store's embedding index. ``reference.py`` keeps each as a loop
over every live record (``REF_POLICIES``); crud's reference swaps in only
its neighbour lookup. Each stream below runs through ``run_experiment``
twice on every backend that supports the strategy: once with the policy
``build_policy`` makes, and once with the reference in the same per-run
seat, ``ingest.POLICIES``. The result files outside ``latency`` keys and
the action logs must be identical.

Streams mix inserts and queries; a query touches what it retrieves. Clock
steps run from none to a day, and an ``edge`` insert lands within a
microsecond of the first one at which the exact test evicts the last insert
or finds it cold. Strengths and heat time constants run to centuries, where
the deadline is past 2**53 us and float64 steps are 2 us or more, so a
deadline that is not set early enough evicts or demotes a pass late.

The neighbour-reading policies run under ``PickingGateway``: its crud
reply acts on one of the neighbours it was shown, so which neighbours crud
finds, and in what order, reaches the action log, and the texts that name
the mill are never embedded, so crud's lexical fallback runs too. Repeated
texts embed alike, so exact cosine ties meet the id tie-break, and evictions,
merges and crud's removals free index rows that later inserts reuse, so row
order is not id order.
"""

import math
import zlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memstream import ingest
from memstream.config import (
    CheckpointSchedule,
    ConsolidateConfig,
    ExperimentConfig,
    GatewayConfig,
    NormalizeConfig,
    OperatorConfig,
    StoreConfig,
)
from memstream.errors import GatewayError
from memstream.gateway import MockGateway
from memstream.orchestrator import run_experiment
from memstream.records import MemoryRecord
from memstream.stores import BACKENDS
from memstream.stream import (
    KIND_INSERT,
    KIND_RETRIEVE,
    TS_END,
    InsertPayload,
    Request,
    RetrievePayload,
    StreamManifest,
)
from reference import REF_POLICIES, result_digest

DIM = 16
US = 1_000_000
START = 1_700_000_000 * US
CENTURIES_S = 2.0 ** 33  # about 272 years: a deadline about 1e16 us out

TEXTS = (
    "the harbor is red. it was painted in may.",
    "the garden is large.",
    "alice lives in paris. she moved there last year.",
    "bob works at the mill",
    "the harbor is blue. it was repainted.",
    "the mill by the harbor is old.",
)
QUERIES = ("what color is the harbor?", "where does alice live?", "who works at the mill?")
STEPS_S = (0, 1, 60, 3600, 6 * 3600, 86400)

# small bounds, so capacity eviction and short-term overflow happen in a short run
PARAMS = {
    "fifo_queue": {"capacity": 5},
    "queue_segment": {"short_capacity": 2},
    "lsh_hash": {"bits": 3, "tables": 2},
    "inverted_vector": {},
    "property_graph": {},
    "summary_vector": {"summary_max_sentences": 2},
}

INSERT = st.tuples(st.just("insert"), st.integers(0, len(TEXTS) - 1), st.integers(0, 1),
                   st.sampled_from(STEPS_S))
QUERY = st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1), st.sampled_from(STEPS_S))
EDGE = st.tuples(st.just("edge"), st.integers(0, len(TEXTS) - 1), st.integers(0, 1),
                 st.integers(-1, 1))                # microseconds past the first due one
OPS = st.lists(st.one_of(INSERT, QUERY, EDGE), min_size=1, max_size=30)
# the neighbour-reading policies have no deadline for an edge insert to meet
NEAREST_OPS = st.lists(st.one_of(INSERT, QUERY), min_size=1, max_size=30)

# the time constants of a deadline: long ones put it past 2**53 us, where
# float64 steps are 2 us and more
SCALES_S = (60.0, 86400.0, CENTURIES_S, 3 * CENTURIES_S)
LEVELS = st.one_of(st.sampled_from((0.1, 0.3, 0.4, 0.5, 0.6, 0.9)), st.floats(0.01, 0.99))

EVERY_N = st.sampled_from((1, 1, 2))
FORGETTING = st.builds(
    ConsolidateConfig, strategy=st.just("forgetting_curve"),
    retention_threshold=LEVELS,
    initial_strength_s=st.sampled_from(SCALES_S),
    strength_gain=st.sampled_from((1.0, 2.0)),
    every_n=EVERY_N)
THRESHOLDS = st.one_of(st.sampled_from((0.0, 0.3, 0.5, 0.8, 0.95, 1.0)), st.floats(0.0, 1.0))
CRUD = st.builds(ConsolidateConfig, strategy=st.just("crud"), every_n=EVERY_N)
LINKS = st.builds(
    ConsolidateConfig, strategy=st.just("link_evolution"),
    link_top_m=st.integers(0, 4), link_threshold=THRESHOLDS, every_n=EVERY_N)
MERGES = st.builds(
    ConsolidateConfig, strategy=st.just("semantic_consolidation"),
    dedup_threshold=THRESHOLDS, every_n=EVERY_N)
HEAT = st.builds(
    ConsolidateConfig, strategy=st.just("heat_migration"),
    heat_tau_s=st.sampled_from(SCALES_S),
    heat_beta=st.sampled_from((1.0, 1.0, 2.0, 0.0, -0.5)),
    hot_heat=st.sampled_from((2.0, 1.0, 0.5)),   # a fresh record's heat is beta
    cold_heat=st.one_of(st.sampled_from((0.5, 1.2)), LEVELS),
    every_n=EVERY_N)


def first_due(cfg) -> int:
    """Microseconds from a fresh record's insert to the first at which the exact
    test evicts it (forgetting_curve) or finds it cold (heat_migration)."""
    record = MemoryRecord(record_id="", text="", ts=0, session_id="s",
                          strength=cfg.initial_strength_s)
    if cfg.strategy == "forgetting_curve":
        level, scale = cfg.retention_threshold, cfg.initial_strength_s

        def due(dt):
            return ingest.retention(record, dt) < cfg.retention_threshold
    else:
        level = cfg.cold_heat / cfg.heat_beta if cfg.heat_beta else 0.0
        scale = cfg.heat_tau_s

        def due(dt):
            return ingest.heat(record, dt, cfg.heat_alpha, cfg.heat_beta,
                               cfg.heat_tau_s) < cfg.cold_heat
    if not 0.0 < level < 1.0:
        return 3600 * US
    estimate = int(scale * -math.log(level) * US)
    return next((dt for dt in range(estimate - 8, estimate + 8) if due(dt)), estimate)


def stream(ops, cfg) -> StreamManifest:
    requests, clock, last_insert, turn = [], START, START, 0
    for op in ops:
        if op[0] == "edge":
            _, text_i, session, past = op
            ts = max(clock, last_insert + first_due(cfg) + past)
        else:
            ts = clock + op[-1] * US
        if ts >= TS_END:
            continue
        clock = ts
        if op[0] == "query":
            payload = RetrievePayload(query=QUERIES[op[1]], gold_answer="red",
                                      query_id=f"q{len(requests)}")
            requests.append(Request(seq=len(requests), ts=ts, kind=KIND_RETRIEVE,
                                    payload=payload))
            continue
        turn += 1
        last_insert = ts
        payload = InsertPayload(context=TEXTS[op[1]], session_id=f"s{op[2]}", turn_index=turn)
        requests.append(Request(seq=len(requests), ts=ts, kind=KIND_INSERT, payload=payload))
    return StreamManifest(requests=tuple(requests))


def config(backend, consolidate, normalize) -> ExperimentConfig:
    return ExperimentConfig(
        store=StoreConfig(backend, params=PARAMS[backend]),
        operators=OperatorConfig(normalize=NormalizeConfig(strategy=normalize),
                                 consolidate=consolidate),
        checkpoint=CheckpointSchedule(every_n=4),
        gateway=GatewayConfig(embed_dim=DIM),
        output_dir="unused",
    )


class PickingGateway(MockGateway):
    """The mock gateway, except that its crud reply acts on a neighbour it was
    shown, and that no text naming the mill is embedded."""

    def _chat_impl(self, template_id, variables):
        if template_id != "crud":
            return super()._chat_impl(template_id, variables)
        shown = [line.split("\t", 1)[0] for line in variables["neighbors"].splitlines()]
        # a pick that depends on every neighbour shown and on their order
        pick = zlib.crc32(f"{variables['new']}\n{variables['neighbors']}".encode())
        verb = ("ADD", "NOOP", "UPDATE", "DELETE")[pick % 4]
        if verb in ("UPDATE", "DELETE"):
            return f"{verb} {shown[pick // 4 % len(shown)]}" if shown else "ADD", 0
        return verb, 0

    def _embed_impl(self, texts):
        if any("mill" in text for text in texts):
            raise GatewayError("injected", "no embedding of the mill")
        return super()._embed_impl(texts)


def assert_same_runs(cfg, manifest, gateway_cls=None):
    """Each run gets a fresh ``gateway_cls``; with None, it builds its mock gateway."""
    def gateway():
        return None if gateway_cls is None else gateway_cls(dim=DIM)

    live = run_experiment(cfg, manifest, gateway())
    strategy = cfg.operators.consolidate.strategy
    with mock.patch.dict(ingest.POLICIES, {strategy: REF_POLICIES[strategy]}):
        ref = run_experiment(cfg, manifest, gateway())
    assert live.action_log == ref.action_log
    assert (live.status, live.error) == (ref.status, ref.error)
    assert result_digest(live) == result_digest(ref)


RUNS = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# a record inserted, then a pass at the first microsecond the exact test
# finds it due: with a strength of 3 * 2**33 s and a threshold of 0.4 that
# microsecond lies before the float product of the deadline, as it does for
# about one threshold in ten at such strengths
EDGE_OPS = [("insert", 0, 0, 0), ("edge", 1, 0, 0), ("insert", 2, 1, 1)]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@RUNS
@given(ops=OPS, consolidate=FORGETTING, normalize=st.sampled_from(("none", "enrich")))
@example(ops=EDGE_OPS, normalize="none", consolidate=ConsolidateConfig(
    strategy="forgetting_curve", retention_threshold=0.4, initial_strength_s=3 * CENTURIES_S))
def test_forgetting_curve_runs_like_its_per_record_loop(backend, ops, consolidate, normalize):
    assert_same_runs(config(backend, consolidate, normalize), stream(ops, consolidate))


@pytest.mark.parametrize("backend", sorted(n for n, cls in BACKENDS.items() if cls.supports_tiers))
@RUNS
@given(ops=OPS, consolidate=HEAT, normalize=st.sampled_from(("none", "enrich")))
@example(ops=EDGE_OPS, normalize="none", consolidate=ConsolidateConfig(
    strategy="heat_migration", cold_heat=0.4, heat_tau_s=3 * CENTURIES_S))
# every record stays hot: the third insert pushes the first out of
# short_term, and each promotion back pushes out a record later in store
# order, which the same pass must decide in its new tier
@example(ops=[("insert", i, 0, 0) for i in range(4)], normalize="none",
         consolidate=ConsolidateConfig(strategy="heat_migration", hot_heat=0.5))
def test_heat_migration_runs_like_its_per_record_loop(backend, ops, consolidate, normalize):
    assert_same_runs(config(backend, consolidate, normalize), stream(ops, consolidate))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@RUNS
@given(ops=NEAREST_OPS, consolidate=CRUD, normalize=st.sampled_from(("none", "enrich")))
def test_crud_runs_like_its_per_record_neighbour_scan(backend, ops, consolidate, normalize):
    assert_same_runs(config(backend, consolidate, normalize), stream(ops, consolidate),
                     PickingGateway)


@pytest.mark.parametrize("backend", sorted(n for n, cls in BACKENDS.items() if cls.supports_links))
@RUNS
@given(ops=NEAREST_OPS, consolidate=LINKS, normalize=st.sampled_from(("none", "enrich")))
def test_link_evolution_runs_like_its_per_record_loop(backend, ops, consolidate, normalize):
    assert_same_runs(config(backend, consolidate, normalize), stream(ops, consolidate),
                     PickingGateway)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@RUNS
@given(ops=NEAREST_OPS, consolidate=MERGES, normalize=st.sampled_from(("none", "enrich")))
def test_semantic_consolidation_runs_like_its_per_record_loop(backend, ops, consolidate,
                                                              normalize):
    assert_same_runs(config(backend, consolidate, normalize), stream(ops, consolidate),
                     PickingGateway)


def test_the_reference_runs_in_the_policy_seat():
    # the patch reaches the run: a reference that logs its own line shows up
    class Marked(REF_POLICIES["forgetting_curve"]):
        def consolidate(self, new_ids, now):
            actions, flags = super().consolidate(new_ids, now)
            return actions + ["REF"], flags

    consolidate = ConsolidateConfig(strategy="forgetting_curve")
    manifest = stream([("insert", 0, 0, 1)], consolidate)
    with mock.patch.dict(ingest.POLICIES, {"forgetting_curve": Marked}):
        result = run_experiment(config("fifo_queue", consolidate, "none"), manifest)
    assert [line for line in result.action_log if line.endswith(" REF")]
