"""A run makes no reference cycles, so it can run with the cyclic collector off.

``run_experiment`` turns automatic collection off for the run and restores
the collector's state afterwards (see "Garbage collection" in
``memstream.orchestrator``). Reference counting alone then frees everything a
run drops, which holds only while nothing a run builds sits in a cycle. The
oracle below replays a grid of configs and asks a full collection after each
run to find nothing.

The same grid, with every fifo_queue operator combination added, checks that
a run embeds only what some stage reads: a run whose store and consolidation
policy read no vectors makes no embedding call, and its results equal those
of the same run with every backend declared to read vectors.
"""

import gc
import itertools
import socket
import sys
import threading
from contextlib import contextmanager

import pytest

from memstream.config import ConsolidateConfig, StoreConfig
from memstream.errors import GatewayError, StoreError
from memstream.gateway import _MOCK_TEMPLATES, MockGateway, RemoteGateway
from memstream.ingest import POLICIES
from memstream.orchestrator import run_experiment
from memstream.stores import BACKENDS
from memstream.workloads import SyntheticSpec, synth_workload
from reference import GRID_DIM as DIM
from reference import fifo_configs, grid_configs, result_digest, small_stream


def embed_calls(result):
    return sum(timing.call_kind == "embed"
               for trace in result.traces for timing in trace.gateway_calls)


def test_a_run_embeds_only_what_it_reads(monkeypatch):
    manifest = small_stream()
    vector_less = 0
    for cfg in itertools.chain(grid_configs(), fifo_configs()):
        declared = run_experiment(cfg, manifest)
        with monkeypatch.context() as patch:
            # every backend declared to read vectors, so every run embeds
            for cls in BACKENDS.values():
                patch.setattr(cls, "reads_vectors", True)
            embedding = run_experiment(cfg, manifest)
        where = (cfg.store.backend, cfg.operators)
        assert declared.status == embedding.status, where
        assert result_digest(declared) == result_digest(embedding), where
        assert declared.action_log == embedding.action_log, where
        if declared.status == "complete":
            reads = (BACKENDS[cfg.store.backend].reads_vectors
                     or POLICIES[cfg.operators.consolidate.strategy].reads_vectors)
            assert (embed_calls(declared) > 0) is reads, where
            assert embed_calls(embedding) > 0, where
            vector_less += not reads
    # fifo_queue's none and forgetting_curve runs: 6 in the grid, 144 added
    assert vector_less == 150


@contextmanager
def collector(enabled):
    """Run the body with automatic collection on or off, then restore it."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@contextmanager
def frozen_heap():
    """Move every object alive now out of the collector's sight.

    ``gc.collect()`` then walks only what the body allocates, so a
    collection per run stays cheap in a test process holding many modules.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("failing", [None, set(_MOCK_TEMPLATES) | {"embed"}],
                         ids=["mock", "every-call-fails"])
def test_no_run_of_the_grid_leaves_cyclic_garbage(failing):
    manifest = small_stream()
    statuses = set()
    with frozen_heap():
        for cfg in grid_configs():
            gateway = MockGateway(dim=DIM, failing=failing)
            gc.collect()
            result = run_experiment(cfg, manifest, gateway=gateway)
            statuses.add(result.status)
            del result, gateway
            garbage = gc.collect()
            assert garbage == 0, (cfg.store.backend, cfg.operators, garbage)
    assert statuses == {"complete", "aborted"}  # aborted runs are covered too


def aborted_config():
    # a tier policy on a backend without tiers aborts at the first insert
    cfg = next(grid_configs())
    cfg.store = StoreConfig("fifo_queue")
    cfg.operators.consolidate = ConsolidateConfig(strategy="heat_migration")
    return cfg


class InterruptingGateway(MockGateway):
    # every run reaches a chat call, the answer, whatever its store embeds
    def _chat_impl(self, template_id, variables):
        raise KeyboardInterrupt


@pytest.mark.parametrize("enabled", [True, False], ids=["from-on", "from-off"])
def test_a_run_leaves_the_collector_as_it_found_it(enabled):
    manifest = small_stream()
    complete = next(grid_configs())
    bad_store = next(grid_configs())
    bad_store.store = StoreConfig("fifo_queue", params={"no_such_knob": 1})
    with collector(enabled):
        assert run_experiment(complete, manifest).status == "complete"
        assert gc.isenabled() is enabled
        assert run_experiment(aborted_config(), manifest).status == "aborted"
        assert gc.isenabled() is enabled
        with pytest.raises(StoreError, match="bad parameters"):
            run_experiment(bad_store, manifest)
        assert gc.isenabled() is enabled
        with pytest.raises(KeyboardInterrupt):
            run_experiment(complete, manifest, gateway=InterruptingGateway(dim=DIM))
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["from-on", "from-off"])
def test_runs_on_many_threads_leave_the_collector_as_they_found_it(enabled):
    manifest = synth_workload(SyntheticSpec(seed=3, n_facts=4, rounds=1,
                                            queries_per_round=1))[0]
    cfg = next(grid_configs())
    errors = []

    def runs():
        try:
            for _ in range(40):
                assert run_experiment(cfg, manifest).status == "complete"
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    with collector(enabled):
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=runs) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled() is enabled


def test_no_collection_runs_inside_a_run():
    manifest = small_stream(n_facts=200)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    with collector(True):
        gc.callbacks.append(count)
        try:
            result = run_experiment(next(grid_configs()), manifest)
        finally:
            gc.callbacks.remove(count)
    assert result.status == "complete"
    assert len(result.traces) == len(manifest.requests)
    assert collections == []


def test_a_refused_remote_post_leaves_no_cyclic_garbage():
    # bound but not listening: every connection is refused, with no network
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        gateway = RemoteGateway(base_url=f"http://127.0.0.1:{sock.getsockname()[1]}",
                                retries=0, dim=8)
        with collector(False):
            gc.collect()
            for _ in range(3):
                with pytest.raises(GatewayError) as caught:
                    gateway.embed(["the harbor is red."])
                err = caught.value
                assert (err.kind, err.retries) == ("http", 0)
                assert str(err).startswith("http: HTTPConnectionPool(host='127.0.0.1'")
                assert str(err).endswith("/embeddings")
                del caught, err
            garbage = gc.collect()
    assert garbage == 0
    assert [t.ok for t in gateway.drain_timings()] == [False] * 3
