"""Every gateway fault fails open, on every backend and operator mix.

README ("Config file", "Remote gateway") promises that a gateway error never
aborts a run: the operator falls back, flags the request and the run goes
on. The grid below replays every ``grid_configs()`` config that completes
without a fault under each single injected fault. Each must complete too,
and when the clean run made the faulted call, the fault's flag must show in
the summary.
"""

from memstream.gateway import _MOCK_TEMPLATES, MockGateway
from memstream.orchestrator import run_experiment
from reference import GRID_DIM, config_key, grid_configs, small_stream

# the faulted call (a chat template_id, or "embed") -> the flag it raises
FAULT_FLAGS = {
    "validate": "validate_fallback",
    "keywords": "keyword_fallback",
    "decompose": "decompose_fallback",
    "paraphrase": "multi_query_fallback",
    "summarize": "enrich_fallback",
    "triplets": "rewrite_fallback",
    "crud": "crud_fallback",
    "embed": "embed_failed",
    "answer": "answer_failed",
}


def calls_made(result) -> set[str]:
    """The template_ids of the run's chat calls, plus "embed" if it embedded."""
    return {"embed" if timing.template_id is None else timing.template_id
            for trace in result.traces for timing in trace.gateway_calls}


def test_every_clean_run_completes_under_each_single_fault():
    assert set(FAULT_FLAGS) == set(_MOCK_TEMPLATES) | {"embed"}  # every call can fail
    manifest = small_stream()
    clean_runs = 0
    for cfg in grid_configs():
        clean = run_experiment(cfg, manifest, gateway=MockGateway(dim=GRID_DIM))
        if clean.status != "complete":
            continue
        clean_runs += 1
        made = calls_made(clean)
        for fault, flag in FAULT_FLAGS.items():
            result = run_experiment(cfg, manifest,
                                    gateway=MockGateway(dim=GRID_DIM, failing={fault}))
            where = (config_key(cfg), fault)
            assert result.status == "complete", (where, result.error)
            if fault in made:
                assert result.summary()["flags"].get(flag, 0) > 0, where
    # the 30 others put a tier or link policy on a backend without tiers or links
    assert clean_runs == 78
