"""The committed experiment grids under examples/: each completes end to end
on a small stream, and together they cover every backend with every operator
strategy it supports."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from memstream.cli import main
from memstream.config import (
    CONSOLIDATE_STRATEGIES,
    FORMULATE_STRATEGIES,
    INTEGRATE_STRATEGIES,
    NORMALIZE_STRATEGIES,
    expand_ablation,
    load_config_file,
)
from memstream.stores import BACKENDS

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.yaml"))

AXES = {
    "normalize": NORMALIZE_STRATEGIES,
    "consolidate": CONSOLIDATE_STRATEGIES,
    "formulate": FORMULATE_STRATEGIES,
    "integrate": INTEGRATE_STRATEGIES,
}

# strategies that need a backend capability; every other one runs anywhere
NEEDS = {"heat_migration": "supports_tiers", "link_evolution": "supports_links"}


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    path = tmp_path_factory.mktemp("examples") / "stream.jsonl"
    result = CliRunner().invoke(main, [
        "synth", "--facts", "20", "--rounds", "2", "--queries-per-round", "3",
        "--out", str(path)])
    assert result.exit_code == 0, result.output
    return path


def test_examples_exist():
    assert [path.stem for path in EXAMPLES] == [
        "backend_sweep", "lifecycle_consolidate", "lifecycle_formulate",
        "lifecycle_heat_migration", "lifecycle_integrate",
        "lifecycle_link_evolution", "lifecycle_normalize"]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_grid_completes_and_reports_each_variant(example, stream, tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "-c", str(example), "--set", f"dataset={stream}",
        "--set", f"output_dir={out}", "--set", "gateway.embed_dim=16"])
    assert result.exit_code == 0, result.output
    variants = expand_ablation(load_config_file(example))
    assert result.output.count(": complete ->") == len(variants) > 1
    report = runner.invoke(main, ["report", str(out)])
    assert report.exit_code == 0, report.output
    cost = report.output.split("## Cost by side\n", 1)[1].splitlines()[2:]
    assert sorted(row.split(" | ")[0] for row in cost) == sorted(
        f"| {name}" for name, _ in variants)
    assert all(row.split(" | ")[1] == "complete" for row in cost)


def test_examples_cover_every_supported_strategy_of_every_backend():
    covered = set()
    for example in EXAMPLES:
        for _, cfg in expand_ablation(load_config_file(example)):
            for axis in AXES:
                strategy = getattr(cfg.operators, axis).strategy
                covered.add((cfg.store.backend, axis, strategy))
    supported = {(backend, axis, strategy)
                 for backend, cls in BACKENDS.items()
                 for axis, strategies in AXES.items()
                 for strategy in strategies
                 if strategy not in NEEDS or getattr(cls, NEEDS[strategy])}
    assert covered == supported
