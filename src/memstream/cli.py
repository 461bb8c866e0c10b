"""Command line front end.

Four subcommands: run an experiment (or ablation grid) from a config file,
validate a stream file, format result tables, and synthesize workloads.
Exit codes: 0 success, 2 validation/config/sink problems, 3 runtime abort,
1 plain IO failures (validate and synth).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import yaml

from .config import (
    ConfigError,
    apply_override,
    expand_ablation,
    load_config_file,
    parse_set_option,
)
from .errors import MissingFiles, SchemaError, SinkExists, StoreError, StreamError
from .orchestrator import check_sink, clear_memos, experiment_sink, run_experiment
from .reporting import render_report
from .stream import read_stream_file, validate_stream, write_stream_file
from .workloads import (
    SyntheticSpec,
    load_generic,
    load_locomo,
    synth_workload,
    write_answer_key,
)

LOCOMO_PREFIX = "locomo:"


def _fail(message: str, code: int):
    click.echo(message, err=True)
    sys.exit(code)


def _fail_variant(done: list[str], name: str, message: str):
    """Print the lines of the variants already written, then fail on this one."""
    if done:
        click.echo("\n".join(done))
    _fail(f"variant {name}: {message}", 2)


def load_dataset(path: str):
    """Manifest for a dataset path; a 'locomo:' prefix picks that loader."""
    if path.startswith(LOCOMO_PREFIX):
        return load_locomo(path[len(LOCOMO_PREFIX):])
    return load_generic(path)


@click.group()
def main():
    """Streaming memory experiment harness."""


@main.command()
@click.option("-c", "--config", "config_path", required=True,
              type=click.Path(dir_okay=False), help="experiment config (yaml)")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="override a config key, e.g. store.backend=fifo_queue")
@click.option("--force", is_flag=True, help="overwrite existing result files")
def run(config_path, overrides, force):
    """Run the experiment (or each grid variant in turn) from a config file."""
    try:
        data = load_config_file(config_path)
        for option in overrides:
            key, value = parse_set_option(option)
            apply_override(data, key, value)
        variants = expand_ablation(data)
    except FileNotFoundError:
        _fail(f"config error ({config_path}): file not found", 2)
    except UnicodeDecodeError as err:
        _fail(f"config error ({config_path}): not valid UTF-8: {err}", 2)
    except (ConfigError, yaml.YAMLError) as err:
        _fail(f"config error ({config_path}): {err}", 2)

    manifests: dict = {}
    work = []
    for name, cfg in variants:
        if not cfg.dataset:
            _fail(f"config error ({config_path}): dataset path is empty", 2)
        if not cfg.output_dir:
            _fail(f"config error ({config_path}): output_dir is empty", 2)
        if cfg.dataset not in manifests:
            try:
                manifests[cfg.dataset] = load_dataset(cfg.dataset)
            except FileNotFoundError:
                _fail(f"dataset error ({cfg.dataset}): file not found", 2)
            except OSError as err:
                _fail(f"dataset error ({cfg.dataset}): {err.strerror or err}", 2)
            except StreamError as err:
                _fail(f"dataset error ({cfg.dataset}): {err}", 2)
        out_dir = Path(cfg.output_dir)
        if len(variants) > 1:
            out_dir = out_dir / name
        try:
            check_sink(out_dir, force)
        except SinkExists as err:
            _fail(str(err), 2)
        work.append((name, cfg, out_dir))

    lines = []
    aborted = False
    for name, cfg, out_dir in work:
        try:
            clear_memos()
            result = run_experiment(cfg, manifests[cfg.dataset])
            experiment_sink(result, out_dir, force=force)
        except StoreError as err:
            # raised while building the store, before any request is consumed
            _fail_variant(lines, name, f"store error: {err}")
        except SchemaError as err:
            _fail_variant(lines, name, f"stream error: {err}")
        except SinkExists as err:
            _fail_variant(lines, name, str(err))
        line = f"{name}: {result.status} -> {out_dir}"
        if result.status != "complete":
            aborted = True
            line += f" ({result.error})"
        lines.append(line)
    click.echo("\n".join(lines))
    sys.exit(3 if aborted else 0)


@main.command()
@click.argument("stream", type=click.Path(dir_okay=False))
def validate(stream):
    """Check a stream file for ordering and shape violations."""
    try:
        manifest = read_stream_file(stream)
    except OSError as err:
        _fail(f"io error: {err}", 1)
    except StreamError as err:
        _fail(f"invalid stream: {err}", 2)
    violations = validate_stream(manifest)
    if not violations:
        click.echo(f"ok: {len(manifest.requests)} requests")
        sys.exit(0)
    for violation in violations:
        click.echo(f"[{violation.kind}] index {violation.index}: {violation.detail}")
    _fail(f"{len(violations)} violation(s)", 2)


@main.command()
@click.argument("results_dir", type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "md"]),
              default="md", show_default=True)
def report(results_dir, fmt):
    """Print round-wise F1, stage latency and cost-by-side tables for finished runs."""
    try:
        click.echo(render_report(results_dir, fmt), nl=False)
    except MissingFiles as err:
        _fail(str(err), 2)


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--facts", default=40, show_default=True,
              help="number of distinct facts")
@click.option("--update-rate", default=0.0, show_default=True,
              help="fraction of facts later overwritten")
@click.option("--sessions", default=4, show_default=True)
@click.option("--turns-per-session", default=0, show_default=True,
              help="0 spreads inserts evenly over the sessions")
@click.option("--rounds", default=5, show_default=True)
@click.option("--queries-per-round", default=8, show_default=True)
@click.option("--paraphrase-rate", default=0.0, show_default=True)
@click.option("--depths", default="",
              help="comma-separated needle distances, overrides the ladder")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def synth(seed, facts, update_rate, sessions, turns_per_session, rounds,
          queries_per_round, paraphrase_rate, depths, out):
    """Generate a synthetic fact stream plus its answer key."""
    needle_depths = None
    if depths:
        try:
            needle_depths = tuple(int(part) for part in depths.split(","))
        except ValueError:
            _fail(f"invalid --depths {depths!r}: expected comma-separated integers", 2)
    spec = SyntheticSpec(seed=seed, n_sessions=sessions,
                         turns_per_session=turns_per_session, n_facts=facts,
                         update_rate=update_rate, rounds=rounds,
                         queries_per_round=queries_per_round,
                         paraphrase_rate=paraphrase_rate,
                         needle_depths=needle_depths)
    try:
        manifest, key = synth_workload(spec)
    except ValueError as err:
        _fail(f"invalid spec: {err}", 2)
    key_path = f"{out}.key.json"
    try:
        write_stream_file(manifest, out)
        write_answer_key(key, key_path)
    except OSError as err:
        _fail(f"io error: {err}", 1)
    click.echo(f"wrote {out} ({len(manifest.requests)} requests) and {key_path}")


if __name__ == "__main__":
    main()
