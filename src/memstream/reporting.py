"""Turn sink files into round-wise F1, per-stage latency and cost-by-side tables.

Works on a single run directory (holding checkpoints.jsonl + summary.json)
or on a parent directory of such runs (one table row per sub-run). Output
is csv or markdown text; byte-deterministic for a given input.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from .errors import MissingFiles
from .metrics import ALL_STAGES, INSERT_STAGES, QUERY_STAGES


def _is_run_dir(path: Path) -> bool:
    return (path / "checkpoints.jsonl").exists() and (path / "summary.json").exists()


def _read_json(path: Path, per_line: bool = False):
    """``path`` parsed as one JSON value, or one per non-blank line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if per_line:
                return [json.loads(line) for line in handle if line.strip()]
            return json.load(handle)
    except ValueError as err:  # not JSON, or not UTF-8
        raise MissingFiles(f"{path}: not valid JSON: {err}") from err


def _check_summary(path: Path, summary):
    """Raise MissingFiles naming the first field of ``summary`` the tables cannot read.

    Each field may be absent. Present, a container must have its type and a
    number must be one; the fields the tables print as "-" may be null.
    """
    def require(ok: bool, key: str, want: str):
        if not ok:
            raise MissingFiles(f"{path}: {key} is not {want}")

    def number(value, key: str, nullable: bool = False):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        require(ok or (nullable and value is None), key,
                "a number or null" if nullable else "a number")

    def mapping(owner: dict, key: str, prefix: str = "") -> dict:
        value = owner.get(key, {})
        require(isinstance(value, dict), prefix + key, "an object")
        return value

    require(isinstance(summary, dict), "the top level", "an object")
    means = summary.get("round_mean_f1", [])
    require(isinstance(means, list), "round_mean_f1", "a list")
    for i, mean in enumerate(means):
        number(mean, f"round_mean_f1[{i}]", nullable=True)
    for key in ("mean_f1", "degradation_pct"):
        number(summary.get(key), key, nullable=True)
    require(isinstance(summary.get("status", ""), str), "status", "a string")
    mapping(summary, "flags")
    counts = mapping(summary, "counts")
    for key in ("inserts", "retrieves"):
        number(counts.get(key, 0), f"counts.{key}")
    latency = mapping(summary, "latency")
    for stage, agg in mapping(latency, "stages", "latency.").items():
        label = f"latency.stages.{stage}"
        require(isinstance(agg, dict), label, "an object")
        for key in ("count", "mean_us"):
            number(agg.get(key, 0), f"{label}.{key}")
        for key in ("p50_us", "p95_us"):
            number(agg.get(key), f"{label}.{key}", nullable=True)
    for side in ("gateway_embed_us_by_stage", "gateway_chat_us_by_stage"):
        for stage, wall in mapping(latency, side, "latency.").items():
            number(wall, f"latency.{side}.{stage}")


def gather_runs(results_dir: str | Path) -> list[tuple[str, dict, list[dict]]]:
    """(run_name, summary, checkpoint rows) per run found under results_dir.

    Raises MissingFiles, naming the file and the field, for a result file
    that is not JSON or a summary whose fields the tables cannot read.
    """
    root = Path(results_dir)
    if not root.is_dir():
        raise MissingFiles(f"{root} is not a directory")
    if _is_run_dir(root):
        dirs = [root]
    else:
        dirs = sorted(p for p in root.iterdir() if p.is_dir() and _is_run_dir(p))
    if not dirs:
        raise MissingFiles(
            f"{root} holds no run results (checkpoints.jsonl + summary.json)")
    runs = []
    for directory in dirs:
        summary = _read_json(directory / "summary.json")
        _check_summary(directory / "summary.json", summary)
        checkpoints = _read_json(directory / "checkpoints.jsonl", per_line=True)
        name = "run" if directory == root else directory.name
        runs.append((name, summary, checkpoints))
    return runs


def _fmt(value, digits=3) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _table(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(headers)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines)
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def f1_table(runs: list[tuple[str, dict, list[dict]]], fmt: str) -> str:
    """One row per run: R1..Rn round means, across-round mean, degradation."""
    max_rounds = max((len(s.get("round_mean_f1", [])) for _, s, _ in runs),
                     default=0)
    headers = ["run"] + [f"R{i}" for i in range(1, max_rounds + 1)]
    headers += ["Mean", "Degradation"]
    rows = []
    for name, summary, _ in runs:
        means = summary.get("round_mean_f1", [])
        row = [name]
        row.extend(_fmt(means[i]) if i < len(means) else "-"
                   for i in range(max_rounds))
        row.append(_fmt(summary.get("mean_f1")))
        deg = summary.get("degradation_pct")
        row.append("-" if deg is None else f"{deg:.1f}%")
        rows.append(row)
    return _table(headers, rows, fmt)


def latency_table(runs: list[tuple[str, dict, list[dict]]], fmt: str) -> str:
    """One row per (run, stage): count, mean, p50, p95 in microseconds."""
    headers = ["run", "stage", "count", "mean_us", "p50_us", "p95_us"]
    rows = []
    for name, summary, _ in runs:
        stages = summary.get("latency", {}).get("stages", {})
        ordered = [s for s in ALL_STAGES if s in stages]
        ordered += sorted(s for s in stages if s not in ALL_STAGES)
        for stage in ordered:
            agg = stages[stage]
            rows.append([
                name, stage, str(agg.get("count", 0)),
                _fmt(agg.get("mean_us"), 1),
                _fmt(agg.get("p50_us"), 1),
                _fmt(agg.get("p95_us"), 1),
            ])
    return _table(headers, rows, fmt)


def _per_request(stage_us: dict, stages: tuple[str, ...], requests: int) -> str:
    if not requests:
        return "-"
    return _fmt(sum(stage_us.get(stage, 0.0) for stage in stages) / requests, 1)


def cost_table(runs: list[tuple[str, dict, list[dict]]], fmt: str) -> str:
    """One row per run: wall and gateway µs per insert and per query, F1, flags.

    A side's wall is the sum of its stages' mean × count; gateway time is
    the part of it billed to model calls.
    """
    headers = ["run", "status", "us_per_insert", "gateway_us_per_insert",
               "us_per_query", "gateway_us_per_query", "mean_f1", "flags"]
    rows = []
    for name, summary, _ in runs:
        latency = summary.get("latency", {})
        wall = {stage: agg.get("mean_us", 0.0) * agg.get("count", 0)
                for stage, agg in latency.get("stages", {}).items()}
        gateway = Counter(latency.get("gateway_embed_us_by_stage", {}))
        gateway.update(latency.get("gateway_chat_us_by_stage", {}))
        counts = summary.get("counts", {})
        inserts, queries = counts.get("inserts", 0), counts.get("retrieves", 0)
        rows.append([
            name, summary.get("status", "-"),
            _per_request(wall, INSERT_STAGES, inserts),
            _per_request(gateway, INSERT_STAGES, inserts),
            _per_request(wall, QUERY_STAGES, queries),
            _per_request(gateway, QUERY_STAGES, queries),
            _fmt(summary.get("mean_f1")),
            ";".join(sorted(summary.get("flags", {}))) or "-",
        ])
    return _table(headers, rows, fmt)


def render_report(results_dir: str | Path, fmt: str = "md") -> str:
    if fmt not in ("csv", "md"):
        raise ValueError(f"format must be csv or md, got {fmt!r}")
    runs = gather_runs(results_dir)
    parts = []
    for title, table in (("Token F1 by round", f1_table),
                         ("Stage latency", latency_table),
                         ("Cost by side", cost_table)):
        if parts:
            parts.append("")
        if fmt == "md":
            parts.append(f"## {title}")
        parts.append(table(runs, fmt))
    return "\n".join(parts) + "\n"
