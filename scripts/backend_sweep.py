#!/usr/bin/env python3
"""Sweep every storage backend over one synthetic workload.

Generates a single fact/question stream, replays it through each backend
with identical pass-through operators, and prints a table of answer
quality and stage latency. Optionally persists the full per-backend
result files.

    python3 scripts/backend_sweep.py --facts 300 --rounds 5 --out results/sweep
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memstream.config import (  # noqa: E402
    CheckpointSchedule,
    ExperimentConfig,
    GatewayConfig,
    OperatorConfig,
    StoreConfig,
)
from memstream.metrics import percentile_nearest_rank  # noqa: E402
from memstream.orchestrator import experiment_sink, run_experiment  # noqa: E402
from memstream.stores import BACKENDS  # noqa: E402
from memstream.workloads import SyntheticSpec, synth_workload  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", default=",".join(sorted(BACKENDS)),
                        help="comma-separated backend names")
    parser.add_argument("--facts", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--queries-per-round", type=int, default=10)
    parser.add_argument("--update-rate", type=float, default=0.0)
    parser.add_argument("--sessions", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--embed-dim", type=int, default=64)
    parser.add_argument("--gateway", choices=("mock", "remote"), default="mock")
    parser.add_argument("--out", default=None,
                        help="directory to persist per-backend result files")
    return parser.parse_args()


def main():
    args = parse_args()
    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        parser_hint = ", ".join(sorted(BACKENDS))
        sys.exit(f"unknown backend(s) {unknown}; valid: {parser_hint}")

    spec = SyntheticSpec(seed=args.seed, n_facts=args.facts,
                         update_rate=args.update_rate,
                         n_sessions=args.sessions, rounds=args.rounds,
                         queries_per_round=args.queries_per_round,
                         paraphrase_rate=0.0)
    manifest, _ = synth_workload(spec)
    print(f"workload: {len(manifest.requests)} requests "
          f"({args.facts} facts, {args.rounds} rounds)")

    header = (f"{'backend':<18} {'mean_f1':>8} {'drift_%':>8} "
              f"{'search_p95_us':>14} {'e2e_p95_us':>11}")
    print(header)
    print("-" * len(header))
    for backend in backends:
        cfg = ExperimentConfig(
            store=StoreConfig(backend),
            operators=OperatorConfig(),
            checkpoint=CheckpointSchedule(fraction=1.0 / args.rounds),
            gateway=GatewayConfig(kind=args.gateway, embed_dim=args.embed_dim),
            seed=args.seed,
            output_dir=str(Path(args.out or ".") / backend),
        )
        result = run_experiment(cfg, manifest)
        if result.status != "complete":
            print(f"{backend:<18} ABORTED: {result.error}")
            continue
        summary = result.summary()
        stages = summary["latency"]["stages"]
        search_p95 = stages.get("Search", {}).get("p95_us", 0.0)
        e2e_p95 = percentile_nearest_rank(
            [t.e2e_ns / 1000.0 for t in result.traces], 95)
        drift = summary["degradation_pct"]
        drift_text = f"{drift:>8.1f}" if drift is not None else f"{'n/a':>8}"
        print(f"{backend:<18} {summary['mean_f1']:>8.3f} {drift_text} "
              f"{search_p95:>14.1f} {e2e_p95:>11.1f}")
        if args.out:
            paths = experiment_sink(result, Path(args.out) / backend, force=True)
            print(f"{'':<18} wrote {paths[0].parent}")


if __name__ == "__main__":
    main()
