"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table7
    python -m repro.experiments fig7 --scale default
    python -m repro.experiments all --out results/

``--out DIR`` additionally writes each result's ASCII artifact to
``DIR/<experiment_id>.txt`` (the same shape the benchmark suite leaves
under ``benchmarks/results/``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.experiments import DEFAULT, SMALL, TINY
from repro.experiments import (
    ablations,
    examples_tables,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    hybrid_retrieval,
    lm_exploration,
    load_replay,
    online_replay,
    persistence,
    retrieval_scale,
    scenarios,
    serving,
    serving_batched,
    table1,
    table2,
    table5,
    table6,
    table7,
    table8,
)

RUNNERS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3_table4": examples_tables.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "table8": table8.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "serving": serving.run,
    "serving_batched": serving_batched.run,
    "retrieval_scale": retrieval_scale.run,
    "hybrid_retrieval": hybrid_retrieval.run,
    "online_replay": online_replay.run,
    "load_replay": load_replay.run,
    "persistence": persistence.run,
    "scenarios": scenarios.run,
    "ablation_lambda": ablations.lambda_sweep,
    "ablation_diversity": ablations.decoder_diversity,
    "ablation_warmup": ablations.warmup_sensitivity,
    "ablation_offline_metric": ablations.offline_metric,
    "lm_exploration": lm_exploration.run,
}

SCALES = {"tiny": TINY, "small": SMALL, "default": DEFAULT}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures of the ICDE'21 query-rewriting paper.",
    )
    parser.add_argument("experiment", help="experiment id, 'list', or 'all'")
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each result to DIR/<experiment_id>.txt",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in RUNNERS:
            print(name)
        return 0

    names = list(RUNNERS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(RUNNERS)}", file=sys.stderr)
        return 2

    scale = SCALES[args.scale]
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        started = time.time()
        result = RUNNERS[name](scale)
        print(result.render())
        print(f"[{name} finished in {time.time() - started:.1f}s]\n")
        if out_dir is not None:
            artifact = out_dir / f"{result.experiment_id}.txt"
            artifact.write_text(result.render() + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
