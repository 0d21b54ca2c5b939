"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments all
    python -m repro.experiments fig7a fig7b --scale 0.5
    python -m repro.experiments table5 --grid-order 12 --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.datasets.catalog import DEFAULT_GRID_ORDER
from repro.experiments.ablation import run_ablation_grid
from repro.experiments.common import ExperimentResult
from repro.experiments.fig7 import run_fig7a, run_fig7b
from repro.experiments.fig8 import run_fig8a, run_fig8b, run_table4
from repro.experiments.fig9 import run_fig9
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table5 import run_table5

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table2": run_table2,
    "table3": run_table3,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "table4": run_table4,
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "fig9": run_fig9,
    "table5": run_table5,
    "ablation-grid": run_ablation_grid,
}

#: Figure experiments also get an ASCII bar rendering of this column.
BAR_COLUMNS = {
    "fig7a": "P+C",
    "fig7b": "P+C",
    "fig8a": "P+C undetermined %",
    "fig8b": "OP2-REF",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on synthetic data.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=list(EXPERIMENTS) + ["all"],
        help="which experiments to run ('all' runs every one)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument(
        "--grid-order", type=int, default=DEFAULT_GRID_ORDER,
        help="Hilbert grid order k (2^k cells per dimension)",
    )
    parser.add_argument("--json", type=str, default=None, help="also dump results to a JSON file")
    parser.add_argument(
        "--run-log", type=str, default=None, metavar="PATH",
        help="append one structured JSONL run report per experiment "
             "(same envelope the join CLI's --run-log writes)",
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    results: list[ExperimentResult] = []
    for name in names:
        runner = EXPERIMENTS[name]
        result = runner(scale=args.scale, grid_order=args.grid_order)
        results.append(result)
        if args.run_log:
            from repro.obs.report import RunReport, append_jsonl

            report = RunReport(
                kind="experiment",
                method=name,
                meta={
                    "scale": args.scale,
                    "grid_order": args.grid_order,
                    "result": result.as_dict(),
                },
            )
            append_jsonl(args.run_log, report.to_dict())
        print(result.render())
        bar_column = BAR_COLUMNS.get(name)
        if bar_column and result.rows:
            print()
            print(result.render_bars(bar_column))
        print()

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.as_dict() for r in results], fh, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
