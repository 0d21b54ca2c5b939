"""The outside-in benchmark: every journey a user of this system waits on.

Driver form (BENCHMARK.json)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object as the last line of standard output: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced pass. Without ``--workload`` every workload
runs in both passes and every metric is printed by name with its unit.
``--smoke`` shrinks the inputs to a quarter; ``--check-agreement`` runs
the untraced set twice and compares the two; ``--self-test`` proves the
correctness check can fail. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import journeys  # noqa: E402
import layers  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DEFAULT_SEED = 20260926
#: Runs per set of ``--check-agreement``, as many as the driver makes.
REPEAT = 10


def untraced(run: journeys.Run, seconds: float) -> dict:
    """Set up (three times, median), then the rounds. Every time is
    calibrated to the reference machine speed sample by sample, and the
    median over the samples is reported. Touches the program through the
    CLI, the v1 wire and ``Engine.join`` only."""
    for _ in range(1 if run.smoke else 3):
        site = run.set_up()
    library = journeys.Library(site, run.workload)
    reference, _ = library.join(run.ops, "library warm-up")
    if reference is None:
        raise SystemExit("library join failed; nothing to measure")
    samples = run.rounds(site, library, seconds)

    stats = reference.stats
    geometry_bytes, payload_bytes, _ = site.index_bytes()
    print(f"# {len(samples.cold)} rounds, {len(samples.one_client)} one-client requests, "
          f"{stats.pairs} candidate pairs, {len(reference.results)} rows, "
          f"{stats.refined} refined", file=sys.stderr)

    def median(values):
        values = list(values)
        return statistics.median(values) if values else None

    latency = median(journeys.calibrate_serving(r.latency_s, r.service_s, speed)
                     for r, speed in samples.one_client if r.ok)
    library_s = median(seconds for seconds, _ in samples.library)
    return {
        "setup_s": median(s.setup_s for s in run.sites),
        "cli_cold_join_s": median(c.seconds for c in samples.cold),
        "cli_warm_join_s": median(w.seconds for w in samples.warm),
        "cli_cold_peak_rss_mb": median(c.peak_rss_mb for c in samples.cold),
        # The paper's Fig. 7(a) and 7(b) numbers, through the library.
        "lib_join_pairs_per_s": stats.pairs / library_s if library_s else None,
        "refined_pct": 100.0 * stats.refined / stats.pairs,
        "serve_join_p50_ms": 1e3 * latency if latency else None,
        "serve_throughput_rps": median(samples.throughputs),
        "serve_peak_rss_mb": site.daemon.peak_rss_mb(),
        "index_bytes_per_geom_byte":
            (geometry_bytes + payload_bytes) / (16.0 * run.inputs.vertices),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, corrupt: bool = False) -> dict:
    """One driver run; returns the result object."""
    workload = WORKLOADS[workload_name]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    with journeys.Run(workload, seed, smoke, corrupt) as run:
        if trace:
            recorder = Recorder(f"{workload.name}-{seed}")
            values = layers.traced(run, seconds, recorder)
            recorder.write(journeys.OUT / f"{workload.name}.trace.json")
        else:
            values = untraced(run, seconds)
        ops = run.ops
    metrics = {}
    for spec in declared:
        value = values.get(spec["name"])
        if value is None and not trace:
            ops.record(f"metric {spec['name']} was not measured", False)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# the human-facing forms: loops over the driver form, one child per run
# ----------------------------------------------------------------------
def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=300)
    if not proc.stdout.strip():
        raise SystemExit(f"{' '.join(command)} printed no result (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload:<20} {name:<34} {shown:>14} {metric['unit']}")


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, untraced then traced; every metric by name. Exit
    1 when an operation failed, 3 when a workload lost its stated
    profile."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        combined["metrics"][name] = {}
        for trace in (0, 1):
            result = child(name, seed, seconds, trace, smoke)
            print_metrics(name, result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"][name].update(result["metrics"])
            if result["metrics"].get("bench.profile_ok", {}).get("value") == 0.0:
                status = 3
    print(json.dumps(combined))
    return status or int(not combined["correct"])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median, as the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_agreement(seed: int, seconds: float, smoke: bool) -> int:
    """Two back-to-back sets of ``REPEAT`` untraced runs per workload (a
    different seed per run, the same seeds in both sets, as the driver
    makes them): per metric the
    two medians, how much worse the second is, each set's spread and the
    bound. Exit 1 when a second median is worse than the first by more
    than the bound, or a spread exceeds it (``setup_s`` exempt)."""
    status = 0
    print(f"{'workload':<20} {'metric':<28} {'median A':>12} {'median B':>12} "
          f"{'B worse':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}")
    for name in WORKLOADS:
        sets = [
            [child(name, seed + k, seconds, 0, smoke) for k in range(REPEAT)]
            for _ in range(2)
        ]
        if any(not r["correct"] for runs in sets for r in runs):
            print(f"{name}: a run was not correct")
            status = 1
        for spec in SPEC["end_to_end"]:
            a, b = ([r["metrics"][spec["name"]]["value"] for r in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if spec["better"] == "lower" else -1)
            spreads = [spread(v) for v in (a, b)]
            flags = ""
            if worse > spec["bound"]:
                flags += " MEDIAN"
            if spec["name"] != "setup_s" and max(spreads) > spec["bound"]:
                flags += " SPREAD"
            status = status or bool(flags)
            print(f"{name:<20} {spec['name']:<28} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{worse:>+8.3f} {spreads[0]:>9.3f} {spreads[1]:>9.3f} "
                  f"{spec['bound']:>6.2f}{flags}")
    return status


def self_test(seed: int) -> int:
    """Flip the expected digest: the run must then report failures."""
    result = measure("buildings_in_parks", seed, 1.0, False, True, corrupt=True)
    tripped = result["failed"] > 0 and not result["correct"]
    print(f"self-test: {result['failed']} of {result['attempted']} operations "
          f"failed against a flipped digest -> {'ok' if tripped else 'NOT DETECTED'}")
    return 0 if tripped else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size inputs, one set-up, two rounds")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(SPEC["run_seconds"])
    if args.self_test:
        return self_test(args.seed)
    if args.check_agreement:
        return check_agreement(args.seed, seconds, args.smoke)
    if args.workload is None:
        return run_all(args.seed, seconds, args.smoke)
    result = measure(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
