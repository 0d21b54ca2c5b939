"""Command-line interface for the library.

Operates on WKT (one geometry per line) or GeoJSON files — or on
persistent dataset indexes built with ``build-index``::

    python -m repro relate a.wkt b.wkt                # one pair per line pair
    python -m repro join r.wkt s.wkt --method P+C     # full topology join
    python -m repro join r.wkt s.wkt --predicate inside
    python -m repro build-index r.wkt --index r_idx   # persist the dataset
    python -m repro join r_idx s_idx --index          # warm: no rasterising
    python -m repro explain r.wkt s.wkt --index 3 7   # why did P+C decide that?
    python -m repro select data.geojson --query "POLYGON((...))" --predicate intersects
    python -m repro select r_idx --query "POLYGON((...))"   # rasterises the query only
    python -m repro stats data.wkt
    python -m repro serve --root indexes/       # long-lived HTTP join service

``join``, ``explain`` and ``select`` auto-detect index directories (any directory
holding a ``manifest.json``); ``join --index`` makes that a requirement.
The first (cold) join between two indexes persists the shared-grid
APRIL payloads into both, so every later join over the pair loads them
and skips rasterisation entirely.

Observability (``join`` subcommand)::

    python -m repro join r.wkt s.wkt --trace trace.json --metrics-out m.json \
        --explain-sample 3 --run-log runs.jsonl --profile prof.txt

``--profile`` turns on the sampling profiler for the run: collapsed
flamegraph stacks land in PATH, the per-phase self-time table on
stderr, and the profile in the ``--run-log`` report (which always
carries peak RSS). ``report`` renders run logs into one static HTML
dashboard::

    python -m repro report runs.jsonl --out report.html

The experiment harness has its own entry point
(``python -m repro.experiments``), as does the dataset catalog
(``python -m repro.datasets``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.join.run import JoinRun
from repro.store import MODES, Engine, StoreError, default_engine
from repro.topology.de9im import TopologicalRelation

# Everything else a subcommand needs is imported by its handler: the
# process that runs ``join r_idx s_idx`` should not wait for the
# GeoJSON reader or the HTTP daemon to load.


def _worker_count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {value!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _predicate(name: str) -> TopologicalRelation:
    for relation in TopologicalRelation:
        if relation.value.replace(" ", "") == name.replace(" ", "").replace("_", "").lower():
            return relation
    raise SystemExit(
        f"unknown predicate {name!r}; choose from "
        f"{[r.value for r in TopologicalRelation]}"
    )


def _load(path: str) -> list:
    """Every polygonal geometry of a .wkt/.geojson file; a load error
    (``path:line: reason``) exits with its message."""
    from repro.store import load_geometry_file

    try:
        return load_geometry_file(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def cmd_relate(args: argparse.Namespace) -> int:
    from repro.topology import most_specific_relation, relate_many

    a_list = _load(args.a)
    b_list = _load(args.b)
    for k, details in enumerate(relate_many(list(zip(a_list, b_list)))):
        relation = most_specific_relation(details.matrix)
        print(f"{k}\t{details.matrix.code}\t{relation.value}")
    return 0


def _setup_obs(args: argparse.Namespace) -> None:
    """Enable the observability features the join flags ask for."""
    from repro import obs

    if args.trace:
        obs.set_tracing(True)
        obs.reset_tracing()
    if args.metrics_out:
        obs.set_metrics(True)
        obs.reset_metrics()
    if args.profile:
        obs.set_profiling(True)
        obs.reset_profile()
        if not args.trace:
            # The phase table's rows come from the span tree; profile
            # without an explicit --trace still needs spans collected.
            obs.set_tracing(True)
            obs.reset_tracing()


def _emit_obs(
    args: argparse.Namespace,
    run: JoinRun,
    r_objects,
    s_objects,
    extra_meta: dict,
) -> None:
    """Write trace/metrics/run-log artifacts after a join run."""
    from repro import obs

    explain_samples = []
    if args.explain_sample and r_objects is not None:
        refined = [
            (link.r_index, link.s_index)
            for link in run.results
            if link.filtered is False
        ]
        explain_samples = obs.sample_explanations(
            r_objects, s_objects, refined, args.explain_sample
        )
        for sample in explain_samples:
            print(
                f"# explain pair ({sample['r_index']}, {sample['s_index']}):",
                file=sys.stderr,
            )
            for line in sample["rendered"].splitlines():
                print(f"#   {line}", file=sys.stderr)

    if not (args.trace or args.metrics_out or args.profile or args.run_log):
        return
    report = obs.build_run_report(
        run,
        args.method,
        spans=bool(args.trace),
        metrics=bool(args.metrics_out),
        profile=bool(args.profile),
        explain_samples=explain_samples,
        meta={
            "r_file": args.r,
            "s_file": args.s,
            "grid_order": args.grid_order,
            "workers": args.workers,
            # The canonical envelope summary (api_version-stamped,
            # derived from JoinRun.to_wire) instead of hand-picked
            # duplicates of its fields — the run log speaks the
            # same v1 contract as the serve API.
            "run": run.to_dict(),
            **extra_meta,
        },
    )
    if args.trace:
        if args.trace == "-":
            for span in obs.get_spans():
                print(span.render(), file=sys.stderr)
        else:
            import json as _json

            Path(args.trace).write_text(
                _json.dumps(report.spans, indent=2) + "\n", encoding="utf-8"
            )
            print(f"# wrote span trace to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        json_path, prom_path = obs.write_metrics_files(
            args.metrics_out, obs.get_registry()
        )
        print(f"# wrote metrics to {json_path} and {prom_path}", file=sys.stderr)
    if args.profile:
        if report.profile is not None:
            Path(args.profile).write_text(
                obs.collapsed_stacks(report.profile) + "\n", encoding="utf-8"
            )
            print(
                f"# wrote {report.profile['samples']} collapsed profile samples "
                f"to {args.profile}",
                file=sys.stderr,
            )
            table = obs.format_phase_table(report.profile["phase_table"])
            for line in table.splitlines():
                print(f"# {line}", file=sys.stderr)
        # Stop sampling: a live ITIMER_PROF outliving its handler would
        # kill the interpreter on the way out.
        obs.set_profiling(False)
    if args.run_log:
        obs.append_jsonl(args.run_log, report.to_dict())
        print(f"# appended run report to {args.run_log}", file=sys.stderr)


def _resolve_dataset(
    engine,
    path: str,
    require_index: bool,
    on_error: str = "raise",
    strict: bool = True,
):
    """Resolve a CLI input into a dataset: index directory or data file."""
    from repro.resilience import QuarantineReport

    p = Path(path)
    if p.is_dir() and not (p / "manifest.json").exists() and on_error != "rebuild":
        raise SystemExit(f"{path}: directory is not a dataset index (no manifest.json)")
    if require_index and not p.is_dir():
        raise SystemExit(f"{path}: --index requires a dataset index directory "
                         f"(build one with: python -m repro build-index {path} --index DIR)")
    quarantine = QuarantineReport()
    try:
        dataset = engine.dataset(
            p, on_error=on_error, strict=strict, quarantine=quarantine
        )
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}") from exc
    if quarantine:
        for line in quarantine.render().splitlines():
            print(f"# {line}", file=sys.stderr)
    return dataset


def cmd_join(args: argparse.Namespace) -> int:
    _setup_obs(args)
    engine = default_engine()
    rd = _resolve_dataset(
        engine, args.r, args.index,
        on_error=args.on_index_error, strict=not args.quarantine,
    )
    sd = _resolve_dataset(
        engine, args.s, args.index,
        on_error=args.on_index_error, strict=not args.quarantine,
    )
    predicate = _predicate(args.predicate) if args.predicate else None
    try:
        run = engine.join(
            rd,
            sd,
            method=args.method,
            grid_order=args.grid_order,
            mode=args.mode,
            predicate=predicate,
            workers=args.workers,
            include_disjoint=args.include_disjoint,
            partition_timeout=args.partition_timeout,
            max_retries=args.max_retries,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.mode == "auto":
        print(f"# auto mode -> {run.mode}", file=sys.stderr)
    if predicate is not None:
        matches = run.matches
        for i, j in matches:
            print(f"{i}\t{predicate.value}\t{j}")
        print(f"# {len(matches)} pairs satisfy {predicate.value}", file=sys.stderr)
        args.explain_sample = 0  # explain narrates find-relation runs only
        extra = {"predicate": predicate.value, "matches": len(matches)}
        _emit_obs(args, run, None, None, extra)
    else:
        for link in run.results:
            print(f"{link.r_index}\t{link.relation.value}\t{link.s_index}")
        stats = run.stats
        print(
            f"# {len(run.results)} links from {stats.pairs} candidates; "
            f"{stats.undetermined_pct:.1f}% refined, {stats.throughput:,.0f} pairs/s",
            file=sys.stderr,
        )
        r_objects = s_objects = None
        if args.explain_sample:
            # Explain narrates the APRIL-based filters: fetch the cached
            # object sets with approximations attached to the linked ones.
            grid = engine.join_grid(rd, sd, args.grid_order)
            r_objects = engine.objects(rd, grid, ids={link.r_index for link in run.results})
            s_objects = engine.objects(sd, grid, ids={link.s_index for link in run.results})
        extra = {"links": len(run.results)}
        _emit_obs(args, run, r_objects, s_objects, extra)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.serve import JoinService, WorkerPool
    from repro.serve import serve as run_service

    # The daemon is an observability surface: /metrics and the
    # per-request dashboards need the registry and span collector live.
    # Set before the service forks its workers, which inherit the flags.
    obs.set_metrics(True)
    obs.set_tracing(True)
    service = JoinService(
        pool=WorkerPool(
            args.max_inflight, max_queue=args.max_queue, deadline=args.deadline
        ),
        root=args.root,
        run_history=args.run_history,
    )

    def _ready(host: str, port: int) -> None:
        print(f"# repro serve listening on http://{host}:{port} "
              f"(api v1; max_inflight={args.max_inflight}, "
              f"max_queue={args.max_queue}, deadline={args.deadline:g}s)",
              file=sys.stderr)

    return run_service(
        service, args.host, args.port, quiet=args.quiet, ready=_ready
    )


def cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs

    runs: list[dict] = []
    if args.run_log:
        path = Path(args.run_log)
        if not path.exists():
            raise SystemExit(f"{args.run_log}: no such run log")
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(_json.loads(line))
            except ValueError as exc:
                raise SystemExit(f"{args.run_log}: malformed JSONL line: {exc}") from exc
        if args.latest > 0:
            runs = runs[-args.latest:]
    out = obs.write_dashboard(args.out, runs)
    print(f"wrote dashboard to {out} ({out.stat().st_size:,} bytes)")
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    from repro.resilience import QuarantineReport
    from repro.store import build_dataset
    from repro.store.dataset import COLUMNS_NAME, GEOMETRY_NAME

    quarantine = QuarantineReport()
    try:
        dataset = build_dataset(
            args.data,
            args.index,
            grid_order=None if args.no_approximate else args.grid_order,
            workers=args.workers,
            strict=not args.quarantine,
            quarantine=quarantine,
        )
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"{args.data}: {exc}") from exc
    if quarantine:
        for line in quarantine.render().splitlines():
            print(f"# {line}", file=sys.stderr)
    print(f"indexed {len(dataset)} geometries into {args.index}")
    wkt_bytes, bin_bytes = (
        (dataset.path / name).stat().st_size for name in (GEOMETRY_NAME, COLUMNS_NAME)
    )
    print(f"# geometry: {GEOMETRY_NAME} {wkt_bytes:,} B (authoritative dump) + "
          f"{COLUMNS_NAME} {bin_bytes:,} B (columnar copy: opening the index "
          f"reads it instead of parsing the dump)", file=sys.stderr)
    if args.no_approximate:
        print("# approximations deferred: the first join against each "
              "partner dataset builds and persists them", file=sys.stderr)
    else:
        print(f"# APRIL payload precomputed for the dataset's own grid "
              f"(order {args.grid_order})", file=sys.stderr)
        stats = dataset.payload_stats(dataset.grid(args.grid_order))
        if stats is not None:
            print(
                f"# payload codec {stats['codec']}: "
                f"{stats['stored_bytes'] / 1024:.1f} KiB on disk, "
                f"{stats['bytes_per_object']:.1f} B/object, "
                f"{stats['compression_ratio']:.2f}x vs plain intervals",
                file=sys.stderr,
            )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    engine = default_engine()
    rd = _resolve_dataset(engine, args.r, False)
    sd = _resolve_dataset(engine, args.s, False)
    i, j = args.index
    if not (0 <= i < len(rd)):
        raise SystemExit(f"--index r out of range: {i} (input has {len(rd)} geometries)")
    if not (0 <= j < len(sd)):
        raise SystemExit(f"--index s out of range: {j} (input has {len(sd)} geometries)")
    print(f"pair (r={i}, s={j})")
    print(engine.explain(rd, sd, i, j, grid_order=args.grid_order).render())
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    from repro.geometry import loads_wkt_geometry

    try:
        query = loads_wkt_geometry(args.query)
    except ValueError as exc:  # WktError, or a ring the polygon refuses
        raise SystemExit(f"--query must be a POLYGON or MULTIPOLYGON WKT: {exc}") from None
    engine = default_engine()
    dataset = _resolve_dataset(engine, args.data, False)
    predicate = _predicate(args.predicate)
    run = engine.select(dataset, query, predicate, grid_order=args.grid_order)
    for link in run.results:
        print(link.r_index)
    print(
        f"# {len(run.results)} objects {predicate.value} the query "
        f"(candidates {run.stats.pairs}, refined {run.stats.refined})",
        file=sys.stderr,
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if Path(args.data).is_dir():
        # An index answers from its offset tables; areas need the exact
        # geometry, which stats on an index does not build.
        dataset = _resolve_dataset(default_engine(), args.data, True)
        vertices, connected, areas = dataset.num_vertices, dataset.connected, None
    else:
        data = _load(args.data)
        vertices = [g.num_vertices for g in data]
        connected = [g.is_connected for g in data]
        areas = [g.area for g in data]
    print(f"geometries:     {len(vertices)}")
    print(f"vertices:       total {sum(vertices)}, "
          f"min {min(vertices)}, max {max(vertices)}, "
          f"mean {sum(vertices) / len(vertices):.1f}")
    if areas is not None:
        print(f"area:           total {sum(areas):.3f}, max {max(areas):.3f}")
    print(f"multipolygons:  {connected.count(False)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relate", help="DE-9IM matrix per aligned geometry pair")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser(
        "join", help="topology join between two files or dataset indexes"
    )
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("--method", default="P+C", choices=["ST2", "OP2", "APRIL", "P+C"])
    p.add_argument("--predicate", default=None, help="relate_p join instead of find-relation")
    p.add_argument("--grid-order", type=int, default=11)
    p.add_argument("--include-disjoint", action="store_true")
    p.add_argument(
        "--mode", default="auto", choices=list(MODES),
        help="where the one verification loop gets its partitions: serial "
             "(one, in-process; batch is an alias), parallel (chunks over "
             "--workers processes), or auto "
             "(parallel iff min(--workers, cpus) > 1 and the join has at "
             "least 2,048 candidate pairs — the measured point where "
             "forking a pool pays; otherwise serial; stderr names the pick)",
    )
    p.add_argument(
        "--index", action="store_true",
        help="require both inputs to be dataset index directories built "
             "with build-index (directories are auto-detected regardless)",
    )
    p.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for preprocessing + verification (default "
             "1); under --mode auto, verification of a small join stays "
             "in-process regardless — --mode parallel forces the pool",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable span tracing; write the span tree as JSON to PATH "
             "('-' renders an ASCII tree to stderr instead)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable metrics; write the registry as JSON to PATH and "
             "Prometheus text exposition to PATH.prom",
    )
    p.add_argument(
        "--explain-sample", type=int, default=0, metavar="N",
        help="deep-trace the first N undetermined pairs to stderr and "
             "into the run log (find-relation runs only)",
    )
    p.add_argument(
        "--run-log", default=None, metavar="PATH",
        help="append a structured JSONL run report to PATH",
    )
    p.add_argument(
        "--profile", default=None, metavar="PATH",
        help="enable the sampling profiler (one sample per 5ms of CPU); "
             "write collapsed flamegraph stacks to PATH and the per-phase "
             "self-time table to stderr",
    )
    p.add_argument(
        "--partition-timeout", type=float, default=None, metavar="SECONDS",
        help="per-partition deadline for parallel runs (APRIL build and "
             "verification fan-outs alike); a partition that exceeds it is "
             "retried, then re-executed serially (default 300)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries per failed/hung/crashed partition before the serial "
             "fallback (default 2)",
    )
    p.add_argument(
        "--on-index-error", default="raise", choices=["raise", "rebuild"],
        help="what to do with an unusable dataset index: abort (default) "
             "or rebuild it in place from its source/geometry dump",
    )
    p.add_argument(
        "--quarantine", action="store_true",
        help="skip malformed input rows (reported on stderr) instead of "
             "aborting the load",
    )
    p.set_defaults(func=cmd_join)

    p = sub.add_parser(
        "serve",
        help="long-running join service over the warm engine (v1 HTTP API)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (default 8642; 0 picks a free port)")
    p.add_argument(
        "--root", default=None, metavar="DIR",
        help="confine request dataset paths to DIR (default: any path "
             "the process can read — bind only to localhost then)",
    )
    p.add_argument(
        "--max-inflight", type=_worker_count, default=1, metavar="N",
        help="requests executing at once, each in one of N supervised "
             "engine worker processes (default 1; raise it only where "
             "N cores are free for joins)",
    )
    p.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help="requests waiting beyond the inflight cap before 429 "
             "load-shedding kicks in (default 8; 0 sheds immediately)",
    )
    p.add_argument(
        "--deadline", type=float, default=300.0, metavar="SECONDS",
        help="per-request deadline: queue wait counts against it and the "
             "remainder bounds the request's worker and its parallel "
             "partitions (default 300)",
    )
    p.add_argument(
        "--run-history", type=int, default=64, metavar="N",
        help="recent requests kept for GET /v1/runs/<id> dashboards "
             "(default 64)",
    )
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access log lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "report",
        help="render run logs into a static HTML dashboard",
    )
    p.add_argument(
        "run_log", nargs="?", default=None,
        help="JSONL run log written by join --run-log (optional)",
    )
    p.add_argument(
        "--out", default="report.html", metavar="PATH",
        help="dashboard destination (default report.html)",
    )
    p.add_argument(
        "--latest", type=int, default=5, metavar="N",
        help="render only the newest N run reports (default 5; 0 = all)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "build-index",
        help="build a persistent dataset index for fast repeated joins",
    )
    p.add_argument("data", help="source .wkt or .geojson file")
    p.add_argument("--index", required=True, metavar="DIR",
                   help="index directory to create (manifest + geometries + payloads)")
    p.add_argument("--grid-order", type=int, default=11,
                   help="precompute the APRIL payload for the dataset's own "
                        "grid at this order (default 11)")
    p.add_argument("--no-approximate", action="store_true",
                   help="skip payload precomputation; the first join builds "
                        "and persists payloads lazily")
    p.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for rasterisation (default 1)",
    )
    p.add_argument(
        "--quarantine", action="store_true",
        help="skip malformed input rows (reported on stderr) instead of "
             "aborting the load",
    )
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser(
        "explain", help="trace one pair's journey through the P+C filters"
    )
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument(
        "--index", nargs=2, type=int, default=(0, 0), metavar=("I", "J"),
        help="pair selector: geometry I of the first file vs J of the second "
             "(default: 0 0)",
    )
    p.add_argument("--grid-order", type=int, default=11)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "select", help="topological selection over one file or dataset index"
    )
    p.add_argument("data", help="a .wkt/.geojson file or a dataset index directory")
    p.add_argument("--query", required=True, help="query polygon as WKT")
    p.add_argument("--predicate", default="intersects")
    p.add_argument("--grid-order", type=int, default=11)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("data", help="a .wkt/.geojson file or a dataset index directory")
    p.set_defaults(func=cmd_stats)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
