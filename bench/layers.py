"""The traced pass: per-layer metrics from the benchmark's own probes.

An in-process shadow of the cold and warm paths calls each layer's
public functions in order under the span recorder; the daemon's own
timing fields on the wire and its ``/metrics`` endpoint give the serve
layer. No end-to-end metric is ever taken from here.

Everything that reaches past the CLI, the v1 wire and ``Engine.join`` is
guarded — the shared context, every probe, the ST2 oracle, and the
per-layer reading of what the rounds measured: a missing or renamed
symbol nulls that step's metrics, is reported on standard error as a
``probe_error``, and never fails the run. Steps that consume another
step's result (refinement needs the filter verdicts) go null with it.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import traceback
from types import SimpleNamespace

import journeys
from spans import Recorder, format_self_times

#: The layer rows of each CLI journey, in path order. What is left of
#: the journey's wall time is its ``unattributed`` row.
COLD_PATH = (
    "import.interpreter_s", "import.repro_s", "geometry.parse_s",
    "store.content_hash_s", "optimizer.estimate_pairs_s", "raster.april_build_s",
    "join.objects_s", "join.mbr_join_s", "filters.filter_s", "topology.relate_s",
)
#: A fresh process decodes lazily inside its first filter pass, hence
#: ``filters.first_pass_s`` here.
WARM_PATH = (
    "import.interpreter_s", "import.repro_s", "store.open_s",
    "store.payload_load_s", "optimizer.estimate_pairs_s", "join.objects_s",
    "join.mbr_join_s", "filters.first_pass_s", "topology.relate_s",
)

PROBES: list = []


def probe(fn):
    PROBES.append(fn)
    return fn


def guarded(recorder: Recorder, fn, ctx) -> dict:
    """The probe boundary: report, null, keep going."""
    try:
        with recorder.span(f"probe.{fn.__name__.rstrip('_')}"):
            return fn(ctx)
    except Exception:
        reason = traceback.format_exc().strip().splitlines()[-1]
        print(f"# probe_error {fn.__name__}: {reason}", file=sys.stderr)
        return {}


def timed(n: int, fn):
    """``(median calibrated seconds, last result)`` of ``n`` calls."""
    samples = []
    for _ in range(n):
        result, seconds = journeys.calibrated(fn)
        samples.append(seconds)
    return statistics.median(samples), result


# ----------------------------------------------------------------------
# probes, in path order; each returns {metric name: value}
# ----------------------------------------------------------------------
@probe
def import_(ctx) -> dict:
    def spawn(code: str) -> float:
        return timed(3, lambda: subprocess.run(
            [sys.executable, "-c", code], env=journeys.child_env(), check=True))[0]

    interpreter = spawn("pass")
    return {"import.interpreter_s": interpreter,
            "import.repro_s": spawn("import repro") - interpreter}


@probe
def geometry(ctx) -> dict:
    from repro.datasets.io import load_wkt_file
    from repro.geometry.wkt import dumps_wkt

    inputs = ctx.run.inputs
    parse_s, ctx.parsed = timed(
        1, lambda: (load_wkt_file(inputs.r_path), load_wkt_file(inputs.s_path)))
    polygons = ctx.parsed[0] + ctx.parsed[1]
    dumps_s, _ = timed(1, lambda: [dumps_wkt(g, precision=17) for g in polygons])
    vertices = sum(g.num_vertices for g in polygons)
    return {"geometry.parse_s": parse_s, "geometry.vertices": vertices,
            "geometry.parse_mvertices_per_s": vertices / parse_s / 1e6,
            "geometry.dumps_s": dumps_s}


@probe
def store_hash(ctx) -> dict:
    from repro.store import content_hash

    return {"store.content_hash_s":
            timed(1, lambda: [content_hash(p) for p in ctx.parsed])[0]}


@probe
def store_open(ctx) -> dict:
    from repro.store import SpatialDataset

    site = ctx.site
    open_s, ctx.opened = timed(
        1, lambda: (SpatialDataset.open(site.r_idx), SpatialDataset.open(site.s_idx)))
    return {"store.open_s": open_s}


@probe
def store_save(ctx) -> dict:
    from repro.store import SpatialDataset

    def save():
        for k, polygons in enumerate(ctx.parsed):
            SpatialDataset.from_polygons(polygons).save(ctx.run.work / f"saved{k}")

    return {"store.save_s": timed(1, save)[0]}


@probe
def store_payload(ctx) -> dict:
    from repro.raster.compression import block_decode

    load_s, lazy = timed(
        1, lambda: [d.approximations(ctx.grid) for d in ctx.opened])
    decode_s, _ = timed(1, lambda: [block_decode(aprils) for aprils in lazy])
    return {"store.payload_load_s": load_s, "raster.payload_decode_s": decode_s,
            "raster.decoded_bytes": sum(a.nbytes for aprils in lazy for a in aprils)}


@probe
def store_bytes(ctx) -> dict:
    geometry_bytes, payload_bytes, total = ctx.site.index_bytes()
    objects = len(ctx.run.inputs.r_polygons) + len(ctx.run.inputs.s_polygons)
    return {"store.index_bytes": total, "store.geometry_bytes": geometry_bytes,
            "store.payload_bytes": payload_bytes,
            "raster.stored_bytes_per_object": payload_bytes / objects}


@probe
def raster_build(ctx) -> dict:
    from repro.parallel import build_april_parallel

    build_s, ctx.built = timed(1, lambda: [
        build_april_parallel(polygons, ctx.grid, workers=1) for polygons in ctx.parsed])
    count = sum(len(aprils) for aprils in ctx.built)
    return {"raster.april_build_s": build_s,
            "raster.april_build_polys_per_s": count / build_s,
            "raster.intervals_total":
                sum(len(a.p) + len(a.c) for aprils in ctx.built for a in aprils)}


@probe
def raster_encode(ctx) -> dict:
    from repro.raster.compression import CompressedAprilPayload
    from repro.raster.storage import save_approximations

    def encode():
        for k, aprils in enumerate(ctx.built):
            payload = CompressedAprilPayload.from_approximations(aprils)
            save_approximations(ctx.run.work / f"encoded{k}.npz", payload)

    return {"raster.payload_encode_s": timed(1, encode)[0]}


@probe
def raster_build_parallel(ctx) -> dict:
    from repro.parallel import build_april_parallel

    return {"parallel.april_build_s": timed(1, lambda: [
        build_april_parallel(polygons, ctx.grid, workers=ctx.clients)
        for polygons in ctx.parsed])[0]}


@probe
def join_mbr(ctx) -> dict:
    from repro.join.mbr_join import plane_sweep_mbr_join

    mbr_s, pairs = timed(3, lambda: plane_sweep_mbr_join(ctx.rd.boxes, ctx.sd.boxes))
    return {"join.mbr_join_s": mbr_s, "join.candidate_pairs": len(pairs)}


@probe
def join_objects(ctx) -> dict:
    from repro import Engine

    def objects():
        engine = Engine()
        return [engine.objects(d, ctx.grid, with_april=False) for d in (ctx.rd, ctx.sd)]

    return {"join.objects_s": timed(3, objects)[0]}


@probe
def join_execute(ctx) -> dict:
    def execute():
        return ctx.engine.execute("P+C", ctx.r_objects, ctx.s_objects, ctx.pairs,
                                  mode="serial", predicate=ctx.predicate)

    execute_s, run = timed(5, execute)
    ctx.kind = run.kind
    return {"join.execute_s": execute_s, "join.links": len(run.results),
            "topology.refined_pairs": run.stats.refined,
            "filters.decided_pct": 100.0 - 100.0 * run.stats.refined / run.stats.pairs}


@probe
def join_batch(ctx) -> dict:
    # Batch mode implements find-relation only, so this times P+C
    # find-relation over the workload's objects whatever its op.
    return {"join.execute_batch_s": timed(3, lambda: ctx.engine.execute(
        "P+C", ctx.r_objects, ctx.s_objects, ctx.pairs, mode="batch"))[0]}


@probe
def join_parallel(ctx) -> dict:
    parallel_s, _ = timed(2, lambda: ctx.engine.execute(
        "P+C", ctx.r_objects, ctx.s_objects, ctx.pairs, mode="parallel",
        predicate=ctx.predicate, workers=ctx.clients))
    return {"parallel.execute_s": parallel_s}


@probe
def filters(ctx) -> dict:
    """The filter stage alone; its first pass runs on a freshly loaded
    lazy payload, as a fresh process's does."""
    from repro import PIPELINES, Engine
    from repro.filters.relate_filters import RelateVerdict, relate_filter

    fresh = Engine()
    r_objects, s_objects = (fresh.objects(d, ctx.grid) for d in (ctx.rd, ctx.sd))
    pairs = ctx.pairs
    if ctx.predicate is None:
        def run_filters():
            verdicts = PIPELINES["P+C"].filter_pairs(r_objects, s_objects, pairs)
            return [(i, j, v.refine_candidates)
                    for (i, j), (v, _) in zip(pairs, verdicts) if v.definite is None]
    else:
        def run_filters():
            undecided = []
            for i, j in pairs:
                r, s = r_objects[i], s_objects[j]
                verdict = relate_filter(
                    ctx.predicate, r.box, s.box, r.require_april(), s.require_april(),
                    r.polygon.is_connected and s.polygon.is_connected)
                if verdict is RelateVerdict.UNKNOWN:
                    undecided.append((i, j, None))
            return undecided

    first_s, _ = timed(1, run_filters)
    filter_s, ctx.undecided = timed(3, run_filters)
    return {"filters.first_pass_s": first_s, "filters.filter_s": filter_s,
            "filters.us_per_pair": 1e6 * filter_s / len(pairs)}


@probe
def topology(ctx) -> dict:
    from repro import PIPELINES, relate
    from repro.topology.de9im import relation_holds

    r_objects, s_objects = ctx.r_objects, ctx.s_objects
    if ctx.predicate is None:
        pipeline = PIPELINES["P+C"]

        def refine():
            for i, j, candidates in ctx.undecided:
                pipeline.refine_pair(r_objects[i], s_objects[j], candidates)
    else:
        def refine():
            for i, j, _ in ctx.undecided:
                relation_holds(
                    relate(r_objects[i].polygon, s_objects[j].polygon), ctx.predicate)

    relate_s, _ = timed(2, refine)
    refined = len(ctx.undecided)
    return {"topology.relate_s": relate_s,
            "topology.ms_per_refined_pair": 1e3 * relate_s / max(1, refined),
            "topology.refined_vertices": sum(
                r_objects[i].num_vertices + s_objects[j].num_vertices
                for i, j, _ in ctx.undecided)}


@probe
def optimizer(ctx) -> dict:
    from repro import Engine

    # A fresh engine each time: cold histograms, no cached pair set.
    estimate_s, estimate = timed(
        3, lambda: Engine().estimate_pairs(ctx.rd, ctx.sd))
    return {"optimizer.estimate_pairs_s": estimate_s,
            "optimizer.estimate_rel_err": abs(estimate - len(ctx.pairs)) / len(ctx.pairs)}


@probe
def oracle(ctx, sample: int = 200) -> dict:
    """The paper's exactness claim, checked on every traced run:
    ``sample`` seeded candidate pairs are re-derived the ST2 way — a full
    DE-9IM matrix against all masks, independent of the raster filter —
    and must agree with the rows the program returned. A disagreement is
    a failed operation."""
    from repro import TopologicalRelation, most_specific_relation, relate
    from repro.topology.de9im import relation_holds

    picked = random.Random(ctx.run.seed).sample(ctx.pairs, min(sample, len(ctx.pairs)))
    rows = {(link.r_index, link.s_index): link.relation for link in ctx.reference.results}
    wrong = 0
    for i, j in picked:
        matrix = relate(ctx.rd.geometries[i], ctx.sd.geometries[j])
        if ctx.predicate is not None:
            expected = ctx.predicate if relation_holds(matrix, ctx.predicate) else None
        else:
            expected = most_specific_relation(matrix)
            if expected is TopologicalRelation.DISJOINT:
                expected = None
        wrong += rows.get((i, j)) != expected
    ctx.run.ops.record(f"ST2 oracle: {wrong} of {len(picked)} pairs disagree", wrong == 0)
    return {"topology.oracle_pairs": len(picked)}


@probe
def serve_wire(ctx) -> dict:
    from repro.serve.schema import dumps_wire, loads_wire

    to_wire_s, document = timed(3, ctx.reference.to_wire)
    dumps_s, text = timed(3, lambda: dumps_wire(document))
    loads_s, _ = timed(3, lambda: loads_wire(text))
    return {"serve.to_wire_s": to_wire_s, "serve.dumps_s": dumps_s,
            "serve.loads_s": loads_s}


@probe
def serve_default_payload(ctx) -> dict:
    """Five requests *without* ``workers`` against a throw-away daemon,
    five seconds each: the daemon then resolves workers to the core
    count and may fork from its threaded server (README, "workers")."""
    daemon = journeys.Daemon(ctx.site.root)
    try:
        client = journeys.Client(daemon.port, ctx.run.workload, timeout=5.0, workers=None)
        ok = 0
        for _ in range(5):
            if not client.request().ok:
                break  # a wedged daemon stays wedged; do not wait it out
            ok += 1
        client.close()
    finally:
        daemon.stop()
    return {"serve.default_payload_ok_pct": 100.0 * ok / 5}


# ----------------------------------------------------------------------
# what the rounds measured, per layer; guarded like the probes
# ----------------------------------------------------------------------
def p50(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def serve_timing(ctx) -> dict:
    """The daemon's own timing fields on the wire against what the
    client saw. What the daemon computed scales with machine speed;
    transport and queueing (a kernel timer, another request's service)
    stay as measured."""
    def latency(pair) -> float:
        response, speed = pair
        return journeys.calibrate_serving(response.latency_s, response.service_s, speed)

    one = [pair for pair in ctx.samples.one_client if pair[0].ok]
    loaded = ctx.samples.loaded
    loaded_ok = [pair for pair in loaded if pair[0].ok]
    latencies = sorted(latency(pair) for pair in one)
    return {
        "serve.service_p50_ms": 1e3 * p50(r.service_s / speed for r, speed in one),
        "serve.engine_p50_ms":
            1e3 * p50(r.document["wall_seconds"] / speed for r, speed in one),
        "serve.http_overhead_p50_ms": 1e3 * p50(r.latency_s - r.service_s for r, _ in one),
        "serve.engine_overhead_p50_ms": 1e3 * p50(
            (r.service_s - r.document["wall_seconds"]) / speed for r, speed in one),
        "serve.latency_p90_ms": 1e3 * latencies[int(0.9 * (len(latencies) - 1))],
        "serve.response_bytes": p50(r.nbytes for r, _ in one),
        "serve.loaded_p50_ms": 1e3 * p50(latency(pair) for pair in loaded_ok),
        "serve.queued_p50_ms": 1e3 * p50(
            r.document["service"]["queued_seconds"] for r, _ in loaded_ok),
        "serve.shed_pct": 100.0 * (len(loaded) - len(loaded_ok)) / len(loaded),
    }


def serve_counters(ctx) -> dict:
    """The daemon's own ``/metrics``: cache traffic, and the warm-path
    proof that nothing was rasterised after set-up."""
    hits = misses = built = 0.0
    for line in ctx.site.daemon.metrics_text().splitlines():
        if line.startswith("repro_store_cache_total{"):
            value = float(line.rsplit(" ", 1)[1])
            hits += value if 'outcome="hit"' in line else 0.0
            misses += value if 'outcome="miss"' in line else 0.0
        elif line.startswith("repro_april_built_total"):
            built += float(line.rsplit(" ", 1)[1])
    return {"store.cache_hit_pct": 100.0 * hits / (hits + misses),
            "raster.april_built_total": built}


def cli_self_times(ctx) -> dict:
    """Self-time tables: the median traced run of each CLI journey gets
    the layer probes as children; what they do not cover is
    unattributed."""
    samples, recorder, values = ctx.samples, ctx.recorder, ctx.values
    out = {"cli.cold_cpu_s": p50(c.cpu_s for c in samples.cold),
           "cli.stdout_bytes": len(samples.cold[0].stdout)}
    for name, runs, path in (("cold", samples.cold, COLD_PATH),
                             ("warm", samples.warm, WARM_PATH)):
        runs = sorted((r for r in runs if r.span is not None), key=lambda r: r.seconds)
        result = runs[(len(runs) - 1) // 2]
        recorder.spans[result.span]["calibrated_s"] = result.seconds
        recorder.add_children(
            result.span, [(part, values[part]) for part in path if values.get(part) is not None])
        rows = recorder.self_times(result.span)
        out[f"cli.{name}_unattributed_s"] = rows[-1][1]
        print(format_self_times(f"# self time, {name} CLI join", result.seconds, rows),
              file=sys.stderr)
    return out


def bench_health(ctx) -> dict:
    """Tells a noisy run from a regression. The tracing overhead is the
    library join in the rounds that ran under spans against the same
    join in the rounds that did not."""
    library, loops = ctx.samples.library, ctx.samples.loops
    traced_s = p50(seconds for seconds, traced in library if traced)
    plain_s = p50(seconds for seconds, traced in library if not traced)
    return {"bench.trace_overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
            "bench.machine_loop_ms": 1e3 * p50(loops),
            "bench.machine_noise_ratio": max(loops) / min(loops)}


# ----------------------------------------------------------------------
# profile assertions: does the workload still have its stated character
# ----------------------------------------------------------------------
def share(values: dict, parts, whole) -> float:
    """Share of ``whole`` (a metric name or a number) the ``parts``
    take; NaN (which fails every comparison) when a probe it needs went
    null."""
    whole = values.get(whole) if isinstance(whole, str) else whole
    if whole is None or any(values.get(name) is None for name in parts):
        return float("nan")
    return sum(values[p] for p in parts) / whole


def profile_holds(ctx, values: dict) -> bool:
    name = ctx.run.workload.name
    checks = []
    if name == "lakes_parks":
        cold_s = p50(c.seconds for c in ctx.samples.cold)
        load = share(values, ("import.interpreter_s", "import.repro_s", "geometry.parse_s",
                              "store.content_hash_s", "raster.april_build_s"), cold_s)
        join = share(values, ("join.mbr_join_s", "filters.filter_s", "topology.relate_s"),
                     cold_s)
        checks = [(load >= 0.70, f"load layers are {load:.0%} of the cold join, want >= 70%"),
                  (join <= 0.05, f"the join proper is {join:.0%} of the cold join, want <= 5%")]
    elif name == "buildings_parks":
        pairs = values.get("join.candidate_pairs") or 0
        filters_share = share(values, ("filters.filter_s",), "join.execute_s")
        want = round(500 * ctx.run.scale)
        checks = [(pairs >= want, f"{pairs} candidate pairs, want >= {want}"),
                  (filters_share >= 0.25,
                   f"filters are {filters_share:.0%} of the join, want >= 25%")]
    elif name == "counties_zips":
        topology_share = share(values, ("topology.relate_s",), "join.execute_s")
        checks = [(topology_share >= 0.80,
                   f"refinement is {topology_share:.0%} of the join, want >= 80%")]
    elif name == "buildings_in_parks":
        checks = [(ctx.kind == "relate", f"ran kind {ctx.kind!r}, want 'relate'")]
    for ok, message in checks:
        print(f"# profile {'ok' if ok else 'LOST'}: {name}: {message}", file=sys.stderr)
    return all(ok for ok, _ in checks)


def shared_context(ctx) -> dict:
    """What the probes share, through ``Engine``."""
    engine = ctx.engine = ctx.library.engine
    ctx.rd, ctx.sd = (engine.dataset(path) for path in ctx.library.args)
    ctx.grid = engine.join_grid(ctx.rd, ctx.sd, ctx.run.workload.grid_order)
    ctx.pairs = engine.pairs(ctx.rd, ctx.sd)
    ctx.r_objects = engine.objects(ctx.rd, ctx.grid)
    ctx.s_objects = engine.objects(ctx.sd, ctx.grid)
    return {}


def traced(run, seconds: float, recorder: Recorder) -> dict:
    workload, inputs = run.workload, run.inputs
    values: dict = {}
    with recorder.span("workload", workload=workload.name, seed=run.seed):
        with recorder.span("setup"):
            site = run.set_up()
        library = journeys.Library(site, workload)
        reference, _ = library.join(run.ops, "library warm-up")
        if reference is None:
            raise SystemExit("library join failed; nothing to measure")
        ctx = SimpleNamespace(
            run=run, site=site, library=library, reference=reference, recorder=recorder,
            values=values, clients=run.clients, kind=None,
            predicate=library.kwargs.get("predicate"),
        )
        values.update({
            "serve.start_ready_s": site.start_ready_s,
            "serve.first_request_s": site.first_request_s,
            "datasets.generate_s": inputs.generate_s,
            "datasets.write_wkt_s": inputs.write_s,
            "datasets.input_bytes": inputs.input_bytes,
        })
        guarded(recorder, shared_context, ctx)
        # The probes shadow fresh processes: what the harness already
        # holds must not tax their garbage collections.
        gc.collect()
        gc.freeze()
        for fn in PROBES:
            values.update(guarded(recorder, fn, ctx))
        if values.get("join.execute_s") and values.get("parallel.execute_s"):
            values["parallel.speedup"] = (
                values["join.execute_s"] / values["parallel.execute_s"])
        ctx.samples = run.rounds(site, library, seconds, recorder)
        for fn in (serve_timing, serve_counters, cli_self_times, bench_health):
            values.update(guarded(recorder, fn, ctx))

    values["bench.profile_ok"] = 1.0 if profile_holds(ctx, values) else 0.0
    return values
