"""The warm-cache join engine: the one way to run a whole-dataset join
or a selection query.

:meth:`Engine.join` accepts datasets in any form (index directories,
``.wkt``/``.geojson`` files, polygon lists, or
:class:`~repro.store.dataset.SpatialDataset` objects) and always
returns the same :class:`~repro.join.run.JoinRun` envelope. It runs one
verification core (:func:`repro.join.pipeline.verify_find_relation` /
:func:`~repro.join.pipeline.verify_relate`): ``serial`` (and its alias
``batch``) on one partition in-process, ``parallel`` on contiguous
chunks fanned out over ``workers`` processes. :meth:`Engine.select`
answers the paper's selection query with the same relate_p core.

The engine memoises the expensive intermediates in bounded LRU caches:

- **datasets** — parsed geometry collections, keyed by resolved path +
  a content fingerprint, so a mutated source file is a cache *miss*
  (never a stale hit);
- **object sets** — ``SpatialObject`` lists per (dataset, grid), where
  APRIL approximations live; backed by the dataset's persistent
  payloads, so a warm join — even in a brand-new process — performs
  zero rasterisation;
- **candidate pairs** — the plane-sweep MBR join per dataset pair.

A dataset's identity in the last two is
``SpatialDataset.columns_sha256``, the SHA-256 of its
``geometries.bin`` image: verified in an index's manifest, hashed once
over the columns of a parsed file or an in-memory list. A ``.wkt`` file
is read straight into those columns, so a cold join builds a
``Polygon`` only for a pair that reaches refinement.

Cache traffic is observable through the metrics registry
(``repro_store_cache_total{cache,outcome}``,
``repro_store_build_seconds{what}``), and the warm-path proof counter
``repro_april_built_total`` stays at zero for a fully warm run.

``mode="auto"`` is one rule (:func:`repro.parallel.executor.auto_mode`):
``parallel`` iff more than one worker can run at once and the exact
candidate-pair count reaches the measured pool break-even, else
``serial``. ``JoinRun.mode`` / ``.workers`` / ``.stats.pairs`` report
everything the rule looked at.
"""

from __future__ import annotations

import atexit
import time
from collections import OrderedDict
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES, verify_relate
from repro.join.run import JoinResult, JoinRun
from repro.obs.trace import trace
from repro.raster.grid import RasterGrid, pad_dataspace
from repro.store.dataset import (
    MANIFEST_NAME,
    SpatialDataset,
    _observe_cache,
    file_sha256,
    load_geometry_columns,
)
from repro.topology.de9im import TopologicalRelation

#: Execution modes :meth:`Engine.join` accepts (``batch`` is an alias
#: of ``serial``).
MODES = ("auto", "serial", "batch", "parallel")

#: LRU capacities of every engine (tests monkeypatch them): datasets,
#: object sets and pair sets.
MAX_DATASETS = 8
MAX_OBJECT_SETS = 16
MAX_PAIR_SETS = 32


class _LRU:
    """A bounded insertion/access-ordered cache with obs counters."""

    def __init__(self, capacity: int, name: str) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        """The cached value or None; records a hit/miss counter either way."""
        try:
            value = self._data[key]
        except KeyError:
            _observe_cache(self.name, "miss")
            return None
        self._data.move_to_end(key)
        _observe_cache(self.name, "hit")
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            _observe_cache(self.name, "evict")

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


def _grid_identity(grid: RasterGrid) -> tuple:
    ds = grid.dataspace
    return (grid.order, ds.xmin, ds.ymin, ds.xmax, ds.ymax)


class Engine:
    """Resolves datasets, memoises their derived state, runs joins.

    The LRU caches are bounded by the module's ``MAX_*`` constants,
    which keep a handful of datasets fully warm. One engine instance is
    not thread-safe; share it across sequential queries only.
    """

    def __init__(self) -> None:
        self._datasets = _LRU(MAX_DATASETS, "dataset")
        self._objects = _LRU(MAX_OBJECT_SETS, "objects")
        self._pairs = _LRU(MAX_PAIR_SETS, "pairs")
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the engine's warm state deterministically.

        Drains every LRU (datasets, object sets, pair sets) so their
        memory — the objects' APRIL lists in particular — is
        reclaimable now rather than at interpreter
        teardown, and marks the engine closed: further :meth:`join` /
        :meth:`execute` / :meth:`dataset` calls raise
        :class:`RuntimeError`. Idempotent, so shutdown paths
        (context-manager exit, the default engine's atexit hook) can
        all call it without coordinating.
        """
        if self._closed:
            return
        self.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed; create a new Engine")

    def __enter__(self) -> "Engine":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dataset resolution
    # ------------------------------------------------------------------
    def dataset(
        self,
        source,
        *,
        on_error: str = "raise",
        strict: bool = True,
        quarantine=None,
    ) -> SpatialDataset:
        """Resolve ``source`` into a (possibly cached) dataset.

        Accepts a :class:`SpatialDataset` (returned as-is), a path to an
        index directory (must hold a ``manifest.json``), a path to a
        ``.wkt``/``.geojson`` file, or a sequence of polygons. Cache
        keys embed a content fingerprint — the manifest bytes for an
        index, the file bytes for a source file, the SHA-256 of the
        geometry columns for in-memory inputs — so mutating the source
        invalidates the entry instead of serving stale geometry.

        ``on_error="rebuild"`` repairs an unusable index directory in
        place (see :meth:`SpatialDataset.open`); ``strict=False`` loads
        geometry files leniently, skipping malformed rows into
        ``quarantine`` (the lenient flag is part of the cache key, and a
        cache hit leaves ``quarantine`` untouched — rows are only
        quarantined when the file is actually parsed).
        """
        self._check_open()
        if isinstance(source, SpatialDataset):
            return source
        if isinstance(source, (str, Path)):
            path = Path(source)
            if path.is_dir():
                manifest = path / MANIFEST_NAME
                fingerprint = file_sha256(manifest) if manifest.exists() else "absent"
                key = ("index", str(path.resolve()), fingerprint)
                cached = self._datasets.get(key)
                if cached is None:
                    cached = SpatialDataset.open(path, on_error=on_error)
                    self._datasets.put(key, cached)
                return cached
            key = ("file", str(path.resolve()), file_sha256(path), strict)
            cached = self._datasets.get(key)
            if cached is None:
                cached = SpatialDataset.from_columns(
                    load_geometry_columns(path, strict=strict, quarantine=quarantine),
                    name=path.stem,
                    source=path,
                    source_sha256=key[2],
                )
                self._datasets.put(key, cached)
            return cached
        dataset = SpatialDataset.from_polygons(list(source))
        key = ("mem", dataset.columns_sha256)
        cached = self._datasets.get(key)
        if cached is None:
            cached = dataset
            self._datasets.put(key, cached)
        return cached

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    def join_grid(
        self, r: SpatialDataset, s: SpatialDataset, grid_order: int
    ) -> RasterGrid:
        """The shared grid a join between ``r`` and ``s`` runs on: the
        padded union of both extents."""
        return RasterGrid(
            pad_dataspace(Box.union_all([r.extent, s.extent])), order=grid_order
        )

    def objects(
        self,
        dataset: SpatialDataset,
        grid: RasterGrid,
        *,
        with_april: bool = True,
        workers: int | None = 1,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> list[SpatialObject]:
        """The dataset's ``SpatialObject`` list for ``grid``.

        Object lists are cached per (``columns_sha256``, grid); APRIL
        approximations are attached lazily (``with_april``) and come
        from :meth:`SpatialDataset.approximations`, i.e. from the
        persistent payload when one exists — the warm path that skips
        rasterisation entirely. ``partition_timeout``/``max_retries``
        bound the supervised build fan-out of a cold one.
        """
        key = (dataset.columns_sha256, _grid_identity(grid))
        objects = self._objects.get(key)
        if objects is None:
            geometries = dataset.geometries
            objects = [
                SpatialObject.deferred(oid, geometries, box, connected)
                for oid, (box, connected) in enumerate(
                    zip(dataset.boxes, dataset.connected)
                )
            ]
            self._objects.put(key, objects)
        if with_april and objects and objects[0].april is None:
            aprils = dataset.approximations(
                grid,
                workers=workers,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
            for obj, approx in zip(objects, aprils):
                obj.april = approx
        return objects

    def pairs(self, r: SpatialDataset, s: SpatialDataset) -> list[tuple[int, int]]:
        """The MBR filter step for the dataset pair, cached and sorted."""
        key = (r.columns_sha256, s.columns_sha256)
        pairs = self._pairs.get(key)
        if pairs is None:
            with trace("mbr_filter_step") as span:
                pairs = plane_sweep_mbr_join(r.boxes, s.boxes)
                pairs.sort()
                if span is not None:
                    span.attrs["pairs"] = len(pairs)
            self._pairs.put(key, pairs)
        return pairs

    def clear(self) -> None:
        """Drop every cached dataset, object set and pair set."""
        self._datasets.clear()
        self._objects.clear()
        self._pairs.clear()

    # ------------------------------------------------------------------
    # auto mode + selectivity
    # ------------------------------------------------------------------
    def estimate_pairs(self, r: SpatialDataset, s: SpatialDataset) -> float:
        """Estimated candidate-pair cardinality of the MBR join, from
        selectivity histograms of the two datasets — without running
        the join. An order-of-magnitude figure: its measured relative
        error is 0.85–0.90 on three of the benchmark's four workloads
        (``optimizer.estimate_rel_err``, see
        :mod:`repro.optimizer.selectivity`), and nothing in the engine
        decides on it — ``mode="auto"`` looks at the exact count
        instead: the pair set it is about to verify."""
        from repro.optimizer.selectivity import (
            SpatialHistogram,
            estimate_join_candidates,
        )

        extent = pad_dataspace(Box.union_all([r.extent, s.extent]))
        return estimate_join_candidates(
            SpatialHistogram.build(r.boxes, extent=extent),
            SpatialHistogram.build(s.boxes, extent=extent),
        )

    @staticmethod
    def _decide_auto(workers: int | None, pairs: int) -> str:
        """What ``mode="auto"`` means for :meth:`join` and
        :meth:`execute` alike — the one rule,
        :func:`repro.parallel.executor.auto_mode`, on the exact pair
        count (``workers=None`` resolves through ``default_workers()``
        there, so a 1-CPU machine runs serial)."""
        from repro.parallel.executor import auto_mode

        return auto_mode(workers, pairs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def join(
        self,
        r,
        s,
        *,
        method: str = "P+C",
        grid_order: int = 11,
        mode: str = "auto",
        predicate: TopologicalRelation | None = None,
        workers: int | None = 1,
        include_disjoint: bool = False,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
        on_index_error: str = "raise",
        strict: bool = True,
    ) -> JoinRun:
        """Join ``r`` with ``s`` and return one :class:`JoinRun`,
        whatever the execution mode.

        Every mode runs the same per-partition verification (batched
        filter, then refinement); ``mode`` only picks how many processes
        verify the pairs: ``"serial"`` — one partition, in-process
        (``"batch"`` is an alias: the batched filter is *the* filter of
        every method and of relate_p); ``"parallel"`` — contiguous
        chunks fanned out over ``workers`` forked processes.
        ``run.mode`` reports what ran. ``predicate`` switches from
        find-relation to a relate_p join.

        ``mode="auto"`` is one rule
        (:func:`repro.parallel.executor.auto_mode`): ``"parallel"`` iff
        ``min(workers, cpu count) > 1`` *and* the exact candidate-pair
        count (the cached MBR join the run then verifies) reaches
        ``PARALLEL_MIN_PAIRS``, the measured point where a forked pool
        starts to pay; otherwise ``"serial"``. ``workers=None``
        resolves through ``default_workers()`` first, so a 1-CPU
        machine runs serial. Pass ``mode="parallel"`` to force a pool
        below the break-even.

        Fault-tolerance knobs: ``partition_timeout``/``max_retries``
        bound every supervised fan-out of the join — the cold APRIL
        build and the verification alike (see
        :mod:`repro.resilience.supervisor`); ``on_index_error="rebuild"``
        repairs unusable index directories instead of raising;
        ``strict=False`` quarantines malformed source-file rows instead
        of aborting (the skipped rows land in
        ``run.meta["quarantine"]``).
        """
        self._check_open()
        if method not in PIPELINES:
            raise KeyError(f"unknown method {method!r}; available: {list(PIPELINES)}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; available: {list(MODES)}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        from repro.resilience.quarantine import QuarantineReport

        r_quarantine = QuarantineReport()
        s_quarantine = QuarantineReport()
        rd = self.dataset(
            r, on_error=on_index_error, strict=strict, quarantine=r_quarantine
        )
        sd = self.dataset(
            s, on_error=on_index_error, strict=strict, quarantine=s_quarantine
        )
        needs_april = predicate is not None or PIPELINES[method].uses_april
        with trace("topology_join", method=method, mode=mode) as span:
            grid = self.join_grid(rd, sd, grid_order)
            pairs = self.pairs(rd, sd)
            if mode == "auto":
                mode = self._decide_auto(workers, len(pairs))
                if span is not None:
                    span.attrs["mode"] = mode
            r_objects, s_objects = (
                self.objects(
                    dataset,
                    grid,
                    with_april=needs_april,
                    workers=workers,
                    partition_timeout=partition_timeout,
                    max_retries=max_retries,
                )
                for dataset in (rd, sd)
            )
            run = self._execute(
                method,
                r_objects,
                s_objects,
                pairs,
                mode=mode,
                predicate=predicate,
                workers=workers,
                include_disjoint=include_disjoint,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
        run.meta.update(
            r=rd.name, s=sd.name, r_count=len(rd), s_count=len(sd), grid_order=grid_order
        )
        quarantined = [q.to_dict() for q in (r_quarantine, s_quarantine) if q]
        if quarantined:
            run.meta["quarantine"] = quarantined
        return run

    def execute(
        self,
        method: str,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
        *,
        mode: str = "auto",
        predicate: TopologicalRelation | None = None,
        workers: int | None = 1,
        include_disjoint: bool = False,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> JoinRun:
        """Run one verification pass over prepared objects and pairs.

        The lower-level sibling of :meth:`join` for callers that manage
        their own objects (the benchmark's layer probes). Takes the same
        modes; an unknown one raises :class:`ValueError` instead of
        silently running something else. ``mode="auto"`` decides
        exactly like :meth:`join`.
        """
        self._check_open()
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; available: {list(MODES)}")
        if mode == "auto":
            mode = self._decide_auto(workers, len(pairs))
        return self._execute(
            method,
            r_objects,
            s_objects,
            pairs,
            mode=mode,
            predicate=predicate,
            workers=workers,
            include_disjoint=include_disjoint,
            partition_timeout=partition_timeout,
            max_retries=max_retries,
        )

    def _execute(
        self,
        method: str,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
        *,
        mode: str,
        predicate: TopologicalRelation | None,
        workers: int | None,
        include_disjoint: bool,
        **fan_out,
    ) -> JoinRun:
        """Run a concrete in-memory mode: ``serial`` (or its alias
        ``batch``) is the one-partition case of the same fan-out
        ``parallel`` runs over ``workers`` processes."""
        from repro.parallel import run_find_relation_parallel, run_relate_parallel

        if mode != "parallel":
            workers = 1
        if predicate is not None:
            fan = run_relate_parallel(
                predicate, r_objects, s_objects, pairs, workers=workers, **fan_out
            )
            results = [JoinResult(i, j, predicate, None) for i, j in fan.matches]
        else:
            fan = run_find_relation_parallel(
                method, r_objects, s_objects, pairs, workers=workers, **fan_out
            )
            results = [
                JoinResult(i, j, relation, filtered)
                for i, j, relation, filtered in fan.results
                if include_disjoint or relation is not TopologicalRelation.DISJOINT
            ]
        return JoinRun(
            results=results,
            stats=fan.stats,
            method=fan.stats.method,
            mode="parallel" if fan.workers > 1 else "serial",
            kind="find" if predicate is None else "relate",
            predicate=predicate,
            wall_seconds=fan.wall_seconds,
            workers=fan.workers,
            partitions=fan.partitions,
        )

    def select(
        self, data, query, predicate: TopologicalRelation, *, grid_order: int = 11
    ) -> JoinRun:
        """All objects ``o`` of ``data`` with ``predicate(o, query)``: the
        selection query of the paper's Sec. 1, run as a relate_p join of
        the dataset against the one object ``query``.

        The object is the predicate's *first* argument: ``INSIDE``
        selects objects lying inside the query region, ``CONTAINS``
        objects containing it. ``data`` is anything :meth:`dataset`
        resolves. The objects live on the dataset's own grid at
        ``grid_order`` — the payload ``build-index --grid-order``
        precomputes — so over such an index only the query is
        rasterised. The MBR filter is one mask over the dataset's
        boxes; :func:`~repro.join.pipeline.verify_relate` filters and
        refines the window's pairs, and for ``DISJOINT`` every object
        outside the window matches outright. Matches are ``(i, 0)``
        pairs in ``i`` order; ``run.stats`` covers the window's pairs.
        """
        self._check_open()
        dataset = self.dataset(data)
        start = time.perf_counter()
        with trace("topology_select", predicate=predicate.value):
            grid = dataset.grid(grid_order)
            objects = self.objects(dataset, grid)
            box = query.bbox
            xmin, ymin, xmax, ymax = dataset.columns.boxes.T
            window = (
                (xmin <= box.xmax) & (box.xmin <= xmax)
                & (ymin <= box.ymax) & (box.ymin <= ymax)
            )
            verified = verify_relate(
                predicate,
                objects,
                [SpatialObject.from_polygon(0, query, grid)],
                [(i, 0) for i in np.flatnonzero(window).tolist()],
            )
        matches = verified.rows
        if predicate is TopologicalRelation.DISJOINT:
            outside = np.flatnonzero(~window).tolist()
            matches = sorted(matches + [(i, 0) for i in outside])
        return JoinRun(
            results=[JoinResult(i, j, predicate, None) for i, j in matches],
            stats=verified.stats,
            method=verified.stats.method,
            mode="serial",
            kind="relate",
            predicate=predicate,
            wall_seconds=time.perf_counter() - start,
            meta={"r": dataset.name, "r_count": len(dataset), "grid_order": grid_order},
        )

    def explain(self, r, s, i: int, j: int, *, grid_order: int = 11):
        """The P+C filter narration for one pair of the two datasets
        (see :func:`repro.join.explain.explain_pair`). Uses the cached
        object sets, so explaining pairs of an indexed dataset does not
        re-rasterise."""
        from repro.join.explain import explain_pair

        rd = self.dataset(r)
        sd = self.dataset(s)
        if not (0 <= i < len(rd)):
            raise IndexError(f"r index {i} out of range for {len(rd)} geometries")
        if not (0 <= j < len(sd)):
            raise IndexError(f"s index {j} out of range for {len(sd)} geometries")
        grid = self.join_grid(rd, sd, grid_order)
        r_objects = self.objects(rd, grid)
        s_objects = self.objects(sd, grid)
        return explain_pair(r_objects[i], s_objects[j])


# ----------------------------------------------------------------------
# the process-default engine
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine the CLI and convenience APIs share: a
    plain ``Engine()``, created on first use and closed at interpreter
    exit."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
        atexit.register(_close_default_engine)
    return _DEFAULT_ENGINE


def _close_default_engine() -> None:
    """The default engine's atexit hook: deterministic teardown of the
    warm caches at interpreter exit (idempotent; a replaced or reset
    default is simply absent)."""
    if _DEFAULT_ENGINE is not None:
        _DEFAULT_ENGINE.close()


def set_default_engine(engine: Engine | None) -> Engine | None:
    """Replace the process-default engine; returns the previous one.
    Pass ``None`` to reset (a fresh engine is created on next use)."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous


__all__ = ["Engine", "MODES", "default_engine", "set_default_engine"]
