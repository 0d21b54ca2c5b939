"""End-to-end spatial topology joins (compatibility facade).

Everything the paper's evaluation pipeline does, behind one class::

    join = TopologyJoin(districts, wetlands, grid_order=11)
    for link in join.find_relations():          # most specific relation
        print(link.r_index, link.relation.value, link.s_index)

    inside = list(join.pairs_satisfying(T.INSIDE))   # relate_p join
    join.stats("P+C")                                # JoinRunStats

Since PR 4 this class is a thin layer over the store engine
(:class:`repro.store.Engine`), which owns dataset resolution, grid
construction, APRIL caching and execution-mode dispatch. ``TopologyJoin``
keeps the historical per-instance semantics — lazy preprocessing, the
``preprocessed=`` ``.npz`` escape hatch, streaming ``find_relations`` —
on top of a private engine, so existing callers see identical behaviour
while new code talks to :class:`~repro.store.Engine` directly (and gains
the persistent warm cache).

With ``workers > 1`` preprocessing fans out over a process pool
(:mod:`repro.parallel`), and so does the per-pair verification stage
once the candidate stream is long enough to pay for one (the engine's
``mode="auto"`` rule); results are identical to a serial run, in the
same ``(i, j)`` order.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from repro.geometry.polygon import Polygon
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.join.run import JoinResult, JoinRun
from repro.join.stats import JoinRunStats
from repro.obs.trace import trace
from repro.raster.grid import RasterGrid
from repro.raster.storage import StoreError, load_approximations, save_approximations
from repro.store.dataset import SpatialDataset
from repro.store.engine import Engine
from repro.topology.de9im import TopologicalRelation


class TopologyJoin:
    """A topology join between two polygon collections.

    Parameters
    ----------
    r_polygons, s_polygons:
        The two inputs. Indices in results refer to these sequences.
    grid_order:
        Hilbert grid order; the grid covers the union of both extents.
    method:
        One of ``"ST2"``, ``"OP2"``, ``"APRIL"``, ``"P+C"`` (default).
    preprocessed:
        Optional pair of ``.npz`` paths (for r and s) previously written
        by :meth:`save_preprocessing`; skips rasterisation on load.
    workers:
        Process-pool size for preprocessing and verification. ``1``
        (default) runs everything in-process; ``None`` picks a small
        pool automatically; verification forks only past the
        ``mode="auto"`` break-even. Results are identical for every
        value.
    engine:
        The :class:`~repro.store.Engine` to execute on. Defaults to a
        private engine, preserving the historical per-instance caching;
        pass a shared engine to reuse its dataset/approximation caches.
    """

    def __init__(
        self,
        r_polygons: Sequence[Polygon],
        s_polygons: Sequence[Polygon],
        grid_order: int = 11,
        method: str = "P+C",
        preprocessed: tuple[str | Path, str | Path] | None = None,
        workers: int | None = 1,
        engine: Engine | None = None,
    ) -> None:
        if method not in PIPELINES:
            raise KeyError(f"unknown method {method!r}; available: {list(PIPELINES)}")
        if not r_polygons or not s_polygons:
            raise ValueError("both inputs must be non-empty")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.method = method
        self.grid_order = grid_order
        self.workers = workers
        self._engine = engine if engine is not None else Engine()
        self._rd = SpatialDataset.from_polygons(list(r_polygons), name="r")
        self._sd = SpatialDataset.from_polygons(list(s_polygons), name="s")
        self._preprocessed = preprocessed
        #: The most recent :meth:`run` / :meth:`run_predicate`'s
        #: :class:`~repro.join.run.JoinRun` (wall time, worker and
        #: partition counts), or None before the first run.
        self.last_run: JoinRun | None = None

    # ------------------------------------------------------------------
    # lazy preprocessing
    # ------------------------------------------------------------------
    @cached_property
    def grid(self) -> RasterGrid:
        return self._engine.join_grid(self._rd, self._sd, self.grid_order)

    @cached_property
    def r_objects(self) -> list[SpatialObject]:
        return self._make_objects(self._rd, side=0)

    @cached_property
    def s_objects(self) -> list[SpatialObject]:
        return self._make_objects(self._sd, side=1)

    def _make_objects(self, dataset: SpatialDataset, side: int) -> list[SpatialObject]:
        if self._preprocessed is not None:
            approximations = load_approximations(
                self._preprocessed[side], expected_grid=self.grid
            )
            if len(approximations) != len(dataset):
                raise StoreError(
                    f"preprocessed file holds {len(approximations)} approximations "
                    f"for {len(dataset)} polygons"
                )
            return [
                SpatialObject(
                    oid=oid, polygon=polygon, box=polygon.bbox, april=approx
                )
                for oid, (polygon, approx) in enumerate(
                    zip(dataset.geometries, approximations)
                )
            ]
        return self._engine.objects(
            dataset,
            self.grid,
            with_april=PIPELINES[self.method].uses_april,
            workers=self.workers,
        )

    def _ensure_april(self) -> None:
        """Backfill APRIL approximations an APRIL-free method skipped."""
        for dataset, objects in ((self._rd, self.r_objects), (self._sd, self.s_objects)):
            if any(o.april is None for o in objects):
                aprils = dataset.approximations(self.grid, workers=self.workers)
                for obj, approx in zip(objects, aprils):
                    if obj.april is None:
                        obj.april = approx

    @cached_property
    def candidate_pairs(self) -> list[tuple[int, int]]:
        """The filter step: pairs whose MBRs intersect."""
        # Touch the object lists first: loading a `preprocessed=` pair
        # validates it (count + grid) on first access, and historically
        # candidate_pairs was that first access.
        self.r_objects
        self.s_objects
        return self._engine.pairs(self._rd, self._sd)

    def save_preprocessing(self, r_path: str | Path, s_path: str | Path) -> None:
        """Persist both inputs' APRIL approximations for future runs."""
        self._ensure_april()
        save_approximations(r_path, [o.require_april() for o in self.r_objects])
        save_approximations(s_path, [o.require_april() for o in self.s_objects])

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _execute(
        self,
        method: str,
        *,
        predicate: TopologicalRelation | None = None,
        include_disjoint: bool = True,
    ) -> JoinRun:
        if predicate is not None or PIPELINES[method].uses_april:
            self._ensure_april()
        return self._engine.execute(
            method,
            self.r_objects,
            self.s_objects,
            self.candidate_pairs,
            mode="auto",
            predicate=predicate,
            workers=self.workers,
            include_disjoint=include_disjoint,
        )

    def run(self, include_disjoint: bool = False) -> JoinRun:
        """One verification pass returning links and statistics.

        Unlike calling :meth:`find_relations` then :meth:`stats` (two
        passes over the pair stream), ``run`` verifies each pair once.
        Returns the unified :class:`~repro.join.run.JoinRun` envelope
        (which still unpacks as ``links, stats``); the run is also kept
        on ``self.last_run``.
        """
        with trace("topology_join", method=self.method):
            run = self._execute(self.method, include_disjoint=include_disjoint)
        self.last_run = run
        return run

    def run_predicate(self, predicate: TopologicalRelation) -> JoinRun:
        """One relate_p pass returning matches and statistics.

        The relate analogue of :meth:`run`: returns a ``JoinRun`` of
        kind ``"relate"`` (which unpacks as ``matches, stats`` with
        ``(i, j)`` tuples), kept on ``self.last_run``.
        """
        with trace("topology_join", predicate=predicate.value):
            run = self._execute(self.method, predicate=predicate)
        self.last_run = run
        return run

    def find_relations(self, include_disjoint: bool = False) -> Iterator[JoinResult]:
        """Stream the most specific relation of every candidate pair,
        in ``(i, j)`` order regardless of worker count."""
        yield from self._execute(
            self.method, include_disjoint=include_disjoint
        ).results

    def pairs_satisfying(
        self, predicate: TopologicalRelation
    ) -> Iterator[tuple[int, int]]:
        """relate_p join: candidate pairs for which ``predicate`` holds."""
        yield from self._execute(self.method, predicate=predicate).matches

    def stats(self, method: str | None = None) -> JoinRunStats:
        """Run the full join with stage timing and return its statistics."""
        method = method or self.method
        if method not in PIPELINES:
            raise KeyError(f"unknown method {method!r}; available: {list(PIPELINES)}")
        return self._execute(method).stats

    def report(self) -> "RunReport":
        """Structured :class:`~repro.obs.report.RunReport` of the last run.

        Bundles whatever observability was enabled around the run —
        stats always; spans, metrics, profiler payload (with its phase
        table) and resource summary when the corresponding collectors
        were on. Raises :class:`RuntimeError` before any run.
        """
        from repro.obs.metrics import get_registry, metrics_enabled
        from repro.obs.profile import export_profile, phase_table, profiling_enabled
        from repro.obs.report import RunReport
        from repro.obs.trace import export_spans, tracing_enabled

        run = self.last_run
        if run is None:
            raise RuntimeError("no join has run yet; call run() first")
        profile = None
        if profiling_enabled():
            payload = export_profile()
            if payload is not None:
                profile = {**payload, "phase_table": phase_table(payload=payload)}
        return RunReport(
            kind=run.kind,
            method=run.method,
            stats=run.stats.to_dict(),
            spans=export_spans() if tracing_enabled() else [],
            metrics=get_registry().to_dict() if metrics_enabled() else None,
            profile=profile,
            resources=run.meta.get("resources"),
            meta={
                k: v for k, v in run.meta.items() if k != "resources"
            },
        )


__all__ = ["JoinResult", "TopologyJoin"]
