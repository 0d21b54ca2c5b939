"""End-to-end spatial topology joins (alias over the store engine).

Everything the paper's evaluation pipeline does, behind one class::

    join = TopologyJoin(districts, wetlands, grid_order=11)
    for link in join.find_relations():          # most specific relation
        print(link.r_index, link.relation.value, link.s_index)

    inside = list(join.pairs_satisfying(T.INSIDE))   # relate_p join
    join.stats("P+C")                                # JoinRunStats

The class binds two polygon collections, a grid order, a method and a
worker count to an :class:`~repro.store.Engine` (private by default) and
forwards: every join method is one :meth:`Engine.join
<repro.store.Engine.join>` call, so dataset preparation, lazy APRIL
attachment, the MBR filter step and ``mode="auto"`` are the engine's —
there is no second implementation here. Persistence is the engine's
too: build index directories (``build-index`` / ``build_dataset``) and
join those.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.geometry.polygon import Polygon
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.join.run import JoinResult, JoinRun
from repro.join.stats import JoinRunStats
from repro.raster.grid import RasterGrid
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
    workers:
        Process-pool size for preprocessing and verification. ``1``
        (default) runs everything in-process; ``None`` picks a small
        pool automatically; verification forks only past the
        ``mode="auto"`` break-even. Results are identical for every
        value.
    engine:
        The :class:`~repro.store.Engine` to execute on. Defaults to a
        private engine (per-instance caching); pass a shared engine to
        reuse its dataset/approximation caches.
    """

    def __init__(
        self,
        r_polygons: Sequence[Polygon],
        s_polygons: Sequence[Polygon],
        grid_order: int = 11,
        method: str = "P+C",
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
        #: The most recent :meth:`run` / :meth:`run_predicate`'s
        #: :class:`~repro.join.run.JoinRun` (wall time, worker and
        #: partition counts), or None before the first run.
        self.last_run: JoinRun | None = None

    # ------------------------------------------------------------------
    # the engine's derived state, read-only
    # ------------------------------------------------------------------
    @property
    def grid(self) -> RasterGrid:
        return self._engine.join_grid(self._rd, self._sd, self.grid_order)

    @property
    def r_objects(self) -> list[SpatialObject]:
        return self._objects(self._rd)

    @property
    def s_objects(self) -> list[SpatialObject]:
        return self._objects(self._sd)

    def _objects(self, dataset: SpatialDataset) -> list[SpatialObject]:
        return self._engine.objects(
            dataset,
            self.grid,
            with_april=PIPELINES[self.method].uses_april,
            workers=self.workers,
        )

    @property
    def candidate_pairs(self) -> list[tuple[int, int]]:
        """The filter step: pairs whose MBRs intersect."""
        return self._engine.pairs(self._rd, self._sd)

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _join(
        self,
        method: str,
        *,
        predicate: TopologicalRelation | None = None,
        include_disjoint: bool = False,
    ) -> JoinRun:
        return self._engine.join(
            self._rd,
            self._sd,
            method=method,
            grid_order=self.grid_order,
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
        self.last_run = self._join(self.method, include_disjoint=include_disjoint)
        return self.last_run

    def run_predicate(self, predicate: TopologicalRelation) -> JoinRun:
        """One relate_p pass returning matches and statistics.

        The relate analogue of :meth:`run`: returns a ``JoinRun`` of
        kind ``"relate"`` (which unpacks as ``matches, stats`` with
        ``(i, j)`` tuples), kept on ``self.last_run``.
        """
        self.last_run = self._join(self.method, predicate=predicate)
        return self.last_run

    def find_relations(self, include_disjoint: bool = False) -> Iterator[JoinResult]:
        """Stream the most specific relation of every candidate pair,
        in ``(i, j)`` order regardless of worker count."""
        yield from self._join(
            self.method, include_disjoint=include_disjoint
        ).results

    def pairs_satisfying(
        self, predicate: TopologicalRelation
    ) -> Iterator[tuple[int, int]]:
        """relate_p join: candidate pairs for which ``predicate`` holds."""
        yield from self._join(self.method, predicate=predicate).matches

    def stats(self, method: str | None = None) -> JoinRunStats:
        """Run the full join with stage timing and return its statistics."""
        return self._join(method or self.method).stats

    def report(self) -> "RunReport":
        """Structured :class:`~repro.obs.report.RunReport` of the last run.

        Bundles whatever observability was enabled around the run —
        stats always; spans, metrics, profiler payload (with its phase
        table) and resource summary when the corresponding collectors
        were on. Raises :class:`RuntimeError` before any run.
        """
        from repro.obs.metrics import metrics_enabled
        from repro.obs.profile import profiling_enabled
        from repro.obs.report import build_run_report
        from repro.obs.trace import tracing_enabled

        run = self.last_run
        if run is None:
            raise RuntimeError("no join has run yet; call run() first")
        return build_run_report(
            run,
            self.method,
            spans=tracing_enabled(),
            metrics=metrics_enabled(),
            profile=profiling_enabled(),
            meta={k: v for k, v in run.meta.items() if k != "resources"},
        )


__all__ = ["JoinResult", "TopologyJoin"]
