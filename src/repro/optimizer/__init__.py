"""Query-optimizer support: selectivity estimation.

The paper's introduction cites the use of topological relations in
spatial query optimisation via multiscale histograms [19]. This package
provides that substrate: :mod:`repro.optimizer.selectivity` holds
compact grid histograms summarising a dataset, and estimators for the
cardinality of topological selections and joins — the numbers an
optimiser needs to order joins or choose access paths *without*
touching the data (:meth:`repro.store.Engine.estimate_pairs`).

Execution-mode selection is not decided here: ``mode="auto"`` is the
one measured break-even rule in :func:`repro.parallel.executor.auto_mode`.
"""

from repro.optimizer.selectivity import SpatialHistogram, estimate_join_candidates

__all__ = ["SpatialHistogram", "estimate_join_candidates"]
