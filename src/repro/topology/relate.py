"""Full DE-9IM computation for polygon pairs — the refinement step.

The work happens in :mod:`repro.topology.kernel`: :func:`relate_many`
refines a whole batch of pairs in a fixed number of numpy passes (the
soundness argument is that module's docstring). The per-pair functions
here are its batch of one, kept for callers that hold a single pair —
``explain``, the ``relate`` subcommand, the ST2 oracle. A caller that
holds many pairs should call :func:`relate_many` once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.topology.de9im import DE9IM
from repro.topology.kernel import DISJOINT_MATRIX, RelateDetails, relate_many

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.polygon import Polygon


def relate(r: "Polygon", s: "Polygon") -> DE9IM:
    """Compute the boolean DE-9IM matrix of polygons ``r`` and ``s``."""
    return relate_details(r, s).matrix


def relate_details(r: "Polygon", s: "Polygon") -> RelateDetails:
    """Boolean DE-9IM matrix plus boundary-overlap dimensionality."""
    return relate_many([(r, s)])[0]


__all__ = [
    "DISJOINT_MATRIX",
    "RelateDetails",
    "relate",
    "relate_details",
    "relate_many",
]
