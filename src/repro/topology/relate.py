"""Full DE-9IM computation for polygon pairs — the refinement step.

The work happens in :mod:`repro.topology.kernel`: :func:`relate_many`
refines a whole batch of pairs in a fixed number of numpy passes (the
soundness argument is that module's docstring). The per-pair functions
here are its batch of one, kept for callers that hold a single pair —
``explain``, the ``relate`` subcommand, the ST2 oracle — and the
dimensioned forms built on them. A caller that holds many pairs should
call :func:`relate_many` once.
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


#: Dimension of each matrix cell *when it is non-empty*, for valid
#: polygon pairs. All cells except BB have a fixed dimension: interior/
#: exterior intersections are open sets (dim 2) and a boundary meeting
#: an open region does so along an arc (dim 1 — see the module
#: docstring's arc argument). BB is 1 when the boundaries share a
#: collinear piece and 0 when they only touch at isolated points.
_CELL_DIMENSIONS = ("2", "1", "2", "1", None, "1", "2", "1", "2")


def relate_dimensioned(r: "Polygon", s: "Polygon") -> str:
    """The dimensionally-extended DE-9IM string of a polygon pair.

    Returns nine characters from ``{'0', '1', '2', 'F'}`` — e.g.
    ``"212101212"`` for two properly overlapping polygons, or
    ``"FF2F01212"`` for a pair meeting at a single point. For valid
    polygons every cell's dimension is determined by the boolean matrix
    except boundary/boundary, which needs the boundary-overlap flag.
    """
    details = relate_details(r, s)
    out = []
    for k, (flag, dim) in enumerate(zip(details.matrix.code, _CELL_DIMENSIONS)):
        if flag == "F":
            out.append("F")
        elif dim is not None:
            out.append(dim)
        else:  # the BB cell
            out.append("1" if details.boundary_overlap else "0")
    return "".join(out)


def relate_pattern(r: "Polygon", s: "Polygon", pattern: str) -> bool:
    """PostGIS-style ``ST_Relate(r, s, pattern)``.

    ``pattern`` is nine characters from ``{'T', 'F', '*', '0', '1',
    '2'}``: ``T`` matches any non-empty dimension, digits match that
    exact dimension, ``F`` matches empty, ``*`` matches anything.
    """
    if len(pattern) != 9 or any(c not in "TF*012" for c in pattern):
        raise ValueError(f"invalid DE-9IM pattern {pattern!r}")
    actual = relate_dimensioned(r, s)
    for have, want in zip(actual, pattern):
        if want == "*":
            continue
        if want == "T":
            if have == "F":
                return False
        elif have != want:
            return False
    return True


__all__ = [
    "DISJOINT_MATRIX",
    "RelateDetails",
    "relate",
    "relate_details",
    "relate_dimensioned",
    "relate_many",
    "relate_pattern",
]
