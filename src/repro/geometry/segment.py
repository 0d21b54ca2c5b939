"""Robust segment predicates and segment-segment intersection.

These primitives underpin both the DE-9IM refinement step (boundary
intersection via plane sweep) and polygon validity checking. The
orientation test uses a floating-point filter with an exact
``fractions.Fraction`` fallback, so the *sign* of every orientation is
always correct; intersection coordinates themselves are computed in
floating point (they are only used to subdivide boundaries, where a few
ulps of error are tolerated by the downstream midpoint classification).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

# Shewchuk-style static error bound for the 2x2 orientation determinant.
# If |det| exceeds _ORIENT_EPS times the magnitude of the partial products,
# the floating-point sign is provably correct.
_ORIENT_EPS = 3.3306690738754716e-16

Coord = tuple[float, float]


def orientation(p: Coord, q: Coord, r: Coord) -> int:
    """Sign of the cross product ``(q - p) x (r - p)``.

    Returns ``+1`` when ``p, q, r`` turn counter-clockwise, ``-1`` when
    clockwise and ``0`` when collinear. Exact: near-degenerate inputs are
    re-evaluated with rational arithmetic.
    """
    detleft = (q[0] - p[0]) * (r[1] - p[1])
    detright = (q[1] - p[1]) * (r[0] - p[0])
    det = detleft - detright

    if detleft > 0.0:
        if detright <= 0.0:
            return _sign(det)
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return _sign(det)
        detsum = -(detleft + detright)
    else:
        return _sign(det)

    if abs(det) >= _ORIENT_EPS * detsum:
        return _sign(det)
    return _orientation_exact(p, q, r)


def _sign(value: float) -> int:
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


def _orientation_exact(p: Coord, q: Coord, r: Coord) -> int:
    from fractions import Fraction  # only an exact fallback needs it

    px, py = Fraction(p[0]), Fraction(p[1])
    qx, qy = Fraction(q[0]), Fraction(q[1])
    rx, ry = Fraction(r[0]), Fraction(r[1])
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def point_on_segment(p: Coord, a: Coord, b: Coord) -> bool:
    """True iff point ``p`` lies on the closed segment ``a-b``."""
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


class SegmentIntersectionKind(enum.Enum):
    """How two segments meet."""

    NONE = "none"
    #: A single shared point where the segment interiors properly cross.
    CROSSING = "crossing"
    #: A single shared point involving at least one endpoint (touch).
    TOUCH = "touch"
    #: A shared collinear sub-segment of positive length.
    OVERLAP = "overlap"


@dataclass(frozen=True, slots=True)
class SegmentIntersection:
    """Result of :func:`segment_intersection`.

    ``points`` holds one point for ``CROSSING``/``TOUCH`` and the two
    endpoints of the shared sub-segment for ``OVERLAP`` (ordered along the
    carrier line). Empty for ``NONE``.
    """

    kind: SegmentIntersectionKind
    points: tuple[Coord, ...]

    def __bool__(self) -> bool:
        return self.kind is not SegmentIntersectionKind.NONE


_NO_INTERSECTION = SegmentIntersection(SegmentIntersectionKind.NONE, ())


def segments_intersect(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> bool:
    """True iff closed segments ``a1-a2`` and ``b1-b2`` share a point."""
    o1 = orientation(a1, a2, b1)
    o2 = orientation(a1, a2, b2)
    o3 = orientation(b1, b2, a1)
    o4 = orientation(b1, b2, a2)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and point_on_segment(b1, a1, a2):
        return True
    if o2 == 0 and point_on_segment(b2, a1, a2):
        return True
    if o3 == 0 and point_on_segment(a1, b1, b2):
        return True
    if o4 == 0 and point_on_segment(a2, b1, b2):
        return True
    return False


def segment_intersection(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> SegmentIntersection:
    """Compute the intersection of closed segments ``a1-a2`` and ``b1-b2``.

    Classifies the result as a proper interior crossing, an endpoint
    touch, a collinear overlap or no intersection, and returns the shared
    point(s). Degenerate (zero-length) segments are treated as points.
    """
    o1 = orientation(a1, a2, b1)
    o2 = orientation(a1, a2, b2)
    o3 = orientation(b1, b2, a1)
    o4 = orientation(b1, b2, a2)

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        return _collinear_intersection(a1, a2, b1, b2)

    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return SegmentIntersection(
            SegmentIntersectionKind.CROSSING, (_crossing_point(a1, a2, b1, b2),)
        )

    # At least one endpoint lies on the other segment: a touch.
    for p, s1, s2, o in ((b1, a1, a2, o1), (b2, a1, a2, o2), (a1, b1, b2, o3), (a2, b1, b2, o4)):
        if o == 0 and point_on_segment(p, s1, s2):
            return SegmentIntersection(SegmentIntersectionKind.TOUCH, (p,))
    return _NO_INTERSECTION


def _crossing_point(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> Coord:
    """Interior crossing point of two non-parallel segments (float)."""
    dax = a2[0] - a1[0]
    day = a2[1] - a1[1]
    dbx = b2[0] - b1[0]
    dby = b2[1] - b1[1]
    denom = dax * dby - day * dbx
    t = ((b1[0] - a1[0]) * dby - (b1[1] - a1[1]) * dbx) / denom if denom else math.inf
    if not math.isfinite(t):
        # Nearly parallel: the float determinant cannot place the crossing.
        t = float(exact_crossing_t(a1, a2, b1, b2))
    # Clamp against accumulated rounding so the point stays on the segment.
    t = min(1.0, max(0.0, t))
    return (a1[0] + t * dax, a1[1] + t * day)


def exact_crossing_t(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> Fraction:
    """Where ``b1-b2`` crosses ``a1-a2``, as the exact parameter along
    ``a``: for nearly parallel segments whose exact orientations say
    they cross while the float determinant of their directions is 0."""
    from fractions import Fraction

    a1x, a1y, a2x, a2y, b1x, b1y, b2x, b2y = map(Fraction, (*a1, *a2, *b1, *b2))
    dbx, dby = b2x - b1x, b2y - b1y
    denom = (a2x - a1x) * dby - (a2y - a1y) * dbx
    return ((b1x - a1x) * dby - (b1y - a1y) * dbx) / denom


def _collinear_intersection(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> SegmentIntersection:
    """Intersection of four collinear points forming two segments."""
    # Order points along the dominant axis of the carrier line.
    if abs(a2[0] - a1[0]) + abs(b2[0] - b1[0]) >= abs(a2[1] - a1[1]) + abs(b2[1] - b1[1]):
        key = lambda p: (p[0], p[1])  # noqa: E731 - local ordering key
    else:
        key = lambda p: (p[1], p[0])  # noqa: E731

    alo, ahi = sorted((a1, a2), key=key)
    blo, bhi = sorted((b1, b2), key=key)
    lo = max(alo, blo, key=key)
    hi = min(ahi, bhi, key=key)

    klo, khi = key(lo), key(hi)
    if klo > khi:
        return _NO_INTERSECTION
    if klo == khi:
        return SegmentIntersection(SegmentIntersectionKind.TOUCH, (lo,))
    return SegmentIntersection(SegmentIntersectionKind.OVERLAP, (lo, hi))
