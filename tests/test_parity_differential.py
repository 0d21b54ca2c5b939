"""Differential suite: the kernel's even-odd parity over sorted points
vs the slab parity it replaced (``tests/oracles/parity.py``).

:func:`repro.topology.kernel.parity_many` sorts the query points by
(geometry, exact y rank) and hands each edge the run of points it
straddles; the oracle cuts every geometry's plane into slabs at its
vertex ys. Both run the same per-(edge, point) test, so their bits must
be identical on any input — boundary points included, where the bit is
meaningless but still defined. The inputs provoke the ties the keys must
get right: points exactly at vertex ys, horizontal edges, the same
geometry queried many times, holes and multipolygon parts; as one pass,
and with the kernel's element budget cut to 1.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import MultiPolygon, Polygon
from repro.geometry.columns import GeometryColumns
from repro.topology import kernel
from repro.topology.kernel import parity_many
from tests.oracles.parity import slab_parity
from tests.test_fuzz_soundness import small_polygons


@st.composite
def shapes(draw):
    """A polygon, a polygon with a box hole, or a two-part multipolygon
    (parts side by side, or one in the other's hole)."""
    kind = draw(st.sampled_from(["plain", "holed", "parts", "island"]))
    shell = draw(small_polygons())
    if kind == "plain":
        return shell
    x0, y0, x1, y1 = shell.bbox.xmin, shell.bbox.ymin, shell.bbox.xmax, shell.bbox.ymax
    outer = Polygon.box(x0 - 4, y0 - 4, x1 + 4, y1 + 4)
    if kind == "holed":
        return Polygon(outer.shell, [Polygon.box(x0 - 2, y0 - 2, x1 + 2, y1 + 2).shell])
    if kind == "parts":
        return MultiPolygon([shell, draw(small_polygons()).translated(70, 0)])
    return MultiPolygon([Polygon(outer.shell, [Polygon.box(x0 - 2, y0 - 2, x1 + 2, y1 + 2).shell]), shell])


@st.composite
def queries(draw):
    """Geometries and points, each point naming a geometry by index."""
    geometries = draw(st.lists(shapes(), min_size=1, max_size=4))
    columns = GeometryColumns.from_geometries(geometries)
    xy = columns.coords
    lo, hi = xy.min(axis=0) - 2, xy.max(axis=0) + 2
    n = draw(st.integers(1, 40))
    px, py = [], []
    for _ in range(n):
        how = draw(st.sampled_from(["vertex y", "vertex", "midpoint", "lattice", "anywhere"]))
        if how in ("vertex y", "vertex", "midpoint"):
            k = draw(st.integers(0, len(xy) - 1))
            x, y = xy[k]
            if how == "vertex y":  # on a vertex's y, off its x: a slab boundary
                x = draw(st.floats(lo[0], hi[0]))
            elif how == "midpoint":
                x, y = (xy[k] + xy[(k + 1) % len(xy)]) / 2
        elif how == "lattice":
            x, y = draw(st.integers(int(lo[0]), int(hi[0]))), draw(st.integers(int(lo[1]), int(hi[1])))
        else:
            x, y = draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))
        px.append(float(x))
        py.append(float(y))
    # Repeated ids: several points per geometry, in any order.
    geoms = draw(st.lists(st.integers(0, len(geometries) - 1), min_size=n, max_size=n))
    return columns, np.array(geoms, dtype=np.int64), np.array(px), np.array(py)


@pytest.mark.parametrize("budget", [1, kernel._BUDGET])
@given(queries())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parity_equals_the_slab_parity(budget, query):
    columns, geoms, px, py = query
    want = slab_parity(columns, geoms, px, py)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_BUDGET", budget)
        got = parity_many(columns, geoms, px, py)
    assert got.tolist() == want.tolist()


def test_horizontal_edges_and_vertex_ys():
    # A staircase: every edge is horizontal or vertical, and every query
    # sits on a vertex y, between them, or on a horizontal edge.
    stairs = Polygon([(0, 0), (6, 0), (6, 2), (4, 2), (4, 4), (2, 4), (2, 6), (0, 6)])
    columns = GeometryColumns.from_geometries([stairs, stairs.translated(1, 1)])
    ys = np.repeat(np.arange(-1, 8, 0.5), 2)
    xs = np.tile([1.0, 5.0], ys.size // 2)
    geoms = np.arange(ys.size) % 2
    got = parity_many(columns, geoms, xs, ys)
    assert got.tolist() == slab_parity(columns, geoms, xs, ys).tolist()
    assert got.any() and not got.all()


def test_no_points():
    columns = GeometryColumns.from_geometries([Polygon.box(0, 0, 1, 1)])
    empty = np.zeros(0)
    assert parity_many(columns, np.zeros(0, dtype=np.int64), empty, empty).size == 0
