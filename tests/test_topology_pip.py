"""Property tests: bulk point-in-polygon vs the scalar predicate."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Location, MultiPolygon, Polygon
from repro.topology.pip import edge_arrays, points_strictly_inside


def regular(n, cx, cy, radius):
    return Polygon(
        [
            (cx + radius * math.cos(2 * math.pi * k / n), cy + radius * math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
    )


DONUT = Polygon(
    [(0, 0), (20, 0), (20, 20), (0, 20)], [[(6, 6), (14, 6), (14, 14), (6, 14)]]
)


class TestBulkMatchesScalar:
    @given(
        st.lists(
            st.tuples(st.floats(-5, 25), st.floats(-5, 25)),
            min_size=8,  # force the vectorised path
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_donut(self, points):
        got = points_strictly_inside(points, DONUT)
        for k, p in enumerate(points):
            expected = DONUT.locate(p) is Location.INTERIOR
            # Boundary-exact points may fall either way; skip them.
            if DONUT.locate(p) is Location.BOUNDARY:
                continue
            assert bool(got[k]) == expected, p

    @given(st.integers(3, 20), st.floats(0.3, 3.0))
    @settings(max_examples=50)
    def test_regular_polygons_grid_sample(self, n, radius):
        poly = regular(n, 0, 0, radius)
        xs = np.linspace(-4, 4, 9)
        points = [(float(x), float(y)) for x in xs for y in xs]
        got = points_strictly_inside(points, poly)
        for k, p in enumerate(points):
            where = poly.locate(p)
            if where is Location.BOUNDARY:
                continue
            assert bool(got[k]) == (where is Location.INTERIOR)

    def test_scalar_path_small_input(self):
        points = [(10.0, 10.0), (3.0, 3.0)]  # two points, one slab each
        got = points_strictly_inside(points, DONUT)
        assert not got[0]  # in the hole -> exterior
        assert got[1]  # on the band -> interior

    def test_multipolygon_parity(self):
        multi = MultiPolygon([Polygon.box(0, 0, 5, 5), Polygon.box(10, 10, 15, 15)])
        points = [(2.0, 2.0), (12.0, 12.0), (7.0, 7.0), (2.0, 12.0),
                  (1.0, 1.0), (14.0, 11.0), (20.0, 20.0), (-1.0, 2.0)]
        got = points_strictly_inside(points, multi)
        expected = [True, True, False, False, True, True, False, False]
        assert list(got) == expected

    def test_empty_points(self):
        assert points_strictly_inside([], DONUT).size == 0


class TestEdgeArrays:
    GEOMETRIES = [
        DONUT,
        regular(7, 1.5, -2.25, 3.0),
        MultiPolygon([DONUT.translated(30, 0), regular(5, 0, 0, 1.0)]),
    ]

    @staticmethod
    def from_generator(geometry):
        edges = list(geometry.edges())
        return (
            [a[0] for a, _ in edges], [a[1] for a, _ in edges],
            [b[0] for _, b in edges], [b[1] for _, b in edges],
        )

    def test_equal_to_the_edges_generator(self):
        for geometry in self.GEOMETRIES:
            arrays = edge_arrays([geometry])[:4]
            assert [a.tolist() for a in arrays] == list(self.from_generator(geometry))

    def test_batch_concatenates_geometries_with_offsets(self):
        ax, ay, bx, by, offsets = edge_arrays(self.GEOMETRIES)
        assert offsets.tolist()[0] == 0 and offsets[-1] == ax.size
        for k, geometry in enumerate(self.GEOMETRIES):
            part = slice(offsets[k], offsets[k + 1])
            got = [ax[part].tolist(), ay[part].tolist(), bx[part].tolist(), by[part].tolist()]
            assert got == list(self.from_generator(geometry))
