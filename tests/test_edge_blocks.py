"""The edge-block index and the refinement passes that read through it.

:attr:`GeometryColumns.edge_blocks` cuts each ring's edges into runs of
at most ``BLOCK_EDGES`` with one closed MBR each. The DE-9IM kernel
gathers only the blocks that can matter: those meeting a pair's clip box
(step 1), those whose y range holds a point y (parity) and those a
point's ray can reach (witness location). Every pruned edge provably
contributes nothing, so the kernel's codes, bits and locations must
equal the all-edges passes it replaced (``tests/oracles/edges.py``) on
any input. The inputs put blocks under stress: rings of 15, 16, 17, 32
and 33 edges, holes and two-part multipolygons, zero-length edges,
overlapping pairs whose clip box cuts through blocks, and points at
every vertex, on edges and at the ys where blocks start and end; as one
pass and with the kernel's element budget cut to 1.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import MultiPolygon, Polygon
from repro.geometry.columns import BLOCK_EDGES, EdgeBlocks, GeometryColumns
from repro.store.columns import LazyGeometries
from repro.topology import kernel
from repro.topology.kernel import GeometrySet, locate_many, parity_many, relate_indexed
from tests.oracles import edges as oracle

#: Ring sizes around one and two blocks.
EDGE_COUNTS = (3, 15, 16, 17, 32, 33)

BUDGETS = [1, kernel._BUDGET]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def star(cx, cy, radii, phase=0.0):
    """A star-shaped ring about ``(cx, cy)``, one vertex per radius, on
    the 1/8 lattice (each vertex stays in its angular sector, so the
    ring is simple)."""
    n = len(radii)
    return [
        (
            round((cx + r * math.cos(phase + 2 * math.pi * k / n)) * 8) / 8,
            round((cy + r * math.sin(phase + 2 * math.pi * k / n)) * 8) / 8,
        )
        for k, r in enumerate(radii)
    ]


@st.composite
def shapes(draw):
    """A polygon, a polygon with a hole, or a two-part multipolygon, its
    rings of :data:`EDGE_COUNTS` edges, near the origin so that shapes
    overlap and share ys."""
    n = draw(st.sampled_from(EDGE_COUNTS))
    cx, cy = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    radii = draw(st.lists(st.integers(6, 14), min_size=n, max_size=n))
    phase = draw(st.sampled_from([0.0, 0.1, math.pi / n]))
    kind = draw(st.sampled_from(["plain", "holed", "parts"]))
    shell = star(cx, cy, radii, phase)
    if kind == "plain":
        return Polygon(shell)
    m = draw(st.sampled_from(EDGE_COUNTS))
    if kind == "holed":
        hole = star(cx, cy, draw(st.lists(st.integers(2, 4), min_size=m, max_size=m)))
        return Polygon(shell, [hole])
    other = star(cx + 30, cy, draw(st.lists(st.integers(4, 8), min_size=m, max_size=m)))
    return MultiPolygon([Polygon(shell), Polygon(other)])


def with_repeats(columns: GeometryColumns, repeat) -> GeometryColumns:
    """``columns`` with vertex ``k`` doubled wherever ``repeat[k]``: a
    zero-length edge after it."""
    copies = 1 + np.asarray(repeat, dtype=np.int64)
    before = np.concatenate([[0], np.cumsum(copies)])
    return GeometryColumns(
        coords=np.repeat(columns.coords, copies, axis=0),
        ring_offsets=before[columns.ring_offsets],
        part_offsets=columns.part_offsets,
        geom_offsets=columns.geom_offsets,
        boxes=columns.boxes,
        multi=columns.multi,
    )


@st.composite
def collections(draw):
    """Columns of one to three shapes, some with zero-length edges."""
    geometries = draw(st.lists(shapes(), min_size=1, max_size=3))
    columns = GeometryColumns.from_geometries(geometries)
    if draw(st.booleans()):
        repeat = draw(st.lists(st.booleans(), min_size=len(columns.coords), max_size=len(columns.coords)))
        columns = with_repeats(columns, repeat)
    return columns


@st.composite
def points(draw, columns: GeometryColumns):
    """Points, each naming a geometry of ``columns``: at vertices, on
    edges, on the ys where blocks start and end, and on the lattice."""
    xy, boxes = columns.coords, columns.edge_blocks.boxes
    n = draw(st.integers(1, 40))
    px, py = [], []
    for _ in range(n):
        how = draw(st.sampled_from(["vertex", "midpoint", "block y", "block corner", "lattice"]))
        if how in ("vertex", "midpoint"):
            k = draw(st.integers(0, len(xy) - 1))
            x, y = xy[k]
            if how == "midpoint":
                x, y = (xy[k] + xy[(k + 1) % len(xy)]) / 2
        elif how == "block y":  # a block's ymin or ymax, anywhere along x
            b = boxes[draw(st.integers(0, len(boxes) - 1))]
            y = b[draw(st.sampled_from([1, 3]))]
            x = draw(st.integers(-16, 64)) / 8 + draw(st.sampled_from([0.0, b[0], b[2]]))
        elif how == "block corner":
            b = boxes[draw(st.integers(0, len(boxes) - 1))]
            x, y = b[draw(st.sampled_from([0, 2]))], b[draw(st.sampled_from([1, 3]))]
        else:
            x, y = draw(st.integers(-80, 400)) / 8, draw(st.integers(-80, 260)) / 8
        px.append(float(x))
        py.append(float(y))
    geoms = draw(st.lists(st.integers(0, len(columns) - 1), min_size=n, max_size=n))
    return np.array(geoms, dtype=np.int64), np.array(px), np.array(py)


@st.composite
def located(draw):
    columns = draw(collections())
    return (columns,) + draw(points(columns))


@st.composite
def batches(draw):
    """One collection and pairs of its geometries, equal pairs and
    repeats included."""
    columns = draw(collections())
    ids = st.integers(0, len(columns) - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=5))
    r_idx, s_idx = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    return columns, r_idx, s_idx


def budgeted(budget, fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_BUDGET", budget)
        return fn(*args)


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------
def assert_well_formed(columns: GeometryColumns) -> None:
    blocks = columns.edge_blocks
    rings = columns.ring_offsets
    counts = np.diff(blocks.offsets)
    # Blocks tile the edges in order: every edge is in exactly one.
    assert blocks.offsets[0] == 0 and blocks.offsets[-1] == len(columns.coords)
    assert ((counts >= 1) & (counts <= BLOCK_EDGES)).all()
    # No block spans two rings, and each ring's blocks are its own.
    ring = blocks.ring
    assert (rings[ring] <= blocks.offsets[:-1]).all()
    assert (blocks.offsets[1:] <= rings[ring + 1]).all()
    assert blocks.ring_blocks.tolist() == np.searchsorted(blocks.offsets, rings).tolist()
    assert (ring == np.searchsorted(blocks.ring_blocks, np.arange(len(ring)), "right") - 1).all()
    first_rings = columns.part_offsets[columns.geom_offsets]
    assert blocks.geom_blocks.tolist() == blocks.ring_blocks[first_rings].tolist()
    # Each box is the MBR of its edges, both ends of each.
    ax, ay, bx, by, _ = columns.edge_arrays()
    for b in range(len(ring)):
        e = slice(blocks.offsets[b], blocks.offsets[b + 1])
        want = [min(ax[e].min(), bx[e].min()), min(ay[e].min(), by[e].min()),
                max(ax[e].max(), bx[e].max()), max(ay[e].max(), by[e].max())]
        assert blocks.boxes[b].tolist() == want


def spy_on_builds(monkeypatch) -> list:
    """Every columns object :meth:`EdgeBlocks.of` indexes from now on."""
    built = []
    real = EdgeBlocks.of.__func__
    monkeypatch.setattr(EdgeBlocks, "of", classmethod(lambda cls, c: built.append(c) or real(cls, c)))
    return built


def polygon_of(n, cx=0.0, cy=0.0):
    return Polygon(star(cx, cy, [10] * n))


class TestIndex:
    @pytest.mark.parametrize("n", EDGE_COUNTS)
    def test_blocks_tile_each_ring(self, n):
        holed = Polygon(star(0, 0, [12] * n), [star(0, 0, [3] * 17)])
        columns = GeometryColumns.from_geometries(
            [polygon_of(n), holed, MultiPolygon([polygon_of(n), polygon_of(33, 40)])]
        )
        assert_well_formed(columns)
        per_ring = -(-np.diff(columns.ring_offsets) // BLOCK_EDGES)
        assert len(columns.edge_blocks.ring) == per_ring.sum()

    @given(collections())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_columns(self, columns):
        assert_well_formed(columns)

    def test_empty_columns(self):
        columns = GeometryColumns.from_geometries([])
        blocks = columns.edge_blocks
        assert blocks.offsets.tolist() == [0] and blocks.ring_blocks.tolist() == [0]
        assert blocks.boxes.shape == (0, 4) and blocks.geom_blocks.tolist() == [0]
        empty = np.zeros(0)
        assert parity_many(columns, np.zeros(0, dtype=np.int64), empty, empty).size == 0

    def test_one_edge_ring(self):
        # One vertex closing on itself: a single zero-length edge.
        columns = GeometryColumns(
            coords=np.array([[2.0, 3.0], [0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
            ring_offsets=np.array([0, 1, 4]), part_offsets=np.array([0, 1, 2]),
            geom_offsets=np.array([0, 1, 2]),
            boxes=np.array([[2.0, 3.0, 2.0, 3.0], [0.0, 0.0, 4.0, 4.0]]),
            multi=np.zeros(2, dtype=np.uint8),
        )
        assert_well_formed(columns)
        assert columns.edge_blocks.boxes[0].tolist() == [2.0, 3.0, 2.0, 3.0]
        query = np.array([0, 0, 1]), np.array([2.0, 2.0, 1.0]), np.array([3.0, 2.0, 1.0])
        assert parity_many(columns, *query).tolist() == oracle.parity_many(columns, *query).tolist()
        assert locate_many(columns, *query).tolist() == oracle.locate_many(columns, *query).tolist()

    def test_built_once_per_columns(self, monkeypatch):
        columns = GeometryColumns.from_geometries([polygon_of(17), polygon_of(33, 40)])
        built = spy_on_builds(monkeypatch)
        assert columns.edge_blocks is columns.edge_blocks
        assert len(built) == 1 and built[0] is columns

    def test_take_and_slices_get_their_own_index(self):
        geometries = [polygon_of(17), Polygon(star(40, 0, [12] * 33), [star(40, 0, [3] * 16)]), polygon_of(5)]
        columns = GeometryColumns.from_geometries(geometries)
        for part, ids in ((columns.take([2, 1, 1]), [2, 1, 1]), (columns[1:3], [1, 2])):
            assert part.edge_blocks is not columns.edge_blocks
            want = GeometryColumns.from_geometries([geometries[i] for i in ids]).edge_blocks
            for name in ("offsets", "ring", "boxes", "ring_blocks", "geom_blocks"):
                assert getattr(part.edge_blocks, name).tolist() == getattr(want, name).tolist(), name

    def test_a_warm_engine_builds_it_once_per_dataset(self, monkeypatch, tmp_path):
        from repro.datasets.io import save_wkt_file
        from repro.store import Engine, build_dataset

        r = [Polygon(star(20 * k, 0, [9 + k % 3] * 17)) for k in range(6)]
        s = [Polygon(star(20 * k + 9, 2, [8] * 33)) for k in range(6)]
        for name, polygons in (("r", r), ("s", s)):
            save_wkt_file(tmp_path / f"{name}.wkt", polygons)
            build_dataset(tmp_path / f"{name}.wkt", tmp_path / f"{name}_idx")
        built = spy_on_builds(monkeypatch)
        engine = Engine()
        runs = [
            engine.join(tmp_path / "r_idx", tmp_path / "s_idx", method="ST2", grid_order=7, mode="serial")
            for _ in range(2)
        ]
        assert runs[0].stats.refined and runs[0].results == runs[1].results
        assert sorted(len(columns) for columns in built) == [6, 6]


# ----------------------------------------------------------------------
# the kernel against the all-edges passes
# ----------------------------------------------------------------------
def geometry_set(columns):
    return GeometrySet(columns, LazyGeometries(columns))


@pytest.mark.parametrize("budget", BUDGETS)
@given(batches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_relate_indexed_equals_the_all_edges_refinement(budget, batch):
    columns, r_idx, s_idx = batch
    flat = geometry_set(columns)
    got = budgeted(budget, relate_indexed, flat, r_idx, flat, s_idx)
    want = oracle.relate_indexed(flat, r_idx, flat, s_idx)
    assert got == want


@pytest.mark.parametrize("budget", BUDGETS)
@given(located())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parity_equals_the_all_edges_parity(budget, query):
    columns, geoms, px, py = query
    got = budgeted(budget, parity_many, columns, geoms, px, py)
    assert got.tolist() == oracle.parity_many(columns, geoms, px, py).tolist()


@pytest.mark.parametrize("budget", BUDGETS)
@given(located())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_locate_equals_the_all_edges_location(budget, query):
    columns, geoms, px, py = query
    got = budgeted(budget, locate_many, columns, geoms, px, py)
    assert got.tolist() == oracle.locate_many(columns, geoms, px, py).tolist()


def edge_keys(edges, mask=None):
    rows = zip(*(np.asarray(a) if mask is None else np.asarray(a)[mask] for a in edges[:5]))
    return sorted(tuple(float(v) for v in row) for row in rows)


@given(batches())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_clip_keeps_the_all_edges_clip(batch):
    """Step 1 through the blocks keeps the edges the all-edges clip
    keeps, clips the same pairs, and picks the same first edge of every
    ring it keeps whole."""
    columns, r_idx, s_idx = batch
    rb, sb = columns.boxes[r_idx], columns.boxes[s_idx]
    clip = np.concatenate([np.maximum(rb[:, :2], sb[:, :2]), np.minimum(rb[:, 2:], sb[:, 2:])], axis=1)
    for geoms in (r_idx, s_idx):
        edges, clipped, lone = kernel._clip_edges(columns, geoms, clip)
        every = oracle.EdgeArrays.of_geometries(columns, geoms)
        keep = kernel._inside_clip(every, clip)
        clipped_ring = kernel._any(every.ring[~keep], int(every.ring[-1]) + 1)
        first = np.diff(every.ring, prepend=-1).astype(bool)
        assert edge_keys(edges) == edge_keys(every, keep)
        assert clipped.tolist() == kernel._any(every.owner[~keep], len(geoms)).tolist()
        assert edge_keys(edges, lone) == edge_keys(every, keep & first & ~clipped_ring[every.ring])


def test_points_on_block_bounds():
    # A 33-edge ring: three blocks, the last one edge long, its far end
    # the ring's first vertex. Points on every vertex and on every
    # block's ymin and ymax, left of, inside and right of its box.
    ring = Polygon(star(0, 0, [10 + (k % 4) for k in range(33)]))
    columns = GeometryColumns.from_geometries([ring, Polygon(ring.shell, [star(0, 0, [3] * 17)])])
    boxes = columns.edge_blocks.boxes
    ys = np.concatenate([boxes[:, 1], boxes[:, 3], columns.coords[:, 1]])
    xs = np.concatenate([boxes[:, 0], boxes[:, 2], columns.coords[:, 0]])
    px = np.concatenate([xs, xs - 0.5, xs + 0.5, np.full(len(ys), 0.25)])
    py = np.tile(ys, 4)
    for g in (0, 1):
        geoms = np.full(len(px), g, dtype=np.int64)
        where = locate_many(columns, geoms, px, py)
        assert where.tolist() == oracle.locate_many(columns, geoms, px, py).tolist()
        assert (where == kernel.BOUNDARY).sum() >= len(columns.coords) // 2
        for budget in BUDGETS:
            got = budgeted(budget, parity_many, columns, geoms, px, py)
            assert got.tolist() == oracle.parity_many(columns, geoms, px, py).tolist()
