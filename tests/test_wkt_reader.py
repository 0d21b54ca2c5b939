"""The vectorised WKT reader against the per-row loader it replaced.

Differential: generated files and the catalog's exports read into
exactly the columns (byte for byte) the scalar loader of
``tests/oracles/wkt.py`` builds. Parity: malformed rows give the same
strict messages and quarantine reports, and the ``io.bad_row`` failpoint
fires once per data row. The cold path's promise: a join of two
``.wkt`` files dumps no WKT and builds a polygon only for the objects of
refined pairs. And the bug it fixed: a coordinate that overflows to
infinity is a malformed row, not a crashed join.
"""

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.datasets.io as wkt_io
import repro.geometry.wkt as scalar_wkt
import repro.store.dataset as dataset_module
from repro.datasets.catalog import dataset_names, load_dataset
from repro.datasets.io import load_wkt_file, read_wkt_columns, save_wkt_file
from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box, MultiPolygon, Polygon
from repro.geometry.columns import GeometryColumns
from repro.geometry.wkt import WktError, loads_wkt, loads_wkt_geometry
from repro.resilience import failpoints
from repro.resilience.quarantine import QuarantineReport
from repro.store import Engine, open_dataset, set_default_engine
from repro.store.columns import LazyGeometries
from tests.oracles import wkt as oracle


def oracle_read(path, strict=True):
    """``(columns bytes, report dict)`` of the per-row loader."""
    report = QuarantineReport()
    polygons = oracle.load_wkt_file(path, strict=strict, report=report)
    return GeometryColumns.from_geometries(polygons).to_bytes(), report.to_dict()


def reader_read(path, strict=True):
    report = QuarantineReport()
    columns = read_wkt_columns(path, strict=strict, report=report)
    return columns.to_bytes(), report.to_dict()


def strict_outcome(read, path):
    """The strict read's columns, or its error message."""
    try:
        return read(path)[0]
    except ValueError as exc:
        return str(exc)


# ----------------------------------------------------------------------
# generated rows
# ----------------------------------------------------------------------
def spellings(value: float) -> list[str]:
    """Texts ``float()`` reads as ``value`` (zero also as ``-0``)."""
    texts = [repr(value), f"{value:.17e}"]
    if value == int(value):
        i = int(value)
        texts += [str(i), f"{i}.", f"{i:+d}", f"{i}.0", f"{i}E0"]
        if i == 0:
            texts += ["-0", "+0", "-0.0", ".0", "0e0"]
        if i and i % 1000 == 0:
            texts.append(f"{i // 1000}E+3")
    if abs(value) == 0.5:
        texts.append("+.5" if value > 0 else "-.5")
    return texts


values = st.one_of(
    st.integers(-12, 12).map(float),
    st.sampled_from([0.5, -0.5, 1000.0, -2000.0]),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def slivers(draw):
    """Nearly collinear points: the ring's area is rounding noise, so the
    reader's orientation falls back to the scalar sum."""
    origin = draw(st.sampled_from([0.0, 1.0, 1e8, -3.7e5]))
    step = draw(st.sampled_from([1.0, 1e-3, 7.0]))
    points = [(origin + k * step, origin + k * step) for k in range(draw(st.integers(3, 6)))]
    k = draw(st.integers(0, len(points) - 1))
    x, y = points[k]
    for _ in range(draw(st.integers(0, 3))):
        y = math.nextafter(y, draw(st.sampled_from([math.inf, -math.inf])))
    points[k] = (x, y)
    return points


@st.composite
def ring_points(draw):
    """A ring as written: either orientation, open or closed, with
    repeated vertices — next to the closing vertex included."""
    points = draw(st.one_of(
        st.lists(st.tuples(values, values), min_size=3, max_size=8), slivers(),
    ))
    if draw(st.booleans()):
        points.reverse()
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(points) - 1))
        points.insert(k, points[k])
    if draw(st.booleans()):
        points.append(points[0])
        if draw(st.booleans()):
            points.append(points[0])
    return points


@st.composite
def wkt_rows(draw):
    space = st.sampled_from(["", " ", "  ", "\t", " \t"])
    gap = st.sampled_from([" ", "\t", "  "])

    def listing(items):
        body = (draw(space) + "," + draw(space)).join(items)
        return "(" + draw(space) + body + draw(space) + ")"

    def ring():
        return listing([
            draw(st.sampled_from(spellings(x))) + draw(gap) + draw(st.sampled_from(spellings(y)))
            for x, y in draw(ring_points())
        ])

    def polygon():
        return listing([ring() for _ in range(draw(st.integers(1, 3)))])

    if draw(st.booleans()):
        tag = draw(st.sampled_from(["MULTIPOLYGON", "multipolygon", "MultiPolygon"]))
        body = listing([polygon() for _ in range(draw(st.integers(1, 3)))])
    else:
        tag = draw(st.sampled_from(["POLYGON", "polygon", "Polygon"]))
        body = polygon()
    return draw(space) + tag + draw(space) + body + draw(space)


@st.composite
def wkt_files(draw):
    lines = draw(st.lists(st.one_of(
        wkt_rows(), wkt_rows(), wkt_rows(),
        st.sampled_from(["", "   ", "# a comment", "\t# indented comment"]),
    ), min_size=1, max_size=6))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@given(wkt_files())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reader_equals_the_scalar_loader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.wkt"
        path.write_text(text, encoding="utf-8")
        assert reader_read(path, strict=False) == oracle_read(path, strict=False)
        assert strict_outcome(reader_read, path) == strict_outcome(oracle_read, path)


@pytest.mark.parametrize("name", dataset_names())
def test_catalog_exports_read_identically(name, tmp_path):
    path = tmp_path / f"{name}.wkt"
    save_wkt_file(path, load_dataset(name, 0.2).polygons)
    assert reader_read(path) == oracle_read(path)
    assert load_wkt_file(path) == oracle.load_wkt_file(path)


def test_multipolygon_parts_and_odd_rows(tmp_path):
    # MULTIPOLYGON parts are geometries of their own; a row outside the
    # fast grammar (non-ASCII whitespace) takes the scalar path and keeps
    # its place in the file's order.
    rows = [
        "MULTIPOLYGON (((0 0, 4 0, 4 4, 0 0)), ((10 10, 12 10, 12 12, 10 10)))",
        "POLYGON\u00a0((5 5, 6 5, 6 6, 5 5))",
        "POLYGON ((20 20, 30 20, 30 30, 20 30, 20 20), (22 22, 22 24, 24 24, 24 22, 22 22))",
    ]
    path = tmp_path / "mixed.wkt"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    columns = read_wkt_columns(path)
    assert columns.to_bytes() == oracle_read(path)[0]
    assert len(columns) == 4 and not columns.multi.any()
    assert [g.bbox for g in LazyGeometries(columns)] == [
        Box(0, 0, 4, 4), Box(10, 10, 12, 12), Box(5, 5, 6, 6), Box(20, 20, 30, 30)]


def test_orientation_where_twice_the_area_underflows(tmp_path):
    # The shoelace sum is the smallest subnormal, 2**-1074: positive,
    # but Ring.signed_area halves it to 0.0, so the scalar code calls
    # the shell clockwise and reverses it. Only a ring re-decided by the
    # scalar code comes out the same.
    tiny = repr(2.0**-537)
    path = tmp_path / "tiny.wkt"
    path.write_text(f"POLYGON ((0 0, {tiny} 0, 0 {tiny}, 0 0))\n")
    columns = read_wkt_columns(path)
    assert columns.to_bytes() == oracle_read(path)[0]
    assert columns.coords.tolist() == [[0.0, 2.0**-537], [2.0**-537, 0.0], [0.0, 0.0]]


# ----------------------------------------------------------------------
# malformed rows: the parent's messages and reports
# ----------------------------------------------------------------------
GOOD = ["POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((10 10, 14 10, 12 13, 10 10))"]
MALFORMED = [
    ("bad number", "POLYGON ((0 0, 1 0, 1 1, 0 1.2.3, 0 0))", "bad number '1.2.3'"),
    ("missing paren", "POLYGON ((0 0, 1 0, 1 1, 0 0)", "expected ')' at position 29, found '<end>'"),
    ("trailing input", "POLYGON ((0 0, 1 0, 1 1, 0 0)) x", "trailing input at position 31"),
    ("2-vertex ring", "POLYGON ((0 0, 1 1))", "a ring needs at least 3 distinct vertices, got 2"),
    ("collapses after dedupe", "POLYGON ((0 0, 1 1, 1 1, 0 0))",
     "ring collapses to fewer than 3 distinct vertices"),
    ("bad part", "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5)))",
     "a ring needs at least 3 distinct vertices, got 2"),
    ("empty", "POLYGON EMPTY", "expected '(' at position 8, found 'E'"),
    ("linestring", "LINESTRING (0 0, 1 1)", "unsupported WKT type: 'LINESTRING'"),
    ("non-finite coordinate", "POLYGON ((0 0, 10 0, 10 10, 0 1e999, 0 0))",
     "non-finite coordinate '1e999' at position 30"),
]


@pytest.mark.parametrize("row, reason", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_row_parity(tmp_path, row, reason):
    path = tmp_path / "bad.wkt"
    path.write_text("\n".join([GOOD[0], "", row, GOOD[1]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as strict:
        read_wkt_columns(path)
    assert str(strict.value) == f"{path}:3: {reason}"
    assert strict_outcome(oracle_read, path) == str(strict.value)

    columns, report = reader_read(path, strict=False)
    assert report == {"source": str(path),
                      "rows": [{"line_number": 3, "reason": reason, "snippet": row}]}
    assert (columns, report) == oracle_read(path, strict=False)
    assert len(GeometryColumns.from_bytes(columns)) == 2


def test_bad_row_failpoint_fires_once_per_data_row(tmp_path, monkeypatch):
    path = tmp_path / "data.wkt"
    path.write_text("\n".join(["# header", GOOD[0], "", GOOD[1], "  ", GOOD[0]]) + "\n")
    calls = []
    monkeypatch.setattr(wkt_io, "should_fire", lambda site, key=None: calls.append((site, key)))
    read_wkt_columns(path)
    assert calls == [("io.bad_row", 2), ("io.bad_row", 4), ("io.bad_row", 6)]


def test_bad_row_failpoint_quarantines_like_the_scalar_loader(tmp_path):
    path = tmp_path / "data.wkt"
    save_wkt_file(path, [Polygon.box(k, 0, k + 1, 1) for k in range(8)])
    with failpoints.inject({"io.bad_row": "prob:0.5"}, seed=3):
        fast = reader_read(path, strict=False)
    with failpoints.inject({"io.bad_row": "prob:0.5"}, seed=3):
        expected = oracle_read(path, strict=False)
    assert fast == expected
    assert 0 < len(fast[1]["rows"]) < 8


# ----------------------------------------------------------------------
# the cold path: no WKT dump, polygons only for refined pairs
# ----------------------------------------------------------------------
def test_cold_join_dumps_no_wkt_and_builds_only_refined_objects(tmp_path, monkeypatch):
    region = Box(0.0, 0.0, 200.0, 200.0)
    rng = np.random.default_rng(28)
    r_polygons = generate_blobs(rng, 20, region, (5, 30), (8, 30))
    s_polygons = generate_blobs(rng, 20, region, (5, 30), (8, 30))
    save_wkt_file(tmp_path / "r.wkt", r_polygons)
    save_wkt_file(tmp_path / "s.wkt", s_polygons)
    expected = Engine().join(
        oracle.load_wkt_file(tmp_path / "r.wkt"), oracle.load_wkt_file(tmp_path / "s.wkt"),
        grid_order=9, include_disjoint=True,
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a cold join dumped WKT")

    for module in (scalar_wkt, dataset_module, wkt_io):
        monkeypatch.setattr(module, "dumps_wkt", forbidden)
    engine = Engine()
    run = engine.join(tmp_path / "r.wkt", tmp_path / "s.wkt", grid_order=9,
                      include_disjoint=True)
    assert [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results] == [
        (l.r_index, l.s_index, l.relation, l.filtered) for l in expected.results]
    refined = [(l.r_index, l.s_index) for l in run.results if l.filtered is False]
    assert 0 < len(refined) < run.stats.pairs
    rd, sd = engine.dataset(tmp_path / "r.wkt"), engine.dataset(tmp_path / "s.wkt")
    assert rd.geometries.materialised == sorted({i for i, _ in refined})
    assert sd.geometries.materialised == sorted({j for _, j in refined})


def test_engine_keys_datasets_by_column_bytes(tmp_path):
    polygons = [Polygon.box(0, 0, 2, 2), MultiPolygon([Polygon.box(5, 5, 6, 6)])]
    engine = Engine()
    dataset = engine.dataset(polygons)
    columns = GeometryColumns.from_geometries(polygons)
    assert dataset.columns_sha256 == hashlib.sha256(columns.to_bytes()).hexdigest()
    assert engine.dataset(list(polygons)) is dataset
    # The manifest identity is unchanged and agrees once saved.
    index = dataset.save(tmp_path / "idx")
    opened = open_dataset(tmp_path / "idx")
    assert opened.columns_sha256 == index.columns_sha256 == dataset.columns_sha256
    assert opened.content_hash == index.content_hash == dataset.content_hash


# ----------------------------------------------------------------------
# a coordinate that overflows to infinity
# ----------------------------------------------------------------------
INFINITE = "POLYGON ((0 0, 10 0, 10 10, 0 1e999, 0 0))"


@pytest.mark.parametrize("parse", [loads_wkt, loads_wkt_geometry])
def test_scalar_parsers_reject_a_non_finite_coordinate(parse):
    with pytest.raises(WktError, match="non-finite coordinate '1e999'"):
        parse(INFINITE)
    with pytest.raises(WktError, match="non-finite coordinate '-1E400'"):
        parse("POLYGON ((0 0, 10 0, -1E400 10, 0 0))")


@pytest.fixture()
def infinite_row(tmp_path):
    """A clean ``r.wkt``/``s.wkt`` pair, and ``bad/r.wkt``: the clean
    rows plus one ``1e999`` row at ``line``."""
    region = Box(0.0, 0.0, 200.0, 200.0)
    rng = np.random.default_rng(13)
    save_wkt_file(tmp_path / "r.wkt", generate_blobs(rng, 15, region, (5, 30), (8, 30)))
    save_wkt_file(tmp_path / "s.wkt", generate_blobs(rng, 15, region, (5, 30), (8, 30)))
    (tmp_path / "bad").mkdir()
    bad = tmp_path / "bad" / "r.wkt"
    bad.write_text((tmp_path / "r.wkt").read_text() + INFINITE + "\n")
    set_default_engine(None)
    yield tmp_path, bad, 16
    set_default_engine(None)


def test_join_refuses_or_quarantines_an_infinite_coordinate(infinite_row, capsys):
    from repro.__main__ import main

    root, bad, line = infinite_row
    args = [str(root / "s.wkt"), "--grid-order", "9"]
    assert main(["join", str(root / "r.wkt"), *args]) == 0
    clean = capsys.readouterr().out
    with pytest.raises(SystemExit) as refused:
        main(["join", str(bad), *args])
    assert f"{bad}:{line}: non-finite coordinate '1e999'" in str(refused.value.code)
    assert main(["join", str(bad), *args, "--quarantine"]) == 0
    quarantined = capsys.readouterr()
    assert "1 row(s) quarantined" in quarantined.err
    assert quarantined.out == clean


def test_build_index_refuses_or_quarantines_an_infinite_coordinate(infinite_row, capsys):
    from repro.__main__ import main

    root, bad, line = infinite_row
    index = root / "idx"
    with pytest.raises(SystemExit) as refused:
        main(["build-index", str(bad), "--index", str(index), "--grid-order", "8"])
    assert f"{bad}:{line}: non-finite coordinate '1e999'" in str(refused.value.code)
    assert not index.exists()
    assert main(["build-index", str(bad), "--index", str(index), "--grid-order", "8",
                 "--quarantine"]) == 0
    assert "1 row(s) quarantined" in capsys.readouterr().err
    assert len(open_dataset(index)) == len(load_wkt_file(root / "r.wkt"))
    capsys.readouterr()
    assert main(["join", str(index), str(root / "s.wkt"), "--grid-order", "9"]) == 0
    from_index = capsys.readouterr().out
    assert main(["join", str(root / "r.wkt"), str(root / "s.wkt"), "--grid-order", "9"]) == 0
    assert capsys.readouterr().out == from_index
