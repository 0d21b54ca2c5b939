"""The columnar geometry file: round trip, integrity, repair, lazy geometry.

Differential against the WKT reader (the two must describe the same
dataset bit for bit), metamorphic through every execution mode and the
daemon (a join over index directories equals the join over the source
files), and adversarial on the files themselves (any byte that changes a
geometry must make ``open_dataset`` raise).
"""

import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.store.dataset as dataset_module
from repro.datasets.geojson import save_geojson
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_buildings
from repro.geometry import Box, MultiPolygon, Polygon, dumps_wkt, loads_wkt_geometry
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.serve import JoinService, start_server, stop_server
from repro.store import (
    Engine,
    SpatialDataset,
    StoreError,
    build_dataset,
    content_hash,
    open_dataset,
)
from repro.store.columns import GeometryColumns, LazyGeometries
from repro.topology import TopologicalRelation as T
from repro.topology import kernel
from tests.loadgen import post_json
from tests.test_fuzz_soundness import small_polygons

SRC = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
@st.composite
def holed_polygons(draw):
    x, y = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    w, h = draw(st.integers(6, 20)), draw(st.integers(6, 20))
    holes = [Polygon.box(x + 1, y + 1, x + 2, y + 2).shell]
    if draw(st.booleans()):
        holes.append(Polygon.box(x + 3, y + 3, x + 5, y + 4).shell)
    return Polygon(Polygon.box(x, y, x + w, y + h).shell, holes)


@st.composite
def awkward_floats(draw):
    """-0.0, a subnormal and the smallest normal float as coordinates of
    a triangle with real area (so its orientation is well defined)."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return Polygon([(-0.0, 5e-324), (float(w), -0.0), (2.2250738585072014e-308, float(h))])


@st.composite
def geometries(draw):
    polygon = st.one_of(small_polygons(), holed_polygons(), awkward_floats())
    geometry = draw(st.one_of(
        polygon, st.lists(polygon, min_size=1, max_size=3).map(MultiPolygon)
    ))
    if draw(st.booleans()):  # web-mercator magnitudes
        geometry = geometry.translated(2.0037508342789244e7, -1.3e7)
    return geometry


def box_bits(box: Box) -> bytes:
    return struct.pack("<4d", box.xmin, box.ymin, box.xmax, box.ymax)


# ----------------------------------------------------------------------
# differential: the columnar file against the WKT reader
# ----------------------------------------------------------------------
@given(st.lists(geometries(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_save_open_equals_wkt_parse(geoms):
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "idx"
        SpatialDataset.from_polygons(geoms).save(index)
        opened = open_dataset(index)
        lines = (index / "geometries.wkt").read_text().splitlines()
    parsed = [loads_wkt_geometry(line) for line in lines]
    assert isinstance(opened.geometries, LazyGeometries)
    assert opened.geometries.materialised == []
    assert opened.content_hash == content_hash(parsed)
    assert [box_bits(b) for b in opened.boxes] == [box_bits(g.bbox) for g in parsed]
    assert opened.extent == Box.union_all([g.bbox for g in parsed])
    assert opened.connected == [g.is_connected for g in parsed]
    assert opened.num_vertices == [g.num_vertices for g in parsed]
    assert opened.geometries.materialised == []  # none of the above built one
    for lazy, exact, line in zip(opened.geometries, parsed, lines):
        assert type(lazy) is type(exact)
        assert lazy == exact
        assert dumps_wkt(lazy, precision=17) == line
        # Bit-identical coordinates, not merely equal ones (-0.0 == 0.0).
        assert [box_bits(r.bbox) for r in lazy.rings()] == [
            box_bits(r.bbox) for r in exact.rings()
        ]
    assert opened.geometries.materialised == list(range(len(parsed)))


def test_columns_bytes_round_trip_and_size():
    geoms = [
        Polygon.box(0, 0, 4, 4),
        MultiPolygon([Polygon.box(10, 10, 12, 12)]),  # one part, still a multipolygon
        Polygon(Polygon.box(20, 20, 30, 30).shell, [Polygon.box(22, 22, 24, 24).shell]),
    ]
    columns = GeometryColumns.from_geometries(geoms)
    blob = columns.to_bytes()
    counts = columns.counts()
    assert counts == {"count": 3, "parts": 3, "rings": 4, "vertices": 16}
    # 16 B per vertex, 8 B per offset (one extra closes each table),
    # 32 B of MBR and one type byte per geometry, a 40-byte header.
    assert len(blob) == 40 + 16 * 16 + 8 * (4 + 3 + 3 + 3) + 33 * 3
    again = LazyGeometries(GeometryColumns.from_bytes(blob))
    assert list(again) == geoms
    assert again[-1] == geoms[-1] and again[0:2] == geoms[0:2]
    with pytest.raises(IndexError):
        again[3]


# ----------------------------------------------------------------------
# a small join workload with holes and multi-part objects
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("columns")
    region = Box(0.0, 0.0, 300.0, 300.0)
    parks = list(generate_blobs(
        np.random.default_rng(5), 14, region, radius_range=(8.0, 45.0),
        vertices_range=(10, 60), roughness=0.3,
    ))
    buildings = list(generate_buildings(
        np.random.default_rng(6), 90, region, size_range=(1.0, 5.0),
        cluster_count=5, hosts=parks, hosted_fraction=0.5,
    ))
    parks.append(MultiPolygon([Polygon.box(10, 10, 60, 60), Polygon.box(200, 200, 260, 260)]))
    parks.append(Polygon(Polygon.box(100, 100, 180, 180).shell,
                         [Polygon.box(120, 120, 160, 160).shell]))
    buildings.append(MultiPolygon([Polygon.box(12, 12, 14, 14), Polygon.box(250, 250, 262, 262)]))
    buildings.append(Polygon.box(130, 130, 150, 150))  # inside the hole
    # GeoJSON, not WKT: the WKT file reader splits a MULTIPOLYGON into
    # its parts, and the multi-part objects are the point here.
    save_geojson(root / "r.geojson", buildings)
    save_geojson(root / "s.geojson", parks)
    return root


@pytest.fixture()
def indexes(sources, tmp_path):
    build_dataset(sources / "r.geojson", tmp_path / "r_idx", grid_order=None)
    build_dataset(sources / "s.geojson", tmp_path / "s_idx", grid_order=None)
    return tmp_path


def rows_of(run):
    if run.kind == "relate":
        return sorted(run.matches)
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


def counters_of(stats):
    return (
        stats.method, stats.pairs, stats.resolved_mbr, stats.resolved_if, stats.refined,
        dict(stats.relation_counts), stats.r_objects_accessed, stats.s_objects_accessed,
        stats.r_objects_total, stats.s_objects_total,
    )


GRID_ORDER = 9


class TestJoinIdentity:
    @pytest.mark.parametrize("mode, extra", [
        ("serial", {}), ("parallel", {"workers": 2}),
    ])
    def test_index_join_equals_source_join(self, sources, indexes, mode, extra):
        from_files = Engine().join(
            sources / "r.geojson", sources / "s.geojson", grid_order=GRID_ORDER, mode=mode, **extra
        )
        from_indexes = Engine().join(
            indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER, mode=mode, **extra
        )
        assert from_files.stats.refined > 0
        assert rows_of(from_indexes) == rows_of(from_files)
        assert counters_of(from_indexes.stats) == counters_of(from_files.stats)

    def test_relate_index_join_equals_source_join(self, sources, indexes):
        for predicate in (T.INSIDE, T.INTERSECTS):
            from_files = Engine().join(
                sources / "r.geojson", sources / "s.geojson", grid_order=GRID_ORDER, predicate=predicate
            )
            from_indexes = Engine().join(
                indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER, predicate=predicate
            )
            assert rows_of(from_indexes) == rows_of(from_files)
            assert counters_of(from_indexes.stats) == counters_of(from_files.stats)

    def test_daemon_index_join_equals_source_join(self, sources, indexes):
        direct = Engine().join(sources / "r.geojson", sources / "s.geojson", grid_order=GRID_ORDER)
        service = JoinService(root=indexes)
        server, thread = start_server(service)
        try:
            host, port = server.server_address
            status, doc = post_json(
                f"http://{host}:{port}/v1/join",
                {"r": "r_idx", "s": "s_idx", "grid_order": GRID_ORDER, "workers": 1},
            )
        finally:
            stop_server(server, thread)
        assert status == 200
        assert doc["results"] == [
            [l.r_index, l.s_index, l.relation.value, l.filtered] for l in direct.results
        ]
        assert doc["stats"]["refined"] == direct.stats.refined


def witness_builds(monkeypatch) -> list:
    """Record every representative-point fallback of the DE-9IM kernel:
    the columns and the geometry ids whose polygons it reads."""
    calls = []
    real = kernel._witnesses

    def spy(a, a_idx, b, b_idx, pairs, n):
        calls.append((a.columns, a_idx[pairs].tolist()))
        return real(a, a_idx, b, b_idx, pairs, n)

    monkeypatch.setattr(kernel, "_witnesses", spy)
    return calls


def built_by(calls, dataset) -> list[int]:
    return sorted({g for columns, ids in calls if columns is dataset.columns for g in ids})


class TestGeometryOnDemand:
    def test_join_materialises_exactly_the_refined_objects(self, indexes, monkeypatch):
        # Prime: the cold join registers its payloads in both manifests,
        # which (rightly) makes an engine re-open the changed indexes.
        Engine().join(indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER)
        engine = Engine()
        calls = witness_builds(monkeypatch)
        run = engine.join(indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER)
        refined = [(l.r_index, l.s_index) for l in run.results if l.filtered is False]
        assert 0 < len(refined) < run.stats.pairs
        rd, sd = engine.dataset(indexes / "r_idx"), engine.dataset(indexes / "s_idx")
        # Refinement reads the columns: a polygon is built only for the
        # objects whose representative points a fallback needed.
        assert rd.geometries.materialised == built_by(calls, rd)
        assert sd.geometries.materialised == built_by(calls, sd)
        touched_r, touched_s = {i for i, _ in refined}, {j for _, j in refined}
        assert set(rd.geometries.materialised) <= touched_r
        assert set(sd.geometries.materialised) <= touched_s
        assert run.stats.r_objects_accessed == len(touched_r)
        assert run.stats.s_objects_accessed == len(touched_s)
        # The second join on the warm engine builds nothing new.
        built = [rd.geometries[i] for i in rd.geometries.materialised]
        again = engine.join(indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER)
        assert rows_of(again) == rows_of(run)
        assert all(rd.geometries[i] is g for i, g in zip(rd.geometries.materialised, built))

    def test_filter_decided_relate_materialises_nothing(self, tmp_path):
        # Far-apart boxes inside one another's MBR-free space: every
        # relate_p pair is settled by the Fig. 6 filters.
        save_wkt_file(tmp_path / "r.wkt", [Polygon.box(10 * k + 2, 2, 10 * k + 4, 4) for k in range(5)])
        save_wkt_file(tmp_path / "s.wkt", [Polygon.box(10 * k, 0, 10 * k + 8, 8) for k in range(5)])
        build_dataset(tmp_path / "r.wkt", tmp_path / "r_idx", grid_order=None)
        build_dataset(tmp_path / "s.wkt", tmp_path / "s_idx", grid_order=None)
        engine = Engine()
        run = engine.join(tmp_path / "r_idx", tmp_path / "s_idx", grid_order=8, predicate=T.INSIDE)
        assert len(run.matches) == 5 and run.stats.refined == 0
        for name in ("r_idx", "s_idx"):
            assert engine.dataset(tmp_path / name).geometries.materialised == []

    def test_len_repr_and_cli_stats_build_no_geometry(self, indexes, capsys, monkeypatch):
        dataset = open_dataset(indexes / "s_idx")
        count = len((indexes / "s_idx" / "geometries.wkt").read_text().splitlines())
        assert len(dataset) == count and f"{count} geometries" in repr(dataset)
        assert dataset.geometries.materialised == []
        from repro.__main__ import main
        from repro.store import columns

        monkeypatch.setattr(
            columns.LazyGeometries, "_build",
            lambda self, index: pytest.fail("stats built a geometry"),
        )
        assert main(["stats", str(indexes / "s_idx")]) == 0
        out = capsys.readouterr().out
        assert f"geometries:     {count}" in out and "multipolygons:  1" in out


# ----------------------------------------------------------------------
# the fast path: two hashes, no WKT
# ----------------------------------------------------------------------
def test_fast_open_hashes_twice_and_never_touches_wkt(indexes, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the fast path parsed or dumped WKT")

    monkeypatch.setattr(dataset_module, "loads_wkt_geometry", forbidden)
    monkeypatch.setattr(dataset_module, "dumps_wkt", forbidden)
    passes = []
    real = hashlib.sha256

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    dataset = open_dataset(indexes / "r_idx")
    assert len(passes) == 2
    manifest = json.loads((indexes / "r_idx" / "manifest.json").read_text())
    assert dataset.content_hash == manifest["content_hash"]
    assert len(dataset.boxes) == len(dataset) == manifest["count"]
    assert dataset.extent == Box.union_all(dataset.boxes)


# ----------------------------------------------------------------------
# integrity: whatever changes a stored geometry is a StoreError
# ----------------------------------------------------------------------
def edit_manifest(index: Path, edit) -> None:
    path = index / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestIntegrity:
    @pytest.fixture()
    def index(self, indexes):
        return indexes / "s_idx"

    def regions(self, index):
        """One byte offset inside each region of geometries.bin."""
        c = json.loads((index / "manifest.json").read_text())["geometry_columns"]
        coords = 40
        rings = coords + 16 * c["vertices"]
        parts = rings + 8 * (c["rings"] + 1)
        geoms = parts + 8 * (c["parts"] + 1)
        boxes = geoms + 8 * (c["count"] + 1)
        multi = boxes + 32 * c["count"]
        assert multi + c["count"] == (index / "geometries.bin").stat().st_size
        return {
            "magic": 3, "header counts": 17, "first coordinate": coords,
            "a coordinate's low bits": coords + 16 * (c["vertices"] // 2),
            "last coordinate": rings - 1, "ring offsets": rings + 9,
            "part offsets": parts + 8, "geometry offsets": geoms + 16,
            "boxes": boxes + 40, "multi flags": multi + c["count"] - 1,
        }

    def test_any_flipped_byte_of_the_columns_is_refused(self, index):
        pristine = (index / "geometries.bin").read_bytes()
        for region, offset in self.regions(index).items():
            for bit in (0x01, 0x80):
                blob = bytearray(pristine)
                blob[offset] ^= bit
                (index / "geometries.bin").write_bytes(bytes(blob))
                with pytest.raises(StoreError):
                    open_dataset(index)
                    pytest.fail(f"opened with a flipped bit in {region}")
        (index / "geometries.bin").write_bytes(pristine)
        open_dataset(index)

    @pytest.mark.parametrize("damage", ["truncate", "extend", "delete", "empty"])
    def test_damaged_columns_file_is_refused(self, index, damage):
        path = index / "geometries.bin"
        blob = path.read_bytes()
        if damage == "delete":
            path.unlink()
        else:
            path.write_bytes({"truncate": blob[:-9], "extend": blob + b"\0", "empty": b""}[damage])
        with pytest.raises(StoreError):
            open_dataset(index)

    @pytest.mark.parametrize("edit", [
        "digit", "drop line", "add line", "truncate", "delete",
    ])
    def test_changed_dump_is_refused(self, index, edit):
        path = index / "geometries.wkt"
        lines = path.read_text().splitlines()
        if edit == "delete":
            path.unlink()
        elif edit == "truncate":
            path.write_bytes(path.read_bytes()[:-40])
        else:
            if edit == "digit":
                head, _, last = lines[2].rpartition(" ")
                lines[2] = f"{head} {float(last.rstrip(')')) + 0.5!r}))"
            elif edit == "drop line":
                del lines[1]
            else:
                lines.append("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))")
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError):
            open_dataset(index)

    def test_reformatted_dump_still_opens(self, index):
        path = index / "geometries.wkt"
        pristine = open_dataset(index)
        path.write_text(path.read_text().replace(", ", " ,  ").replace("\n", "\r\n\r\n"))
        reopened = open_dataset(index)
        assert reopened.content_hash == pristine.content_hash
        assert list(reopened.geometries) == list(pristine.geometries)

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(count=m["count"] + 1),
        lambda m: m.update(content_hash="0" * 64),
        lambda m: m["geometry_columns"].update(sha256="0" * 64),
        lambda m: m["geometry_columns"].update(count=m["count"] - 1),
        lambda m: m["geometry_columns"].update(vertices=1),
        lambda m: m["geometry_columns"].update(file="nowhere.bin"),
        lambda m: m["geometry_columns"].pop("sha256"),
        lambda m: m["geometry_columns"].update(file="../s_idx/geometries.bin"),
        lambda m: m.update(geometry_columns="geometries.bin"),
    ])
    def test_edited_manifest_is_refused(self, index, edit):
        edit_manifest(index, edit)
        with pytest.raises(StoreError):
            open_dataset(index)

    def test_structurally_unsound_columns_are_refused_even_with_a_matching_hash(self, index):
        # Someone who rewrites the file *and* its hash still cannot get
        # an offset table that runs backwards past the reader.
        blob = bytearray((index / "geometries.bin").read_bytes())
        offset = self.regions(index)["ring offsets"] - 1  # second ring offset
        blob[offset : offset + 8] = struct.pack("<q", 1)
        (index / "geometries.bin").write_bytes(bytes(blob))
        edit_manifest(index, lambda m: m["geometry_columns"].update(
            sha256=hashlib.sha256(bytes(blob)).hexdigest()))
        with pytest.raises(StoreError, match="offset table"):
            open_dataset(index)


# ----------------------------------------------------------------------
# repair: the same policy as APRIL payloads
# ----------------------------------------------------------------------
@pytest.fixture
def metrics():
    set_metrics(True)
    reset_metrics()
    yield
    set_metrics(False)
    reset_metrics()


def rebuilds() -> int:
    return get_registry().counter_values().get(
        'repro_resilience_rebuild_total{artifact="dataset_index"}', 0)


class TestRepair:
    @pytest.mark.parametrize("damage", ["missing", "truncated", "bit flip", "count"])
    def test_bad_columns_raise_or_are_rewritten_from_the_dump(
        self, sources, indexes, metrics, damage
    ):
        index = indexes / "s_idx"
        path = index / "geometries.bin"
        pristine_bin, pristine_wkt = path.read_bytes(), (index / "geometries.wkt").read_bytes()
        expected = open_dataset(index).content_hash
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(pristine_bin[: len(pristine_bin) // 2])
        elif damage == "bit flip":
            path.write_bytes(pristine_bin[:100] + bytes([pristine_bin[100] ^ 4]) + pristine_bin[101:])
        else:
            edit_manifest(index, lambda m: m["geometry_columns"].update(rings=0))
        with pytest.raises(StoreError):
            open_dataset(index, on_error="raise")
        assert rebuilds() == 0
        repaired = open_dataset(index, on_error="rebuild")
        assert rebuilds() == 1
        assert repaired.content_hash == expected
        # The manifest still vouched for the dump, so the index keeps its identity.
        assert repaired.name == "s" and repaired.source == sources / "s.geojson"
        assert repaired.source_sha256 == open_dataset(indexes / "s_idx").source_sha256
        assert path.read_bytes() == pristine_bin
        assert (index / "geometries.wkt").read_bytes() == pristine_wkt
        assert isinstance(open_dataset(index).geometries, LazyGeometries)

    def test_bad_columns_and_bad_dump_rebuild_from_source(self, sources, indexes, metrics):
        index = indexes / "s_idx"
        expected = open_dataset(index).content_hash
        (index / "geometries.bin").write_bytes(b"junk")
        (index / "geometries.wkt").write_text("POLYGON ((0 0, 1 0\n")
        with pytest.raises(StoreError):
            open_dataset(index, on_error="rebuild")  # nothing intact to rebuild from
        repaired = open_dataset(index, source=sources / "s.geojson", on_error="rebuild")
        assert rebuilds() == 1
        assert repaired.content_hash == expected
        assert isinstance(open_dataset(index).geometries, LazyGeometries)

    def test_cli_join_repairs_a_bad_columns_file(self, sources, indexes, capsys):
        from repro.__main__ import main

        assert main(["join", str(indexes / "r_idx"), str(indexes / "s_idx"),
                     "--grid-order", str(GRID_ORDER)]) == 0
        expected = capsys.readouterr().out
        (indexes / "r_idx" / "geometries.bin").write_bytes(b"RPROGEOM")
        with pytest.raises(SystemExit):
            main(["join", str(indexes / "r_idx"), str(indexes / "s_idx"),
                  "--grid-order", str(GRID_ORDER)])
        capsys.readouterr()
        from repro.store import set_default_engine

        set_default_engine(None)
        assert main(["join", str(indexes / "r_idx"), str(indexes / "s_idx"),
                     "--grid-order", str(GRID_ORDER), "--on-index-error", "rebuild"]) == 0
        assert capsys.readouterr().out == expected


def build_index_killed_mid_save(source: Path, index: Path) -> None:
    """``build-index`` in a child that dies between the two geometry files."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_FAILPOINTS="store.crash_mid_save=always")
    child = subprocess.run(
        [sys.executable, "-m", "repro", "build-index", str(source), "--index", str(index),
         "--no-approximate"],
        env=env, capture_output=True, timeout=60,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()


class TestCrashBetweenTheGeometryFiles:
    def test_fresh_directory_is_refused(self, sources, tmp_path):
        build_index_killed_mid_save(sources / "s.geojson", tmp_path / "idx")
        assert (tmp_path / "idx" / "geometries.wkt").exists()
        assert not (tmp_path / "idx" / "geometries.bin").exists()
        with pytest.raises(StoreError, match="not a dataset index"):
            open_dataset(tmp_path / "idx")

    def test_over_an_index_opens_old_content_or_is_refused(self, sources, indexes):
        index = indexes / "s_idx"
        old = open_dataset(index).content_hash
        # Same source: the new dump is the old dump, the index still opens.
        build_index_killed_mid_save(sources / "s.geojson", index)
        assert open_dataset(index).content_hash == old
        # Another source: the dump on disk is one the manifest never
        # vouched for — refused, and repairable from the dump.
        build_index_killed_mid_save(sources / "r.geojson", index)
        assert (index / "geometries.wkt").read_bytes() != b""
        with pytest.raises(StoreError, match="content hash"):
            open_dataset(index)
        repaired = open_dataset(index, on_error="rebuild")
        assert repaired.content_hash == open_dataset(indexes / "r_idx").content_hash


# ----------------------------------------------------------------------
# indexes written before the columnar file existed
# ----------------------------------------------------------------------
def strip_columns(index: Path) -> None:
    """Make ``index`` what the parent commit's ``save`` wrote: the same
    dump and manifest, no ``geometry_columns`` entry, no binary."""
    edit_manifest(index, lambda m: m.pop("geometry_columns"))
    (index / "geometries.bin").unlink()


class TestOldIndexes:
    def test_open_through_wkt_without_the_redump(self, indexes, monkeypatch):
        new = open_dataset(indexes / "s_idx")
        strip_columns(indexes / "s_idx")
        # The raw hash of the dump settles content_hash: no re-dump.
        monkeypatch.setattr(
            dataset_module, "dumps_wkt", lambda *a, **k: pytest.fail("re-dumped the geometries"))
        old = open_dataset(indexes / "s_idx")
        assert isinstance(old.geometries, list)
        assert old.content_hash == new.content_hash
        assert old.geometries == list(new.geometries)
        assert [box_bits(b) for b in old.boxes] == [box_bits(b) for b in new.boxes]
        assert old.connected == new.connected and old.num_vertices == new.num_vertices

    def test_v1_manifest_without_columns_joins_identically(self, sources, indexes):
        expected = Engine().join(sources / "r.geojson", sources / "s.geojson", grid_order=GRID_ORDER)
        for name in ("r_idx", "s_idx"):
            strip_columns(indexes / name)

            def to_v1(manifest):
                manifest["format_version"] = 1
                del manifest["payload_codec"]

            edit_manifest(indexes / name, to_v1)
        cold = Engine().join(indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER)
        warm = Engine().join(indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER)
        assert rows_of(cold) == rows_of(warm) == rows_of(expected)
        assert counters_of(warm.stats) == counters_of(expected.stats)
        # A read never upgrades an index, not even one that wrote payloads.
        for name in ("r_idx", "s_idx"):
            manifest = json.loads((indexes / name / "manifest.json").read_text())
            assert manifest["approximations"] and "geometry_columns" not in manifest
            assert not (indexes / name / "geometries.bin").exists()

    def test_registering_a_payload_keeps_the_columns_entry(self, indexes):
        before = json.loads((indexes / "r_idx" / "manifest.json").read_text())
        Engine().join(indexes / "r_idx", indexes / "s_idx", grid_order=GRID_ORDER)
        after = json.loads((indexes / "r_idx" / "manifest.json").read_text())
        assert after["approximations"] and not before["approximations"]
        assert after["geometry_columns"] == before["geometry_columns"]
        assert after["format_version"] == 2
        assert isinstance(open_dataset(indexes / "r_idx").geometries, LazyGeometries)

    def test_rebuilding_an_index_gives_it_the_columns(self, sources, indexes):
        strip_columns(indexes / "s_idx")
        build_dataset(sources / "s.geojson", indexes / "s_idx", grid_order=None)
        assert isinstance(open_dataset(indexes / "s_idx").geometries, LazyGeometries)


def test_build_index_reports_both_geometry_files(sources, tmp_path, capsys):
    from repro.__main__ import main

    assert main(["build-index", str(sources / "s.geojson"), "--index", str(tmp_path / "idx"),
                 "--no-approximate"]) == 0
    err = capsys.readouterr().err
    wkt = (tmp_path / "idx" / "geometries.wkt").stat().st_size
    binary = (tmp_path / "idx" / "geometries.bin").stat().st_size
    assert f"geometries.wkt {wkt:,} B" in err and f"geometries.bin {binary:,} B" in err
