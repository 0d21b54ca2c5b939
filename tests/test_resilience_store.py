"""Crash-safe store, index repair, and input quarantine tests."""

import json
import multiprocessing
import time

import pytest

from repro.datasets import load_scenario
from repro.datasets.geojson import GeoJsonError, load_geojson
from repro.datasets.io import load_wkt_file, save_wkt_file
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.raster.april import build_april
from repro.raster.storage import StoreError, load_approximations, save_approximations
from repro.resilience import QuarantineReport, failpoints
from repro.resilience.atomic import atomic_write_text, atomic_writer
from repro.store import Engine, build_dataset, open_dataset
from repro.store.dataset import SpatialDataset


@pytest.fixture(autouse=True)
def clean_failpoints():
    failpoints.disarm_all()
    yield
    failpoints.disarm_all()


@pytest.fixture
def metrics():
    set_metrics(True)
    reset_metrics()
    yield
    set_metrics(False)
    reset_metrics()


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


@pytest.fixture(scope="module")
def polygons(scenario):
    return [obj.polygon for obj in scenario.r_objects]


def counter(name_with_labels):
    return get_registry().counter_values().get(name_with_labels, 0)


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
class TestAtomicWriter:
    def test_replaces_content_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "data.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]

    def test_error_leaves_destination_untouched(self, tmp_path):
        target = tmp_path / "data.txt"
        atomic_write_text(target, "original")
        with pytest.raises(RuntimeError):
            with atomic_writer(target, "w") as fh:
                fh.write("partial")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "original"
        assert list(tmp_path.iterdir()) == [target]


# ----------------------------------------------------------------------
# payload persistence under corruption
# ----------------------------------------------------------------------
class TestPayloadCorruption:
    def test_torn_write_failpoint_detected_on_load(self, tmp_path, polygons, scenario):
        aprils = [build_april(p, scenario.grid) for p in polygons[:4]]
        payload = tmp_path / "a.npz"
        with failpoints.inject({"store.torn_write": "always"}):
            save_approximations(payload, aprils)
        with pytest.raises(StoreError, match="corrupt"):
            load_approximations(payload, expected_grid=scenario.grid)
        assert (
            load_approximations(payload, expected_grid=scenario.grid, on_error="rebuild")
            is None
        )

    def test_truncated_and_garbage_files_raise_store_error(self, tmp_path):
        payload = tmp_path / "a.npz"
        for content in (b"", b"PK\x03\x04 torn", b"not an archive at all"):
            payload.write_bytes(content)
            with pytest.raises(StoreError):
                load_approximations(payload)

    def test_invalid_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            load_approximations(tmp_path / "a.npz", on_error="explode")

    def test_save_is_atomic(self, tmp_path, polygons, scenario):
        aprils = [build_april(p, scenario.grid) for p in polygons[:4]]
        payload = tmp_path / "a.npz"
        save_approximations(payload, aprils)
        back = load_approximations(payload, expected_grid=scenario.grid)
        assert len(back) == 4
        assert not list(tmp_path.glob("*.tmp.*"))


class TestDatasetPayloadRebuild:
    def test_torn_payload_rebuilt_with_counter(
        self, tmp_path, polygons, scenario, metrics
    ):
        source = tmp_path / "src.wkt"
        save_wkt_file(source, polygons)
        dataset = build_dataset(source, tmp_path / "idx", grid_order=None)
        grid = dataset.grid(10)
        with failpoints.inject({"store.torn_write": "always"}):
            dataset.approximations(grid)  # persists a torn payload
        aprils = dataset.approximations(grid)  # detects + rebuilds
        assert len(aprils) == len(polygons)
        expected = [build_april(p, grid) for p in polygons]
        assert (aprils[0].p.starts == expected[0].p.starts).all()
        assert counter('repro_resilience_rebuild_total{artifact="april_payload"}') >= 1
        # The rebuilt payload is good: a fresh load is a clean cache hit.
        reloaded = dataset.approximations(grid)
        assert len(reloaded) == len(polygons)

    def test_on_error_raise_surfaces_torn_payload(self, tmp_path, polygons, scenario):
        source = tmp_path / "src.wkt"
        save_wkt_file(source, polygons)
        dataset = build_dataset(source, tmp_path / "idx", grid_order=None)
        grid = dataset.grid(10)
        with failpoints.inject({"store.torn_write": "always"}):
            dataset.approximations(grid)
        with pytest.raises(StoreError):
            dataset.approximations(grid, on_error="raise")


# ----------------------------------------------------------------------
# index repair (open_dataset on_error="rebuild")
# ----------------------------------------------------------------------
class TestIndexRepair:
    @pytest.fixture
    def index(self, tmp_path, polygons):
        source = tmp_path / "src.wkt"
        save_wkt_file(source, polygons)
        build_dataset(source, tmp_path / "idx", grid_order=None)
        return tmp_path / "idx", source

    def test_corrupt_manifest_raises_by_default(self, index):
        index_dir, _ = index
        (index_dir / "manifest.json").write_text("{ not json")
        with pytest.raises(StoreError, match="corrupt manifest"):
            open_dataset(index_dir)

    def test_rebuild_from_source(self, index, polygons, metrics):
        index_dir, source = index
        (index_dir / "manifest.json").write_text("{ not json")
        dataset = open_dataset(index_dir, source=source, on_error="rebuild")
        assert len(dataset) == len(polygons)
        assert counter('repro_resilience_rebuild_total{artifact="dataset_index"}') == 1
        # Repaired in place: a strict open now succeeds.
        assert len(open_dataset(index_dir, source=source)) == len(polygons)

    def test_rebuild_from_geometry_dump_without_source(self, index, polygons, metrics):
        index_dir, _ = index
        (index_dir / "manifest.json").unlink()
        dataset = open_dataset(index_dir, on_error="rebuild")
        assert len(dataset) == len(polygons)
        assert len(open_dataset(index_dir)) == len(polygons)

    def test_stale_source_fingerprint_triggers_rebuild(self, index, polygons, metrics):
        index_dir, source = index
        with source.open("a") as fh:
            fh.write("# mutated after indexing\n")
        with pytest.raises(StoreError, match="stale index"):
            open_dataset(index_dir, source=source)
        dataset = open_dataset(index_dir, source=source, on_error="rebuild")
        assert len(dataset) == len(polygons)

    def test_unrecoverable_reraises_original_error(self, index):
        index_dir, _ = index
        (index_dir / "manifest.json").unlink()
        (index_dir / "geometries.wkt").unlink()
        with pytest.raises(StoreError):
            open_dataset(index_dir, on_error="rebuild")

    def test_invalid_on_error_rejected(self, index):
        index_dir, _ = index
        with pytest.raises(ValueError, match="on_error"):
            open_dataset(index_dir, on_error="panic")


# ----------------------------------------------------------------------
# input quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_strict_default_aborts_with_line_number(self, tmp_path, polygons):
        path = tmp_path / "bad.wkt"
        save_wkt_file(path, polygons[:3])
        lines = path.read_text().splitlines()
        lines.insert(1, "POLYGON((broken")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad.wkt:2"):
            load_wkt_file(path)

    def test_lenient_skips_and_reports(self, tmp_path, polygons):
        path = tmp_path / "bad.wkt"
        save_wkt_file(path, polygons[:3])
        lines = path.read_text().splitlines()
        lines.insert(1, "POLYGON((broken")
        path.write_text("\n".join(lines) + "\n")
        report = QuarantineReport()
        loaded = load_wkt_file(path, strict=False, report=report)
        assert len(loaded) == 3
        assert len(report) == 1
        assert report.rows[0].line_number == 2
        assert "broken" in report.rows[0].snippet
        assert "bad.wkt" in report.render()
        assert report.to_dict()["rows"][0]["line_number"] == 2

    def test_bad_row_failpoint_quarantines_injected_rows(self, tmp_path, polygons):
        # The site is keyed by line number, so prob picks a deterministic
        # subset of lines: seed 0 fires on lines 2 and 4 of four.
        path = tmp_path / "good.wkt"
        save_wkt_file(path, polygons[:4])
        report = QuarantineReport()
        with failpoints.inject({"io.bad_row": "prob:0.5"}, seed=0):
            loaded = load_wkt_file(path, strict=False, report=report)
        assert len(loaded) == 2
        assert [r.line_number for r in report.rows] == [2, 4]
        assert all("injected bad row" in r.reason for r in report.rows)

    def test_bad_row_failpoint_respects_strict_mode(self, tmp_path, polygons):
        path = tmp_path / "good.wkt"
        save_wkt_file(path, polygons[:2])
        with failpoints.inject({"io.bad_row": "nth:1"}):
            with pytest.raises(ValueError, match="good.wkt:1"):
                load_wkt_file(path)

    def test_quarantine_counter(self, tmp_path, polygons, metrics):
        path = tmp_path / "good.wkt"
        save_wkt_file(path, polygons[:4])
        with failpoints.inject({"io.bad_row": "prob:0.5"}, seed=0):
            load_wkt_file(path, strict=False)
        values = get_registry().counter_values()
        key = f'repro_resilience_quarantined_rows_total{{source="{path}"}}'
        assert values[key] == 2

    def test_geojson_lenient_mode(self):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]],
                    },
                    "properties": {},
                },
                {"type": "Feature", "geometry": {"type": "Banana"}, "properties": {}},
            ],
        }
        with pytest.raises(GeoJsonError):
            load_geojson(doc)
        report = QuarantineReport()
        features = load_geojson(doc, strict=False, report=report)
        assert len(features) == 1
        assert len(report) == 1
        assert report.rows[0].line_number == 2


# ----------------------------------------------------------------------
# acceptance: one engine run surviving the full failure schedule
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool needs the fork start method",
)
class TestEngineChaosAcceptance:
    def test_join_survives_torn_write_crash_and_hang(
        self, tmp_path, scenario, metrics
    ):
        r_polys = [obj.polygon for obj in scenario.r_objects]
        s_polys = [obj.polygon for obj in scenario.s_objects]
        save_wkt_file(tmp_path / "r.wkt", r_polys)
        save_wkt_file(tmp_path / "s.wkt", s_polys)
        build_dataset(tmp_path / "r.wkt", tmp_path / "r_idx", grid_order=None)
        build_dataset(tmp_path / "s.wkt", tmp_path / "s_idx", grid_order=None)

        # Ground truth: clean serial in-memory run — identical grid (the
        # WKT round-trip is float64-exact), zero store involvement.
        baseline = Engine().join(r_polys, s_polys, grid_order=10, workers=1)

        # Run 1 is the first cold join against the indexes, so it builds
        # the APRIL payloads and persists them — *torn* — into both.
        with failpoints.inject({"store.torn_write": "always"}):
            torn = Engine().join(
                tmp_path / "r_idx", tmp_path / "s_idx", grid_order=10, workers=1
            )
        assert [(l.r_index, l.s_index, l.relation) for l in torn.results] == [
            (l.r_index, l.s_index, l.relation) for l in baseline.results
        ]

        # Run 2 reads the torn payloads with workers crashing on their
        # first attempt and hanging on their second — and still returns
        # exactly the baseline links.
        failpoints.arm("worker.crash", "nth:1")
        failpoints.arm("worker.hang", "nth:2", hang_seconds=30.0)
        started = time.perf_counter()
        try:
            chaotic = Engine().join(
                tmp_path / "r_idx",
                tmp_path / "s_idx",
                grid_order=10,
                mode="parallel",
                workers=2,
                partition_timeout=0.5,
                max_retries=3,
            )
        finally:
            failpoints.disarm_all()
        # Bounded in time: the 0.5 s deadline reaches the APRIL rebuild
        # fan-out as well as the verification, so no 30 s hang is ever
        # waited out. (Every partition of three fan-outs hangs once and
        # a deadline runs from the moment a worker takes the attempt, so
        # the schedule costs 3 x 8 x 0.5 s over two workers.)
        assert time.perf_counter() - started < 60

        assert [(l.r_index, l.s_index, l.relation) for l in chaotic.results] == [
            (l.r_index, l.s_index, l.relation) for l in baseline.results
        ]
        values = get_registry().counter_values()
        rebuilds = sum(v for k, v in values.items() if "rebuild_total" in k)
        retries = sum(v for k, v in values.items() if "retry_total" in k)
        assert rebuilds >= 2  # both torn payloads detected and rebuilt
        assert retries >= 1
        # The repaired payloads persisted: a fresh engine joins warm and
        # byte-identical with zero recovery actions.
        reset_metrics()
        warm = Engine().join(
            tmp_path / "r_idx", tmp_path / "s_idx", grid_order=10, workers=1
        )
        assert [(l.r_index, l.s_index, l.relation) for l in warm.results] == [
            (l.r_index, l.s_index, l.relation) for l in baseline.results
        ]
        values = get_registry().counter_values()
        assert not any("rebuild_total" in k for k in values)


class TestEngineQuarantineMeta:
    @pytest.fixture
    def mangled_inputs(self, tmp_path, scenario):
        r_path, s_path = tmp_path / "r.wkt", tmp_path / "s.wkt"
        save_wkt_file(r_path, [obj.polygon for obj in scenario.r_objects])
        save_wkt_file(s_path, [obj.polygon for obj in scenario.s_objects])
        lines = r_path.read_text().splitlines()
        lines.insert(0, "POLYGON((mangled")
        r_path.write_text("\n".join(lines) + "\n")
        return r_path, s_path

    def test_strict_join_aborts_with_line_number(self, mangled_inputs):
        r_path, s_path = mangled_inputs
        with pytest.raises(ValueError, match="r.wkt:1"):
            Engine().join(r_path, s_path, grid_order=10)

    def test_lenient_join_reports_quarantined_rows(self, mangled_inputs, scenario):
        r_path, s_path = mangled_inputs
        run = Engine().join(r_path, s_path, grid_order=10, strict=False)
        quarantine = run.meta["quarantine"]
        assert len(quarantine) == 1
        assert quarantine[0]["source"].endswith("r.wkt")
        assert quarantine[0]["rows"][0]["line_number"] == 1
        assert len(run.results) > 0
        # The healthy rows all survived the lenient load.
        assert run.meta["r_count"] == len(scenario.r_objects)


class TestSpatialDatasetOpenSignature:
    def test_open_still_validates_content_hash(self, tmp_path, polygons):
        dataset = SpatialDataset(polygons[:3], name="t").save(tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        manifest["content_hash"] = "0" * 64
        (tmp_path / "idx" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="content hash"):
            SpatialDataset.open(tmp_path / "idx")
