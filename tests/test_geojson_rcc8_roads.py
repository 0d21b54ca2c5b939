"""Tests for GeoJSON IO."""

import json

import numpy as np
import pytest

from repro.datasets.geojson import (
    Feature,
    GeoJsonError,
    geometry_from_geojson,
    geometry_to_geojson,
    load_geojson,
    save_geojson,
)
from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box, MultiPolygon, Polygon

DONUT = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)], [[(3, 3), (7, 3), (7, 7), (3, 7)]])


class TestGeoJson:
    def test_polygon_roundtrip(self):
        obj = geometry_to_geojson(DONUT)
        assert obj["type"] == "Polygon"
        assert len(obj["coordinates"]) == 2  # shell + hole
        back = geometry_from_geojson(obj)
        assert back == DONUT

    def test_multipolygon_roundtrip(self):
        multi = MultiPolygon([Polygon.box(0, 0, 2, 2), Polygon.box(5, 5, 7, 7)])
        back = geometry_from_geojson(geometry_to_geojson(multi))
        assert back == multi

    def test_lines_and_points_read_as_plain_tuples(self):
        line = {"type": "LineString", "coordinates": [[0, 0], [5, 5], [10, 0]]}
        assert geometry_from_geojson(line) == ((0.0, 0.0), (5.0, 5.0), (10.0, 0.0))
        assert geometry_from_geojson({"type": "Point", "coordinates": [3, 4]}) == (3.0, 4.0)

    @pytest.mark.parametrize("geometry", [((0.0, 0.0), (1.0, 1.0)), (3.0, 4.0)])
    def test_only_polygons_are_written(self, geometry):
        with pytest.raises(GeoJsonError, match="unsupported geometry tuple"):
            geometry_to_geojson(geometry)

    def test_feature_collection_file_roundtrip(self, tmp_path):
        path = tmp_path / "data.geojson"
        multi = MultiPolygon([Polygon.box(0, 0, 2, 2), Polygon.box(5, 5, 7, 7)])
        n = save_geojson(path, [Feature(DONUT, {"name": "donut"}), multi], indent=2)
        assert n == 2
        features = load_geojson(path)
        assert len(features) == 2
        assert features[0].geometry == DONUT
        assert features[0].properties == {"name": "donut"}
        assert features[1].geometry == multi
        assert features[1].properties == {}

    def test_load_bare_geometry_dict(self):
        features = load_geojson({"type": "Point", "coordinates": [1, 2]})
        assert features[0].geometry == (1.0, 2.0)

    def test_load_json_string(self):
        doc = json.dumps({"type": "Feature", "geometry": {"type": "Point", "coordinates": [1, 2]},
                          "properties": {"k": 1}})
        features = load_geojson(doc)
        assert features[0].properties == {"k": 1}

    @pytest.mark.parametrize(
        "bad",
        [
            {"type": "GeometryCollection", "geometries": []},
            {"type": "Polygon"},
            {"type": "Polygon", "coordinates": []},
            {"coordinates": [1, 2]},
        ],
    )
    def test_bad_geometry_rejected(self, bad):
        with pytest.raises(GeoJsonError):
            geometry_from_geojson(bad)

    def test_invalid_json_rejected(self):
        with pytest.raises(GeoJsonError):
            load_geojson("{not json")


#: ``json.loads`` reads each of these as a non-finite float.
NON_FINITE = ["1e999", "-1e999", "NaN", "Infinity"]
#: One feature of each kind, ``{v}`` standing for the bad coordinate.
BAD_GEOMETRIES = {
    "Point": '{{"type": "Point", "coordinates": [{v}, 1]}}',
    "LineString": '{{"type": "LineString", "coordinates": [[0, 0], [5, {v}]]}}',
    "Polygon": '{{"type": "Polygon", "coordinates": [[[0, 0], [40, 0], [40, {v}], [0, 0]]]}}',
}


def geojson_with(features, bad=None, at=2):
    """A FeatureCollection of ``features`` as text, with the raw
    geometry text ``bad`` spliced in as feature number ``at``."""
    rows = [
        json.dumps({"type": "Feature", "geometry": geometry_to_geojson(g), "properties": {}})
        for g in features
    ]
    if bad is not None:
        rows.insert(at - 1, f'{{"type": "Feature", "geometry": {bad}, "properties": {{}}}}')
    return '{"type": "FeatureCollection", "features": [' + ", ".join(rows) + "]}"


class TestNonFiniteCoordinates:
    """A coordinate that is not finite makes its feature malformed:
    strict loads name it, lenient loads quarantine it."""

    CLEAN = [Polygon.box(k * 30, 0, k * 30 + 20, 20) for k in range(4)]

    @pytest.mark.parametrize("literal", NON_FINITE)
    @pytest.mark.parametrize("kind", sorted(BAD_GEOMETRIES))
    def test_feature_is_malformed(self, kind, literal):
        from repro.resilience import QuarantineReport

        text = geojson_with(self.CLEAN, BAD_GEOMETRIES[kind].format(v=literal), at=3)
        with pytest.raises(GeoJsonError, match="feature 3: .*non-finite coordinate"):
            load_geojson(text)
        report = QuarantineReport()
        features = load_geojson(text, strict=False, report=report)
        assert [f.geometry for f in features] == self.CLEAN
        assert [row.line_number for row in report.rows] == [3]
        assert "non-finite coordinate" in report.rows[0].reason

    @pytest.fixture()
    def files(self, tmp_path):
        from repro.store import set_default_engine

        s = [Polygon.box(k * 30 + 10, 5, k * 30 + 35, 15) for k in range(4)]
        (tmp_path / "s.geojson").write_text(geojson_with(s))
        (tmp_path / "r.geojson").write_text(geojson_with(self.CLEAN))
        set_default_engine(None)
        yield tmp_path
        set_default_engine(None)

    @pytest.mark.parametrize("kind, literal", [
        ("Polygon", "1e999"), ("Polygon", "NaN"), ("Point", "Infinity"), ("LineString", "1e999"),
    ])
    def test_join_refuses_or_quarantines(self, files, capsys, kind, literal):
        from repro.__main__ import main

        bad = files / "bad.geojson"
        bad.write_text(geojson_with(self.CLEAN, BAD_GEOMETRIES[kind].format(v=literal)))
        args = [str(files / "s.geojson"), "--grid-order", "8"]
        assert main(["join", str(files / "r.geojson"), *args]) == 0
        clean = capsys.readouterr().out
        assert clean
        with pytest.raises(SystemExit) as refused:
            main(["join", str(bad), *args])
        assert f"{bad}: feature 2: " in str(refused.value.code)
        assert "non-finite coordinate" in str(refused.value.code)
        assert main(["join", str(bad), *args, "--quarantine"]) == 0
        quarantined = capsys.readouterr()
        assert "1 row(s) quarantined" in quarantined.err
        assert quarantined.out == clean

    @pytest.mark.parametrize("kind, literal", [("Polygon", "-1e999"), ("Point", "NaN")])
    def test_build_index_refuses_or_quarantines(self, files, capsys, kind, literal):
        from repro.__main__ import main
        from repro.store import open_dataset

        bad = files / "bad.geojson"
        bad.write_text(geojson_with(self.CLEAN, BAD_GEOMETRIES[kind].format(v=literal)))
        index = files / "idx"
        with pytest.raises(SystemExit) as refused:
            main(["build-index", str(bad), "--index", str(index), "--grid-order", "8"])
        assert f"{bad}: feature 2: " in str(refused.value.code)
        assert "non-finite coordinate" in str(refused.value.code)
        assert not index.exists()
        assert main(["build-index", str(bad), "--index", str(index), "--grid-order", "8",
                     "--quarantine"]) == 0
        assert "1 row(s) quarantined" in capsys.readouterr().err
        assert len(open_dataset(index)) == len(self.CLEAN)


class TestMixedFeatureFiles:
    """LineString and Point features are read, then left out of the
    dataset: a file that mixes them in joins like its polygons alone."""

    LINE = {"type": "LineString", "coordinates": [[0, 0], [150, 120], [200, 40]]}
    POINT = {"type": "Point", "coordinates": [60, 60]}

    def test_join_rows_equal_the_polygon_only_subset(self, tmp_path):
        from repro.store import Engine

        rng = np.random.default_rng(17)
        region = Box(0, 0, 200, 200)
        r = generate_blobs(rng, 12, region, (10, 40), (8, 30))
        s = generate_blobs(rng, 12, region, (10, 40), (8, 30))
        geometries = [geometry_to_geojson(g) for g in r]
        for at, other in ((0, self.LINE), (4, self.POINT), (8, self.LINE)):
            geometries.insert(at, other)
        features = [{"type": "Feature", "geometry": g, "properties": {}} for g in geometries]
        mixed = {"type": "FeatureCollection", "features": features}
        (tmp_path / "r_mixed.geojson").write_text(json.dumps(mixed))
        (tmp_path / "r.geojson").write_text(geojson_with(r))
        (tmp_path / "s.geojson").write_text(geojson_with(s))
        assert len(load_geojson(tmp_path / "r_mixed.geojson")) == len(r) + 3

        def rows(r_file):
            run = Engine().join(tmp_path / r_file, tmp_path / "s.geojson", grid_order=8)
            return [(x.r_index, x.s_index, x.relation, x.filtered) for x in run.results]

        expected = rows("r.geojson")
        assert len(expected) > 5
        assert rows("r_mixed.geojson") == expected
