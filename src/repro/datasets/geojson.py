"""GeoJSON interchange (RFC 7946 subset).

Reads and writes FeatureCollections of Polygon and MultiPolygon
geometries — the lingua franca for getting real data in and out of the
library. Properties are preserved per feature. A Point or LineString
feature is read and checked like any other (a non-finite coordinate
makes it malformed) but kept only as plain coordinate tuples, which
the datasets built from a file drop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.geometry.multipolygon import MultiPolygon
from repro.geometry.polygon import Polygon


class GeoJsonError(ValueError):
    """Raised for malformed or unsupported GeoJSON."""


@dataclass
class Feature:
    """One GeoJSON feature: a geometry plus free-form properties."""

    geometry: Any
    properties: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def geometry_from_geojson(obj: dict) -> Any:
    """Convert one GeoJSON geometry object."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise GeoJsonError("geometry must be an object with a 'type'")
    gtype = obj["type"]
    coords = obj.get("coordinates")
    if coords is None:
        raise GeoJsonError(f"{gtype} geometry lacks coordinates")
    try:
        if gtype == "Point":
            return _point(coords[0], coords[1])
        if gtype == "LineString":
            return tuple(_point(x, y) for x, y in coords)
        if gtype == "Polygon":
            return _polygon_from_rings(coords)
        if gtype == "MultiPolygon":
            return MultiPolygon([_polygon_from_rings(rings) for rings in coords])
    except (TypeError, ValueError) as exc:
        raise GeoJsonError(f"bad {gtype} coordinates: {exc}") from exc
    raise GeoJsonError(f"unsupported geometry type {gtype!r}")


def _polygon_from_rings(rings) -> Polygon:
    if not rings:
        raise GeoJsonError("polygon needs at least a shell ring")
    shell = [_point(x, y) for x, y in rings[0]]
    holes = [[_point(x, y) for x, y in ring] for ring in rings[1:]]
    return Polygon(shell, holes)


def _point(x, y) -> tuple[float, float]:
    """One coordinate pair; ``json.loads`` reads ``NaN``, ``Infinity``
    and an overflowing literal such as ``1e999`` as non-finite floats,
    which no geometry can hold."""
    point = (float(x), float(y))
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        raise ValueError(f"non-finite coordinate [{x!r}, {y!r}]")
    return point


def load_geojson(
    source: str | Path | dict,
    strict: bool = True,
    report=None,
) -> list[Feature]:
    """Read a FeatureCollection / Feature / bare geometry.

    ``source`` may be a path, a JSON string, or an already-parsed dict.
    ``strict=True`` (the default) aborts on the first malformed feature,
    naming its 1-based index; with ``strict=False`` bad
    FeatureCollection entries are skipped into ``report`` (a
    :class:`~repro.resilience.quarantine.QuarantineReport`), recorded by
    that index. A document that is not valid JSON at all still raises —
    there is no row to salvage.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text(encoding="utf-8") if _looks_like_path(source) else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GeoJsonError(f"invalid JSON: {exc}") from exc

    dtype = doc.get("type")
    if dtype == "FeatureCollection":
        entries = doc.get("features", [])
        if report is None and not strict:
            from repro.resilience.quarantine import QuarantineReport

            report = QuarantineReport(
                source=str(source)
                if not isinstance(source, dict) and _looks_like_path(source)
                else "<geojson>"
            )
        features = []
        for number, obj in enumerate(entries, start=1):
            try:
                features.append(_feature_from(obj))
            except GeoJsonError as exc:
                if strict:
                    raise GeoJsonError(f"feature {number}: {exc}") from exc
                report.record(number, str(exc), json.dumps(obj, default=str))
        return features
    if dtype == "Feature":
        return [_feature_from(doc)]
    return [Feature(geometry=geometry_from_geojson(doc))]


def _looks_like_path(source) -> bool:
    if isinstance(source, Path):
        return True
    text = str(source).lstrip()
    return not text.startswith("{")


def _feature_from(obj: dict) -> Feature:
    if obj.get("type") != "Feature":
        raise GeoJsonError("FeatureCollection entries must be Features")
    geometry = geometry_from_geojson(obj.get("geometry") or {})
    return Feature(geometry=geometry, properties=dict(obj.get("properties") or {}))


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def geometry_to_geojson(geometry) -> dict:
    """Convert a library geometry to a GeoJSON geometry object."""
    if isinstance(geometry, MultiPolygon):
        return {
            "type": "MultiPolygon",
            "coordinates": [_polygon_rings(part) for part in geometry.parts],
        }
    if isinstance(geometry, Polygon):
        return {"type": "Polygon", "coordinates": _polygon_rings(geometry)}
    raise GeoJsonError(f"unsupported geometry {type(geometry).__name__}")


def _polygon_rings(polygon: Polygon) -> list:
    rings = []
    for ring in polygon.rings():
        closed = list(ring.coords) + [ring.coords[0]]
        rings.append([[x, y] for x, y in closed])
    return rings


def save_geojson(
    path: str | Path,
    features: Iterable[Feature | Any],
    indent: int | None = None,
) -> int:
    """Write features (or bare geometries) as a FeatureCollection."""
    out = []
    for item in features:
        if isinstance(item, Feature):
            out.append(
                {
                    "type": "Feature",
                    "geometry": geometry_to_geojson(item.geometry),
                    "properties": item.properties,
                }
            )
        else:
            out.append(
                {"type": "Feature", "geometry": geometry_to_geojson(item), "properties": {}}
            )
    doc = {"type": "FeatureCollection", "features": out}
    Path(path).write_text(json.dumps(doc, indent=indent), encoding="utf-8")
    return len(out)


__all__ = [
    "Feature",
    "GeoJsonError",
    "geometry_from_geojson",
    "geometry_to_geojson",
    "load_geojson",
    "save_geojson",
]
