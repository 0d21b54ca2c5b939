"""Minimal Well-Known Text reader/writer.

Supports ``POLYGON`` and ``MULTIPOLYGON`` (each part returned as a
separate :class:`~repro.geometry.polygon.Polygon`), which is all the
TIGER/OSM-style workloads need. The parser is a small recursive-descent
tokenizer — strict enough to reject malformed input with a useful error,
liberal about whitespace. A coordinate must be finite: ``1e999`` parses
to infinity and is rejected.

Files of polygons are read by a vectorised reader
(:func:`repro.datasets.io.read_wkt_columns`); this parser is its
specification and the path every row it cannot vouch for takes.
"""

from __future__ import annotations

import math

from repro.geometry.polygon import Polygon
from repro.geometry.ring import Coord


class WktError(ValueError):
    """Raised for malformed WKT input."""


def dumps_wkt(geometry, precision: int = 9) -> str:
    """Serialise a Polygon or MultiPolygon."""
    from repro.geometry.multipolygon import MultiPolygon

    if isinstance(geometry, MultiPolygon):
        bodies = ", ".join(
            f"({_polygon_body(part, precision)})" for part in geometry.parts
        )
        return f"MULTIPOLYGON ({bodies})"
    return f"POLYGON ({_polygon_body(geometry, precision)})"


def _polygon_body(polygon: Polygon, precision: int) -> str:
    parts = [_ring_wkt(list(polygon.shell.coords), precision)]
    parts.extend(_ring_wkt(list(h.coords), precision) for h in polygon.holes)
    return ", ".join(parts)


def _ring_wkt(coords: list[Coord], precision: int) -> str:
    closed = coords + [coords[0]]
    body = ", ".join(f"{x:.{precision}g} {y:.{precision}g}" for x, y in closed)
    return f"({body})"


def loads_wkt(text: str) -> list[Polygon]:
    """Parse a WKT string into a list of polygons.

    ``POLYGON`` yields one polygon; ``MULTIPOLYGON`` yields one per part.
    """
    parser = _Parser(text)
    geom_type = parser.take_word()
    if geom_type == "POLYGON":
        polys = [parser.parse_polygon_body()]
    elif geom_type == "MULTIPOLYGON":
        polys = parser.parse_multipolygon_body()
    else:
        raise WktError(f"unsupported WKT type: {geom_type!r}")
    parser.expect_end()
    return polys


def loads_wkt_geometry(text: str):
    """Parse WKT into a single geometry object.

    ``POLYGON`` returns a :class:`Polygon`; ``MULTIPOLYGON`` returns a
    :class:`~repro.geometry.multipolygon.MultiPolygon` (even for one
    part, preserving the declared type).
    """
    from repro.geometry.multipolygon import MultiPolygon

    parser = _Parser(text)
    geom_type = parser.take_word()
    if geom_type == "POLYGON":
        geometry = parser.parse_polygon_body()
    elif geom_type == "MULTIPOLYGON":
        geometry = MultiPolygon(parser.parse_multipolygon_body())
    else:
        raise WktError(f"unsupported WKT type: {geom_type!r}")
    parser.expect_end()
    return geometry


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take_word(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            raise WktError(f"expected a word at position {start}")
        return self.text[start : self.pos].upper()

    def take(self, char: str) -> None:
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            found = self.text[self.pos] if self.pos < len(self.text) else "<end>"
            raise WktError(f"expected {char!r} at position {self.pos}, found {found!r}")
        self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_number(self) -> float:
        self._skip_ws()
        start = self.pos
        allowed = "+-.eE0123456789"
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            self.pos += 1
        if start == self.pos:
            raise WktError(f"expected a number at position {start}")
        token = self.text[start : self.pos]
        try:
            value = float(token)
        except ValueError as exc:
            raise WktError(f"bad number {token!r}") from exc
        if not math.isfinite(value):  # 1e999 overflows to inf
            raise WktError(f"non-finite coordinate {token!r} at position {start}")
        return value

    def expect_end(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            raise WktError(f"trailing input at position {self.pos}")

    def parse_ring(self) -> list[Coord]:
        self.take("(")
        coords = [self._parse_coord()]
        while self.peek() == ",":
            self.take(",")
            coords.append(self._parse_coord())
        self.take(")")
        return coords

    def _parse_coord(self) -> Coord:
        x = self.take_number()
        y = self.take_number()
        return (x, y)

    def parse_polygon_body(self) -> Polygon:
        self.take("(")
        shell = self.parse_ring()
        holes = []
        while self.peek() == ",":
            self.take(",")
            holes.append(self.parse_ring())
        self.take(")")
        return Polygon(shell, holes)

    def parse_multipolygon_body(self) -> list[Polygon]:
        self.take("(")
        polys = [self.parse_polygon_body()]
        while self.peek() == ",":
            self.take(",")
            polys.append(self.parse_polygon_body())
        self.take(")")
        return polys
