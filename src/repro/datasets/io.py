"""Dataset persistence: one WKT polygon per line.

A deliberately simple interchange format so generated datasets can be
saved, inspected with any GIS tool, and reloaded byte-identically.
Blank lines and ``#`` comments are ignored on load.

Loads are strict by default — one malformed row aborts with its line
number, as real pipelines should fail loudly on fabricated data. With
``strict=False`` bad rows are skipped into a
:class:`~repro.resilience.quarantine.QuarantineReport` instead, so one
mangled row in a million-row dump costs one row, not the load.

A file is read straight into columns (:func:`read_wkt_columns`): one
regex match per row checks the grammar, one numpy pass converts every
coordinate of the file, and ring clean-up and orientation run on whole
arrays. No ``Polygon`` is built; a join builds one only for a pair that
reaches refinement. The scalar parser of :mod:`repro.geometry.wkt` is
the specification: a row the fast path cannot vouch for is re-parsed by
it, which raises that row's error (or, for the odd valid row outside the
fast grammar, returns its polygons).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.geometry.columns import GeometryColumns
from repro.geometry.polygon import Polygon
from repro.geometry.ring import Ring
from repro.geometry.wkt import dumps_wkt, loads_wkt
from repro.resilience.failpoints import FailpointError, should_fire
from repro.resilience.quarantine import QuarantineReport
from repro.store.columns import LazyGeometries


def save_wkt_file(path: str | Path, polygons: Iterable[Polygon], precision: int = 12) -> int:
    """Write polygons to ``path`` (one WKT per line); returns the count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for polygon in polygons:
            fh.write(dumps_wkt(polygon, precision=precision))
            fh.write("\n")
            count += 1
    return count


def load_wkt_file(
    path: str | Path,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> list[Polygon]:
    """Read polygons from a WKT-per-line file written by :func:`save_wkt_file`.

    ``POLYGON`` yields one polygon; ``MULTIPOLYGON`` one per part.
    ``strict=True`` (the default) aborts on the first malformed row with
    a ``ValueError`` carrying ``path:line_number``. With ``strict=False``
    malformed rows are skipped and recorded in ``report`` (one is
    created, and discarded, when the caller passes none — pass your own
    to inspect what was dropped). The ``io.bad_row`` failpoint makes a
    healthy row present as malformed, for chaos-testing the quarantine
    path without fabricating broken fixtures.
    """
    return list(LazyGeometries(read_wkt_columns(path, strict=strict, report=report)))


def read_wkt_columns(
    path: str | Path,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> GeometryColumns:
    """The polygons of a WKT-per-line file as columns, in file order.

    Exactly what ``GeometryColumns.from_geometries(load_wkt_file(...))``
    would hold — each ``MULTIPOLYGON`` part its own geometry — with the
    same strict/lenient contract, reports and ``io.bad_row`` failpoint
    (evaluated once per data row, keyed by its line number).
    """
    path = Path(path)
    if report is None:
        report = QuarantineReport(source=str(path))
    elif not report.source:
        report.source = str(path)
    rows = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append((line_number, line))
    fast = [k for k, (_, text) in enumerate(rows) if text.isascii() and _ROW.fullmatch(text)]
    while True:  # each pass drops the rows the previous one found bad
        columns, parts, bad = _read_rows([rows[k][1] for k in fast])
        if not bad.any():
            break
        fast = [k for k, rejected in zip(fast, bad.tolist()) if not rejected]
    ends = np.cumsum(parts).tolist()
    read = {k: range(end - n, end) for k, end, n in zip(fast, ends, parts.tolist())}

    order: list = []  # per kept row, its geometries in columns + extra
    extra: list = []
    for k, (line_number, text) in enumerate(rows):
        try:
            if should_fire("io.bad_row", key=line_number):
                raise FailpointError("injected bad row (io.bad_row)")
            if k in read:
                order.append(read[k])
            else:
                polygons = loads_wkt(text)  # raises this row's error
                start = len(columns) + len(extra)
                order.append(range(start, start + len(polygons)))
                extra += polygons
        except ValueError as exc:
            if strict:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
            report.record(line_number, str(exc), text)
    taken = [g for kept in order for g in kept]
    if not extra and len(taken) == len(columns):
        return columns
    # A healthy row was failpointed away, or a row outside the fast
    # grammar parsed: rare, so rebuild the columns from polygons.
    geometries = list(LazyGeometries(columns)) + extra
    return GeometryColumns.from_geometries(geometries[g] for g in taken)


# ----------------------------------------------------------------------
# the fast path
# ----------------------------------------------------------------------
# The grammar the scalar parser accepts, restricted to ASCII and to the
# whitespace bytes.split() splits on. A number is any run of the scalar
# tokenizer's characters (float() judges it), so a match's number tokens
# are exactly the ones the scalar parser would read.
_WS = r"[ \t\n\r\x0b\x0c]"
_NUMBER = r"[-+.eE0-9]+"


def _list_of(item: str) -> str:
    return rf"\({_WS}*{item}(?:{_WS}*,{_WS}*{item})*{_WS}*\)"


def _tag(word: str) -> str:
    """``word`` in any case (re.IGNORECASE makes every match ~2x slower)."""
    return "".join(f"[{c}{c.lower()}]" for c in word)


_POLYGON_BODY = _list_of(_list_of(f"{_NUMBER}{_WS}+{_NUMBER}"))
_ROW = re.compile(
    rf"{_tag('POLYGON')}{_WS}*{_POLYGON_BODY}"
    rf"|{_tag('MULTIPOLYGON')}{_WS}*{_list_of(_POLYGON_BODY)}"
)
#: Parens and commas become separators and tag letters go (none is a
#: number character), leaving the number tokens.
_TO_NUMBERS = (bytes.maketrans(b"(),", b"   "), b"POLYGNMUTIpolygnmuti")
_OPEN, _CLOSE, _COMMA, _NEWLINE = b"(),\n"


def _read_rows(rows: list[str]) -> tuple[GeometryColumns | None, np.ndarray, np.ndarray]:
    """Rows that match :data:`_ROW` as columns, one geometry per polygon.

    Returns ``(columns, parts, bad)``: ``parts[k]`` is row ``k``'s
    polygon count, and ``bad`` flags the rows the scalar parser would
    reject — a bad number, a non-finite one, a ring of fewer than three
    distinct vertices. While any row is bad the columns are not built.
    """
    if not rows:
        return GeometryColumns.from_geometries([]), np.zeros(0, int), np.zeros(0, bool)
    data = "\n".join(rows).encode("ascii")
    rings, ring_part, part_row = _structure(data, [row[0] in "Mm" for row in rows])
    vertex_row = np.repeat(part_row[ring_part], rings)
    bad = np.zeros(len(rows), dtype=bool)
    tokens = data.translate(*_TO_NUMBERS).split()
    try:
        xy = np.array(tokens, dtype=np.float64).reshape(-1, 2)
    except ValueError:  # some token is not a number: find its rows
        xy = np.zeros((len(vertex_row), 2))
        bounds = np.searchsorted(vertex_row, np.arange(len(rows) + 1)) * 2
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            try:
                xy[a // 2 : b // 2] = np.array(tokens[a:b], dtype=np.float64).reshape(-1, 2)
            except ValueError:
                bad[k] = True
    bad[vertex_row[~np.isfinite(xy).all(axis=1)]] = True
    xy, rings, short = _clean_rings(xy, rings)
    bad[part_row[ring_part[short]]] = True
    parts = np.bincount(part_row, minlength=len(rows))
    if bad.any():
        return None, parts, bad
    shells = np.diff(ring_part, prepend=-1) != 0  # the first ring of each part
    coords = _orient(xy, rings, shells)
    return GeometryColumns(
        coords=coords,
        ring_offsets=np.append(0, np.cumsum(rings)),
        part_offsets=np.append(np.flatnonzero(shells), len(rings)),
        geom_offsets=np.arange(len(part_row) + 1),
        boxes=_shell_boxes(coords, rings, shells),
        multi=np.zeros(len(part_row), dtype=np.uint8),
    ), parts, bad


def _structure(data: bytes, multi: list[bool]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vertices per ring, part of each ring, row of each part)`` of
    the newline-joined rows ``data``, from its parens and commas alone.

    A ``POLYGON`` row counts as a ``MULTIPOLYGON`` of one part, one
    paren deeper: then a part opens at depth 2, a ring at depth 3, and
    the commas at depth 3 separate a ring's vertices.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    marks = buf[(buf == _OPEN) | (buf == _CLOSE) | (buf == _COMMA) | (buf == _NEWLINE)]
    opens = marks == _OPEN
    row = np.cumsum(marks == _NEWLINE)
    depth = np.cumsum(opens) - np.cumsum(marks == _CLOSE) + ~np.array(multi, bool)[row]
    part_open = opens & (depth == 2)
    ring_open = opens & (depth == 3)
    ring_close = (marks == _CLOSE) & (depth == 2)
    separators = np.cumsum((marks == _COMMA) & (depth == 3))
    rings = separators[ring_close] - separators[ring_open] + 1
    ring_part = np.cumsum(part_open)[ring_open] - 1
    return rings, ring_part, row[part_open]


def _clean_rings(xy: np.ndarray, rings: np.ndarray):
    """``Ring.__init__`` on every ring at once: drop an explicit closing
    vertex, then every vertex equal to its predecessor, then a closing
    vertex the dedupe exposed. Returns the kept vertices, the new ring
    lengths and which rings the scalar constructor would reject."""
    start = np.cumsum(rings) - rings
    keep = np.ones(len(xy), dtype=bool)
    closed = (rings >= 2) & (xy[start] == xy[start + rings - 1]).all(axis=1)
    keep[(start + rings - 1)[closed]] = False
    short = rings - closed < 3
    repeat = np.zeros(len(xy), dtype=bool)
    repeat[1:] = (xy[1:] == xy[:-1]).all(axis=1)
    repeat[start] = False
    keep &= ~repeat
    xy = xy[keep]
    rings = np.bincount(np.repeat(np.arange(len(rings)), rings)[keep], minlength=len(rings))
    start = np.cumsum(rings) - rings
    reclosed = (rings >= 2) & (xy[start] == xy[start + rings - 1]).all(axis=1)
    keep = np.ones(len(xy), dtype=bool)
    keep[(start + rings - 1)[reclosed]] = False
    rings = rings - reclosed
    return xy[keep], rings, short | (rings < 3)


def _orient(xy: np.ndarray, rings: np.ndarray, shells: np.ndarray) -> np.ndarray:
    """The vertices with shells counter-clockwise and holes clockwise,
    each ring decided exactly as ``Ring.signed_area > 0`` decides it.

    The shoelace terms are the scalar code's expressions and a
    ``bincount`` sums them per ring. Whatever order a sum runs in, it
    is within ``n * 2**-53 * sum(|terms|)`` of the exact one, so a ring
    whose sum is further than that from zero has the scalar sign; one
    that is not — or that overflowed, or whose halved area could round
    to zero — is re-decided by the scalar code.
    """
    n = len(xy)
    ring = np.repeat(np.arange(len(rings)), rings)
    start = np.cumsum(rings) - rings
    k = np.arange(n)
    fan = np.flatnonzero((k > start[ring]) & (k < start[ring] + rings[ring] - 1))
    x, y = xy[:, 0], xy[:, 1]
    x0, y0 = x[start[ring[fan]]], y[start[ring[fan]]]
    with np.errstate(all="ignore"):  # huge coordinates overflow: undecided
        terms = (x[fan] - x0) * (y[fan + 1] - y0) - (x[fan + 1] - x0) * (y[fan] - y0)
        total = np.bincount(ring[fan], weights=terms, minlength=len(rings))
        bound = np.bincount(ring[fan], weights=np.abs(terms), minlength=len(rings))
        decided = np.abs(total) > np.maximum(bound * rings * 2.0**-50, 2.0**-1000)
    ccw = total > 0
    for r in np.flatnonzero(~decided).tolist():
        ring_coords = list(map(tuple, xy[start[r] : start[r] + rings[r]].tolist()))
        ccw[r] = Ring.from_normalised(ring_coords).is_ccw
    flip = np.repeat(ccw != shells, rings)
    return xy[np.where(flip, 2 * start[ring] + rings[ring] - 1 - k, k)]


def _shell_boxes(coords: np.ndarray, rings: np.ndarray, shells: np.ndarray) -> np.ndarray:
    """Each part's MBR as ``Box.from_points`` takes it from the shell:
    of the vertices tied at an extreme (0.0 and -0.0) the first wins,
    whichever a numpy reduction would return."""
    lengths = rings[shells]
    first = np.cumsum(lengths) - lengths
    on_shell = coords[np.repeat(shells, rings)]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    index = np.arange(len(on_shell))
    box = np.empty((len(lengths), 4))
    for column, (axis, extreme) in enumerate(
        ((0, np.minimum), (1, np.minimum), (0, np.maximum), (1, np.maximum))
    ):
        values = on_shell[:, axis]
        tied = values == extreme.reduceat(values, first)[owner]
        box[:, column] = values[np.minimum.reduceat(np.where(tied, index, len(index)), first)]
    return box


__all__ = ["load_wkt_file", "read_wkt_columns", "save_wkt_file"]
