"""The per-row WKT file loader.

Until the vectorised reader (:func:`repro.datasets.io.read_wkt_columns`)
this was the body of :func:`repro.datasets.io.load_wkt_file`: one
``loads_wkt`` call — tokenizer, ``Ring`` and ``Polygon`` constructors —
per data row. The reader must return exactly its geometries, raise its
strict-mode errors and fill its quarantine reports.
"""

from __future__ import annotations

from pathlib import Path

from repro.geometry.polygon import Polygon
from repro.geometry.wkt import loads_wkt
from repro.resilience.failpoints import FailpointError, should_fire
from repro.resilience.quarantine import QuarantineReport


def load_wkt_file(
    path: str | Path,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> list[Polygon]:
    path = Path(path)
    if report is None:
        report = QuarantineReport(source=str(path))
    elif not report.source:
        report.source = str(path)
    polygons: list[Polygon] = []
    with path.open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if should_fire("io.bad_row", key=line_number):
                    raise FailpointError("injected bad row (io.bad_row)")
                polygons.extend(loads_wkt(line))
            except ValueError as exc:
                if strict:
                    raise ValueError(f"{path}:{line_number}: {exc}") from exc
                report.record(line_number, str(exc), line)
    return polygons
