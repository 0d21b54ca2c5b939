"""Bench-trajectory ingestion, trends, and noise-aware regression gates.

Seven ``BENCH_*.json`` files at the repo root encode the project's
performance trajectory — one JSON list per subsystem, one entry
appended per benchmark run — but until this module they were
write-only. Here they become data:

* :func:`append_entry` is the single writer every ``benchmarks/``
  suite records through; it stamps the common **envelope**
  (``schema_version``, UTC timestamp, git revision,
  :func:`machine_fingerprint`) so the trajectory is uniformly
  attributable. Pre-envelope entries stay readable — every
  reader treats the envelope as optional.
* :func:`load_trajectories` ingests every ``BENCH_*.json`` under a
  root directory.
* :func:`compute_trends` turns each (file, kind, context, metric)
  series into a :class:`Trend` — latest value, baseline, change — and
  flags regressions with a **noise-aware threshold**: latest vs the
  median of prior comparable entries, where "worse by more than
  ``max(noise_mads × MAD, rel_floor × |baseline|)``" flags. The MAD
  term adapts to each series' observed jitter; the relative floor
  stops a zero-variance history (one prior entry, or identical
  repeats) from flagging harmless wobble.

Entries are only compared within a **context group** — same scenario,
scale, grid order, worker count, cpu count… (:data:`CONTEXT_KEYS`) —
the same comparability rule the PR 3 overhead gate already applies,
because wall-clock from different machines or workloads is not one
series. Metric *direction* is classified by name
(:func:`metric_direction`): ``speedup``-like metrics regress downward,
``*_seconds``/``*_ratio``/``*_bytes`` regress upward, and calibration
yardsticks (``calib_seconds``, ``baseline_*``) are never gated.

Stdlib only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

__all__ = [
    "CONTEXT_KEYS",
    "SCHEMA_VERSION",
    "Trend",
    "append_entry",
    "check_regressions",
    "compute_trends",
    "format_regressions",
    "load_trajectories",
    "load_trajectory",
    "machine_fingerprint",
    "make_envelope",
    "metric_direction",
]

SCHEMA_VERSION = 1

#: Keys that define *which runs are comparable*, not how fast they ran.
#: Two entries compare only when every context key they carry matches.
CONTEXT_KEYS = (
    "scenario",
    "scale",
    "grid_order",
    "size_grid_order",
    "workers",
    "partitions",
    "cpu_count",
    "schedule",
)

#: Metrics where a *drop* is the regression.
_HIGHER_BETTER = frozenset(
    {"speedup", "size_ratio", "fine_size_ratio", "serial_vs_baseline"}
)

#: Numeric fields that are yardsticks or identifiers, never gated:
#: ``calib_seconds`` measures the machine, ``baseline_*`` are the
#: recorded reference points the gated ratios were computed against.
_NEVER_GATED = frozenset(
    {
        "calib_seconds",
        "baseline_ratio",
        "baseline_serial_seconds",
        # Opt-in measurement cost (sampling profiler + tracemalloc) is
        # recorded for the trajectory but never trend-gated: the user
        # asked for the measurement, and tracemalloc alone legitimately
        # multiplies allocation-heavy phases run-to-run.
        "enabled_overhead_pct",
        "enabled_seconds",
        "scale",
        "grid_order",
        "size_grid_order",
        "workers",
        "partitions",
        "cpu_count",
        "pairs",
        "polygons",
        "r_objects",
        "s_objects",
        "links",
        "schema_version",
    }
)

_LOWER_SUFFIXES = (
    "_seconds",
    "_us",
    "_ms",
    "_pct",
    "_ratio",
    "_bytes",
    "_bytes_total",
    "_bytes_per_object",
    "_per_object",
    "overhead",
)


def metric_direction(key: str) -> str | None:
    """``"lower"``/``"higher"`` (better) for gated metrics, else ``None``."""
    if key in _NEVER_GATED:
        return None
    if key in _HIGHER_BETTER:
        return "higher"
    if key == "ratio" or key.endswith(_LOWER_SUFFIXES):
        return "lower"
    return None


# ----------------------------------------------------------------------
# envelope + writer
# ----------------------------------------------------------------------
def _git_rev(cwd: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def machine_fingerprint() -> dict[str, Any]:
    """What makes wall-clock numbers comparable: core count, platform,
    interpreter version."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": sys.platform,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
    }


def make_envelope(cwd: str | Path | None = None) -> dict[str, Any]:
    """The provenance envelope stamped onto every new bench entry."""
    return {
        "schema_version": SCHEMA_VERSION,
        "recorded_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": _git_rev(Path(cwd) if cwd else Path.cwd()),
        "machine": machine_fingerprint(),
    }


def append_entry(path: str | Path, entry: dict[str, Any]) -> dict[str, Any]:
    """Append ``entry`` to the trajectory at ``path``, enveloped.

    The shared read-append-write previously copy-pasted across every
    ``benchmarks/test_bench_*.py``; returns the stamped entry.
    """
    path = Path(path)
    entry = dict(entry)
    entry.setdefault("envelope", make_envelope(cwd=path.parent))
    trajectory: list[dict[str, Any]] = []
    if path.exists():
        trajectory = json.loads(path.read_text())
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return entry


# ----------------------------------------------------------------------
# ingestion
# ----------------------------------------------------------------------
def load_trajectory(path: str | Path) -> list[dict[str, Any]]:
    """One ``BENCH_*.json`` as its entry list (chronological order)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of entries")
    return [e for e in data if isinstance(e, dict)]


def load_trajectories(root: str | Path) -> dict[str, list[dict[str, Any]]]:
    """Every ``BENCH_*.json`` directly under ``root``, by file name."""
    root = Path(root)
    out: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        out[path.name] = load_trajectory(path)
    return out


def _context_of(entry: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple((k, entry[k]) for k in CONTEXT_KEYS if k in entry)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# trends + gate
# ----------------------------------------------------------------------
@dataclass
class Trend:
    """One metric's history within a comparable context group."""

    file: str
    kind: str
    context: dict[str, Any]
    metric: str
    direction: str
    values: list[float] = field(default_factory=list)
    latest: float = 0.0
    baseline: float | None = None  #: median of prior entries (None: no prior)
    change_pct: float | None = None  #: latest vs baseline, signed
    threshold_pct: float | None = None  #: flagging threshold actually applied
    flagged: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "kind": self.kind,
            "context": dict(self.context),
            "metric": self.metric,
            "direction": self.direction,
            "values": list(self.values),
            "latest": self.latest,
            "baseline": self.baseline,
            "change_pct": self.change_pct,
            "threshold_pct": self.threshold_pct,
            "flagged": self.flagged,
        }


def compute_trends(
    trajectories: dict[str, list[dict[str, Any]]],
    noise_mads: float = 4.0,
    rel_floor: float = 0.25,
) -> list[Trend]:
    """Per-metric trends over every comparable series, regression-flagged.

    A series is the chronological values of one gated metric within one
    ``(file, kind, context)`` group. The newest value is judged against
    the median of the prior ones; it flags when worse by more than
    ``max(noise_mads × MAD(priors), rel_floor × |median|)`` in the
    metric's bad direction. Series with no prior entry produce a trend
    with ``baseline=None`` and never flag.
    """
    trends: list[Trend] = []
    for file_name in sorted(trajectories):
        groups: dict[tuple[str, tuple], list[dict[str, Any]]] = {}
        for entry in trajectories[file_name]:
            kind = str(entry.get("kind", ""))
            groups.setdefault((kind, _context_of(entry)), []).append(entry)
        for (kind, context), entries in sorted(groups.items()):
            metrics: dict[str, list[float]] = {}
            for entry in entries:
                for key, value in entry.items():
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        continue
                    if metric_direction(key) is not None:
                        metrics.setdefault(key, []).append(float(value))
            for metric in sorted(metrics):
                values = metrics[metric]
                direction = metric_direction(metric) or "lower"
                trend = Trend(
                    file=file_name,
                    kind=kind,
                    context=dict(context),
                    metric=metric,
                    direction=direction,
                    values=values,
                    latest=values[-1],
                )
                priors = values[:-1]
                if priors:
                    baseline = _median(priors)
                    mad = _median([abs(v - baseline) for v in priors])
                    threshold = max(noise_mads * mad, rel_floor * abs(baseline))
                    trend.baseline = baseline
                    if baseline:
                        trend.change_pct = (
                            (values[-1] - baseline) / abs(baseline) * 100.0
                        )
                        trend.threshold_pct = threshold / abs(baseline) * 100.0
                    delta = values[-1] - baseline
                    if direction == "lower":
                        trend.flagged = delta > threshold
                    else:
                        trend.flagged = -delta > threshold
                trends.append(trend)
    return trends


def check_regressions(
    root: str | Path,
    noise_mads: float = 4.0,
    rel_floor: float = 0.25,
) -> dict[str, Any]:
    """Run the gate over every trajectory under ``root``.

    Returns ``{"checked": n_series, "regressions": [Trend dicts]}`` —
    the shape both the CI step and ``repro report`` consume.
    """
    trends = compute_trends(
        load_trajectories(root), noise_mads=noise_mads, rel_floor=rel_floor
    )
    return {
        "checked": len(trends),
        "regressions": [t.to_dict() for t in trends if t.flagged],
    }


def format_regressions(report: dict[str, Any]) -> str:
    """Human-readable gate verdict for stderr / CI logs."""
    regs = report.get("regressions", [])
    lines = [
        f"bench-trend: {report.get('checked', 0)} series checked, "
        f"{len(regs)} regression(s)"
    ]
    for reg in regs:
        ctx = " ".join(f"{k}={v}" for k, v in reg.get("context", {}).items())
        lines.append(
            f"  REGRESSION {reg['file']}::{reg['kind']}::{reg['metric']} "
            f"latest={reg['latest']:g} baseline={reg['baseline']:g} "
            f"({reg['change_pct']:+.1f}%, threshold ±{reg['threshold_pct']:.1f}%)"
            + (f" [{ctx}]" if ctx else "")
        )
    return "\n".join(lines)
