"""Counters and fixed-log-bucket histograms with JSON/Prometheus export.

The quantities the paper aggregates per run (verdicts per MBR case,
interval-list lengths, refinement latency, pairs per worker) are
exactly the ones worth watching per *deployment*: the same counters and
distributions, labelled, mergeable across workers, and exportable both
as JSON (for the run reports) and in the Prometheus text exposition
format (for scrapers).

Histograms use fixed base-2 log buckets: an observation ``v`` falls in
bucket ``e = floor(log2 v)`` (clamped to ±64), i.e. the half-open range
``[2**e, 2**(e+1))``. ``math.frexp`` finds the bucket in constant time,
the bucket set never depends on the data, and merging two histograms is
a sparse per-exponent sum — which is what makes per-worker registries
from a forked pool combinable into exactly the serial run's registry
(timings aside, counts are deterministic).

Zero and negative observations land in a dedicated underflow bucket so
``count`` and ``sum`` stay exact.

Like :mod:`repro.obs.trace`, the module is import-cycle free (stdlib
only), off by default, and fork-friendly: a worker calls
:func:`repro.obs.begin_worker_capture` to record into a fresh registry
and ships it back through the result pipe (everything here pickles).
"""

from __future__ import annotations

import math
import re
from typing import Any

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metrics_enabled",
    "parse_prometheus",
    "reset_metrics",
    "set_metrics",
]

#: Exponent clamp: 2**-64 ≈ 5e-20 s … 2**64 ≈ 1.8e19 covers every
#: latency, length and count this system can produce.
_EXP_MIN = -64
_EXP_MAX = 64
#: Sentinel bucket for observations <= 0 (never produced by frexp).
_UNDERFLOW = _EXP_MIN - 1

LabelKey = tuple[tuple[str, str], ...]


def _bucket_of(value: float) -> int:
    if value <= 0.0:
        return _UNDERFLOW
    _, e = math.frexp(value)  # value = m * 2**e with 0.5 <= m < 1
    return min(_EXP_MAX, max(_EXP_MIN, e - 1))


class Histogram:
    """Sparse fixed-log-bucket histogram (base 2)."""

    __slots__ = ("buckets", "count", "sum")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        e = _bucket_of(value)
        self.buckets[e] = self.buckets.get(e, 0) + 1
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        for e, n in other.buckets.items():
            self.buckets[e] = self.buckets.get(e, 0) + n
        self.count += other.count
        self.sum += other.sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile via log-linear bucket interpolation.

        The rank lands in some bucket ``[2**e, 2**(e+1))``; within it
        the mass is assumed uniform in *log space* (the same geometric
        model the bucketing itself uses), so the estimate is
        ``2**(e + frac)`` where ``frac`` is the rank's position inside
        the bucket. Exact at bucket boundaries, at most a factor-of-2
        off inside one — matching the histogram's resolution. Underflow
        observations (``<= 0``) estimate as ``0.0``. Returns ``0.0``
        for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for e in sorted(self.buckets):
            n = self.buckets[e]
            running += n
            if running >= target:
                if e == _UNDERFLOW:
                    return 0.0
                frac = 1.0 - (running - target) / n
                return 2.0 ** (e + frac)
        # Unreachable (running == count >= target), defensive bound.
        top = max(self.buckets)
        return 0.0 if top == _UNDERFLOW else 2.0 ** (top + 1)

    def quantiles(self) -> dict[str, float]:
        """The standard derived quantiles exported everywhere: p50/p90/p99."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict[str, Any]:
        # Bucket keys as the upper bound of each half-open range.
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                ("0" if e == _UNDERFLOW else repr(2.0 ** (e + 1))): n
                for e, n in sorted(self.buckets.items())
            },
            "quantiles": self.quantiles(),
        }

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, Prometheus-style."""
        out: list[tuple[float, int]] = []
        running = 0
        for e in sorted(self.buckets):
            running += self.buckets[e]
            bound = 0.0 if e == _UNDERFLOW else 2.0 ** (e + 1)
            out.append((bound, running))
        return out


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    escaped = (
        (k, v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for k, v in key
    )
    return "{" + ",".join(f'{k}="{v}"' for k, v in escaped) + "}"


class MetricsRegistry:
    """Labelled counters and histograms for one run (or one worker)."""

    def __init__(self) -> None:
        self.counters: dict[tuple[str, LabelKey], int] = {}
        self.histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1, **labels: Any) -> None:
        key = (name, _label_key(labels))
        self.counters[key] = self.counters.get(key, 0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)

    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """Fold other registries (e.g. per-worker ones) into this one."""
        for other in others:
            for key, value in other.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
            for key, hist in other.histograms.items():
                mine = self.histograms.get(key)
                if mine is None:
                    mine = self.histograms[key] = Histogram()
                mine.merge(hist)
        return self

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def counter_values(self) -> dict[str, int]:
        """Flat ``name{labels} -> value`` view (deterministic order)."""
        return {
            _sanitize(name) + _format_labels(key): value
            for (name, key), value in sorted(self.counters.items())
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe export of every counter and histogram."""
        return {
            "counters": [
                {"name": _sanitize(name), "labels": dict(key), "value": value}
                for (name, key), value in sorted(self.counters.items())
            ],
            "histograms": [
                {"name": _sanitize(name), "labels": dict(key), **hist.to_dict()}
                for (name, key), hist in sorted(self.histograms.items())
            ],
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for (name, key), value in sorted(self.counters.items()):
            name = _sanitize(name)
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{_format_labels(key)} {value}")
        for (name, key), hist in sorted(self.histograms.items()):
            name = _sanitize(name)
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in hist.cumulative():
                bucket_key = key + (("le", repr(bound)),)
                lines.append(f"{name}_bucket{_format_labels(bucket_key)} {cumulative}")
            inf_key = key + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{_format_labels(inf_key)} {hist.count}")
            lines.append(f"{name}_sum{_format_labels(key)} {hist.sum!r}")
            lines.append(f"{name}_count{_format_labels(key)} {hist.count}")
        # Derived quantiles ride in a sibling ``{name}_summary`` family
        # (one TYPE per metric name is a format invariant, so the
        # summary lines cannot share the histogram's family) — emitted
        # after all histograms to keep each family's samples contiguous.
        for (name, key), hist in sorted(self.histograms.items()):
            name = _sanitize(name) + "_summary"
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} summary")
            for q_label, q in (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)):
                q_key = key + (("quantile", q_label),)
                lines.append(f"{name}{_format_labels(q_key)} {hist.quantile(q)!r}")
            lines.append(f"{name}_sum{_format_labels(key)} {hist.sum!r}")
            lines.append(f"{name}_count{_format_labels(key)} {hist.count}")
        return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a text exposition back into ``name{labels} -> value``.

    A deliberately strict round-trip parser: any non-comment line that
    does not match the sample grammar raises, which is exactly what the
    export tests need to certify the format.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"invalid exposition line: {line!r}")
        labels: list[tuple[str, str]] = []
        if m.group("labels"):
            consumed = _LABEL_RE.sub("", m.group("labels")).replace(",", "").strip()
            if consumed:
                raise ValueError(f"invalid label set in line: {line!r}")
            labels = [
                (lm.group("key"), lm.group("value"))
                for lm in _LABEL_RE.finditer(m.group("labels"))
            ]
        rendered = m.group("name") + _format_labels(tuple(labels))
        samples[rendered] = float(m.group("value"))
    return samples


_ENABLED = False
_REGISTRY = MetricsRegistry()


def set_metrics(enabled: bool) -> None:
    """Turn metric recording on or off (module-wide)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def metrics_enabled() -> bool:
    return _ENABLED


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _REGISTRY


def reset_metrics() -> None:
    """Drop all recorded metrics (the enabled flag is unchanged)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()


def begin_worker_capture() -> None:
    """Record into a fresh registry in a forked worker (see trace)."""
    reset_metrics()
