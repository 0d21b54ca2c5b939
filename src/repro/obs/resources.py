"""The byte side of a run report: peak RSS and payload bytes.

The decode-work law (PAPERS.md) prices a join in *bytes touched*, not
just seconds. :func:`run_resources` assembles the figures every run
report carries — process max-RSS (``getrusage``; kilobytes on Linux,
bytes on macOS) and payload stored/decoded bytes joined from the
existing metric counters (``repro_april_bytes`` /
``repro_payload_decoded_bytes_total``). Both are read after the fact,
so there is no switch and nothing costs anything while a join runs.

Stdlib only.
"""

from __future__ import annotations

import sys
from typing import Any

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None  # type: ignore[assignment]

__all__ = ["max_rss_bytes", "run_resources"]


def max_rss_bytes() -> int | None:
    """Peak RSS in bytes of this process or any reaped child (``None``
    where unavailable).

    The children term covers a ``parallel`` run's workers, which have
    all been reaped by the time a report is built; a worker that peaked
    higher than the parent while refining is what the run cost.
    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    if _resource is None:
        return None
    rss = max(
        _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss,
        _resource.getrusage(_resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024


def run_resources(registry: Any | None = None) -> dict[str, Any]:
    """Run-envelope resource summary.

    ``registry`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    used to join the payload byte counters; pass the registry the run
    actually recorded into (the global one in the common case).
    """
    out: dict[str, Any] = {"max_rss_bytes": max_rss_bytes()}
    if registry is not None:
        stored = 0.0
        for (name, _key), hist in registry.histograms.items():
            if name == "repro_april_bytes":
                stored += hist.sum
        decoded = 0
        for (name, _key), value in registry.counters.items():
            if name == "repro_payload_decoded_bytes_total":
                decoded += value
        out["payload"] = {
            "stored_bytes": int(stored),
            "decoded_bytes": int(decoded),
        }
    return out
