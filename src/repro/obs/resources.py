"""Phase-level resource accounting: memory peaks, RSS, payload bytes.

The decode-work law (PAPERS.md) prices a join in *bytes touched*, not
just seconds; this module supplies the byte side of the ledger. When
enabled it hooks the span tracer (:func:`repro.obs.trace.register_span_hook`)
and annotates every span with its tracemalloc figures:

``mem_peak_bytes``
    Peak traced allocation while the span (or any descendant) was
    open. tracemalloc exposes a single process-wide peak, so nesting
    is handled with a bubbling stack: the peak window is reset when a
    span opens, and a child's measured peak is propagated into the
    parent's pending figure on exit — the parent's final peak is the
    max of its own windows and every child's.
``mem_net_bytes``
    Net traced allocation delta across the span (may be negative:
    the span freed more than it allocated).

:func:`run_resources` then assembles the run-envelope summary —
process max-RSS (``getrusage``; kilobytes on Linux, bytes on macOS),
tracemalloc totals, per-phase peaks (span names normalised through the
profiler's :data:`~repro.obs.profile.PHASE_ALIASES`), and payload
stored/decoded bytes joined from the existing metric counters
(``repro_april_bytes`` / ``repro_payload_decoded_bytes_total``).

Fork model matches the rest of ``repro.obs``: workers inherit the
enabled flag, :func:`repro.obs.begin_worker_capture` restarts capture,
:func:`export_resources` returns a picklable payload, and
:func:`merge_resources` folds worker payloads in (peaks combine with
``max``, the only order-independent choice, so the merge is
deterministic).

Stdlib only. ``tracemalloc`` costs real time while tracing is on
(every allocation is recorded), which is why this module is opt-in; its
*disabled* path is one flag check.
"""

from __future__ import annotations

import sys
from typing import Any

from . import trace as _trace
from .profile import normalize_phase

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None  # type: ignore[assignment]

__all__ = [
    "export_resources",
    "max_rss_bytes",
    "merge_resources",
    "phase_peaks",
    "reset_resources",
    "resources_enabled",
    "run_resources",
    "set_resources",
]

#: The stdlib module, bound by the first ``set_resources(True)``: every
#: use below runs only while enabled, and a process that never enables
#: accounting (every plain CLI join) should not pay for the import.
tracemalloc = None
_ENABLED = False
_STARTED_TRACEMALLOC = False
#: One entry per open span: ``{"enter_current": int, "pending_peak": int}``.
_WINDOWS: list[dict[str, int]] = []
#: Max peak per normalised phase across the run.
_PHASE_PEAKS: dict[str, int] = {}
_RUN_PEAK = 0


def _on_enter(span: _trace.Span) -> None:
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    _WINDOWS.append({"enter_current": current, "pending_peak": 0})


def _on_exit(span: _trace.Span) -> None:
    global _RUN_PEAK
    if not _WINDOWS:
        return
    current, peak = tracemalloc.get_traced_memory()
    window = _WINDOWS.pop()
    true_peak = max(peak, window["pending_peak"])
    span.attrs["mem_peak_bytes"] = true_peak
    span.attrs["mem_net_bytes"] = current - window["enter_current"]
    phase = normalize_phase(span.name)
    if true_peak > _PHASE_PEAKS.get(phase, 0):
        _PHASE_PEAKS[phase] = true_peak
    if true_peak > _RUN_PEAK:
        _RUN_PEAK = true_peak
    if _WINDOWS:
        parent = _WINDOWS[-1]
        if true_peak > parent["pending_peak"]:
            parent["pending_peak"] = true_peak
    # Start a fresh window for the remainder of the parent span (or the
    # next top-level span) so its own post-child allocations register.
    tracemalloc.reset_peak()


def set_resources(enabled: bool) -> None:
    """Turn resource accounting on or off (module-wide).

    Enabling starts ``tracemalloc`` if it is not already tracing (and
    remembers that, so disabling stops it only when this module started
    it) and registers the span hooks.
    """
    global _ENABLED, _STARTED_TRACEMALLOC, tracemalloc
    if enabled == _ENABLED:
        return
    if enabled:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _STARTED_TRACEMALLOC = True
        _trace.register_span_hook(_on_enter, _on_exit)
        _ENABLED = True
    else:
        _trace.unregister_span_hook(_on_enter, _on_exit)
        if _STARTED_TRACEMALLOC and tracemalloc.is_tracing():
            tracemalloc.stop()
        _STARTED_TRACEMALLOC = False
        _ENABLED = False


def resources_enabled() -> bool:
    return _ENABLED


def reset_resources() -> None:
    """Drop per-phase figures (the enabled flag is unchanged)."""
    global _WINDOWS, _PHASE_PEAKS, _RUN_PEAK
    _WINDOWS = []
    _PHASE_PEAKS = {}
    _RUN_PEAK = 0
    if _ENABLED and tracemalloc.is_tracing():
        tracemalloc.reset_peak()


def max_rss_bytes() -> int | None:
    """Process lifetime max-RSS in bytes (``None`` where unavailable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS — the one
    portability wart this helper exists to hide.
    """
    if _resource is None:
        return None
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024


def phase_peaks() -> dict[str, int]:
    """Max traced-memory peak per phase, alphabetically ordered."""
    return {k: _PHASE_PEAKS[k] for k in sorted(_PHASE_PEAKS)}


def export_resources() -> dict[str, Any] | None:
    """Worker-side payload (picklable) for the parent to merge."""
    if not _ENABLED:
        return None
    current, peak = tracemalloc.get_traced_memory()
    return {
        "phase_peaks": phase_peaks(),
        "run_peak_bytes": max(_RUN_PEAK, peak),
        "max_rss_bytes": max_rss_bytes(),
        "tracemalloc_current_bytes": current,
    }


def merge_resources(payloads: list[dict[str, Any] | None]) -> None:
    """Fold worker payloads into the parent's figures.

    Peaks merge with ``max`` — per-process peaks are not additive (the
    processes hold copy-on-write views of the same parent heap) and
    ``max`` is order-independent, keeping the merged result
    deterministic regardless of worker scheduling.
    """
    global _RUN_PEAK
    for payload in payloads:
        if not payload:
            continue
        for phase, peak in payload.get("phase_peaks", {}).items():
            if peak > _PHASE_PEAKS.get(phase, 0):
                _PHASE_PEAKS[phase] = int(peak)
        run_peak = int(payload.get("run_peak_bytes", 0))
        if run_peak > _RUN_PEAK:
            _RUN_PEAK = run_peak


def run_resources(registry: Any | None = None) -> dict[str, Any] | None:
    """Run-envelope resource summary (``None`` while disabled).

    ``registry`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    used to join the payload byte counters; pass the registry the run
    actually recorded into (the global one in the common case).
    """
    if not _ENABLED:
        return None
    current, peak = tracemalloc.get_traced_memory()
    out: dict[str, Any] = {
        "max_rss_bytes": max_rss_bytes(),
        "tracemalloc_peak_bytes": max(_RUN_PEAK, peak),
        "tracemalloc_current_bytes": current,
        "phase_peaks": phase_peaks(),
    }
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
