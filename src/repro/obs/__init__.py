"""repro.obs — zero-dependency observability for the join pipeline.

Cooperating parts, all off by default and all stdlib-only:

- :mod:`repro.obs.trace` — hierarchical span tracer. Stage- and
  partition-level spans nested into one tree per run; ~ns disabled
  cost; worker spans serialize through the result pipe and merge in
  deterministic partition order.
- :mod:`repro.obs.metrics` — labelled counters and fixed-log-bucket
  histograms (verdicts per MBR case, interval-list lengths, refinement
  latency, pairs per worker) with derived p50/p90/p99 quantiles,
  exported as JSON and Prometheus text exposition; per-worker
  registries merge exactly.
- :mod:`repro.obs.profile` — statistical sampling profiler attributing
  samples to the active span/phase; collapsed-stack flamegraph export
  and a deterministic per-phase self-time table.
- :mod:`repro.obs.resources` — the byte side of every run report:
  process max-RSS and payload stored/decoded bytes joined from the
  metric counters, read after the run (no switch, no hot-path cost).
- :mod:`repro.obs.report` — structured run reports and the JSONL run
  log; sampled per-pair deep traces reuse :mod:`repro.join.explain`.
- :mod:`repro.obs.dashboard` — everything above rendered into one
  self-contained static HTML file (``repro report``).
- :mod:`repro.obs.progress` — throttled per-worker heartbeats.

Forked workers carry their share home through one trio:
:func:`begin_worker_capture` in the child before a task,
:func:`export_worker_capture` in the child after it, and
:func:`merge_worker_capture` in the parent on the payload.

Enable pieces independently (``set_tracing`` / ``set_metrics`` /
``set_progress`` / ``set_profiling``) or the always-cheap trio at
once with :func:`enable_all`; the CLI flags ``--trace``,
``--metrics-out``, ``--progress``, ``--profile`` map onto these. The
sampling profiler stays opt-in even under :func:`enable_all` because
signal delivery per interval is a real enabled-path cost. The
submodules import nothing from
``repro`` at module level, so every layer — geometry to CLI — may
instrument itself freely.
"""

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    parse_prometheus,
    reset_metrics,
    set_metrics,
)
from repro.obs.profile import (
    begin_worker_capture as _profile_begin_worker_capture,
    collapsed_stacks,
    export_profile,
    format_phase_table,
    merge_profiles,
    phase_table,
    profiling_enabled,
    reset_profile,
    set_profiling,
)
from repro.obs.progress import (
    ProgressReporter,
    progress_enabled,
    progress_reporter,
    set_progress,
)
from repro.obs.trace import (
    Span,
    add_span,
    attach_spans,
    export_spans,
    get_spans,
    reset_tracing,
    set_tracing,
    span_totals,
    trace,
    tracing_enabled,
)


#: Re-exports of the reporting side — run reports, their resource
#: summary and the HTML dashboard — resolved on first read (PEP 562):
#: no join needs them, and every layer imports this package.
#: ``profile`` stays eager because the verification loop imports it
#: itself.
_LAZY = {
    "render_dashboard": "repro.obs.dashboard",
    "write_dashboard": "repro.obs.dashboard",
    "RunReport": "repro.obs.report",
    "append_jsonl": "repro.obs.report",
    "build_run_report": "repro.obs.report",
    "read_jsonl": "repro.obs.report",
    "sample_explanations": "repro.obs.report",
    "write_metrics_files": "repro.obs.report",
    "run_resources": "repro.obs.resources",
}


__getattr__, __dir__ = lazy_exports(globals(), _LAZY)


def begin_worker_capture() -> None:
    """Swap in fresh collectors in a forked worker, before its task.

    The enabled flags travel by fork inheritance; only the collected
    data must be reset so the worker exports nothing but its own. The
    profiler additionally re-arms its interval timer — itimers do not
    survive ``fork``, unlike every other piece of obs state.
    """
    if tracing_enabled():
        reset_tracing()
    if metrics_enabled():
        reset_metrics()
    if profiling_enabled():
        _profile_begin_worker_capture()


def export_worker_capture() -> dict | None:
    """What the worker collected since :func:`begin_worker_capture` —
    spans, metrics, profile — as one picklable payload, or
    ``None`` when everything is off."""
    payload: dict = {}
    if tracing_enabled():
        payload["spans"] = export_spans()
    if metrics_enabled():
        payload["metrics"] = get_registry()
    if profiling_enabled():
        payload["profile"] = export_profile()
    return payload or None


def merge_worker_capture(payload: dict | None) -> list:
    """Fold one worker's export into this process's registry and
    profile; returns its span dicts, which the caller grafts under its
    open span (:func:`attach_spans`) or files with a request record.

    Counters and profile samples add, so merging payloads in task order
    gives the same totals for every worker count and scheduling.
    """
    if not payload:
        return []
    if payload.get("metrics") is not None and metrics_enabled():
        get_registry().merge(payload["metrics"])
    if payload.get("profile"):
        merge_profiles([payload["profile"]])
    return payload.get("spans") or []


def enable_all() -> None:
    """Switch tracing, metrics and progress on together.

    The sampling profiler is *not* included: signal delivery per
    interval is a measurable enabled-path cost, so it is enabled
    explicitly via ``set_profiling``.
    """
    set_tracing(True)
    set_metrics(True)
    set_progress(True)


def disable_all() -> None:
    """Switch every observability feature off and drop collected data."""
    set_tracing(False)
    set_metrics(False)
    set_progress(False)
    set_profiling(False)
    reset_tracing()
    reset_metrics()
    reset_profile()


__all__ = [
    "Histogram",
    "MetricsRegistry",
    "ProgressReporter",
    "RunReport",
    "Span",
    "add_span",
    "append_jsonl",
    "attach_spans",
    "begin_worker_capture",
    "build_run_report",
    "collapsed_stacks",
    "disable_all",
    "enable_all",
    "export_profile",
    "export_spans",
    "export_worker_capture",
    "format_phase_table",
    "get_registry",
    "get_spans",
    "merge_profiles",
    "merge_worker_capture",
    "metrics_enabled",
    "parse_prometheus",
    "phase_table",
    "profiling_enabled",
    "progress_enabled",
    "progress_reporter",
    "read_jsonl",
    "render_dashboard",
    "reset_metrics",
    "reset_profile",
    "reset_tracing",
    "run_resources",
    "sample_explanations",
    "set_metrics",
    "set_profiling",
    "set_progress",
    "set_tracing",
    "span_totals",
    "trace",
    "tracing_enabled",
    "write_dashboard",
    "write_metrics_files",
]
