"""Hierarchical span tracing with a near-free disabled path.

The paper's whole evaluation is a cost breakdown (IF vs REF time,
undetermined shares, per-scenario throughput); this tracer captures the
same breakdown *inside* a single run: spans for preprocessing, the MBR
filter step, each pipeline stage and each parallel partition, nested
into one tree per run.

Design constraints, in order:

1. **Disabled cost ≈ zero.** Tracing is off by default; the hot per-pair
   loops never call into this module at all (instrumentation sits at
   stage/partition granularity), and the stage-level :func:`trace`
   call returns a shared no-op context manager after a single module
   attribute check.
2. **Fork-friendly.** Worker processes inherit the enabled flag by
   ``fork``; :func:`repro.obs.begin_worker_capture` swaps in a fresh
   collector so a worker exports only its own spans (as plain dicts,
   cheap to pickle), which the parent grafts back in partition order —
   the same deterministic order as the ``(i, j)``-sorted result merge.
3. **Reconcilable.** Besides wall-clock spans (:func:`trace`), code can
   attach *aggregate* spans with a pre-measured duration
   (:func:`add_span`) — e.g. the summed per-pair refinement time — so
   span totals reconcile with :class:`~repro.join.stats.JoinRunStats`
   timings instead of double-counting loop overhead.

Only the standard library is used; nothing in this module imports from
``repro``, so any layer may instrument itself without import cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Span",
    "add_span",
    "attach_spans",
    "export_spans",
    "get_spans",
    "reset_tracing",
    "set_tracing",
    "span_totals",
    "trace",
    "tracing_enabled",
]


@dataclass
class Span:
    """One timed region: name, attributes, duration, child spans."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, name: str) -> float:
        """Summed duration of all descendant spans named ``name``."""
        return sum(s.seconds for s in self.walk() if s.name == name)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Span":
        return Span(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            seconds=float(data.get("seconds", 0.0)),
            children=[Span.from_dict(c) for c in data.get("children", [])],
        )

    def render(self, indent: int = 0) -> str:
        """ASCII tree rendering (for ``--trace -``)."""
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        line = "  " * indent + f"{self.name:<24} {self.seconds * 1e3:10.3f} ms"
        if attrs:
            line += f"   [{attrs}]"
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])


class _Collector:
    """Root list plus the currently open span stack."""

    __slots__ = ("roots", "stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.stack: list[Span] = []

    def attach(self, span: Span) -> None:
        if self.stack:
            self.stack[-1].children.append(span)
        else:
            self.roots.append(span)


_ENABLED = False
_COLLECTOR = _Collector()


class _NullCtx:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullCtx()


class _SpanCtx:
    """Context manager that opens a span and times it on exit."""

    __slots__ = ("span", "_t0")

    def __init__(self, span: Span) -> None:
        self.span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        _COLLECTOR.attach(self.span)
        _COLLECTOR.stack.append(self.span)
        self._t0 = time.perf_counter()
        return self.span

    def __exit__(self, *exc: object) -> bool:
        self.span.seconds = time.perf_counter() - self._t0
        _COLLECTOR.stack.pop()
        return False


def set_tracing(enabled: bool) -> None:
    """Turn span collection on or off (module-wide)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def tracing_enabled() -> bool:
    return _ENABLED


def reset_tracing() -> None:
    """Drop all collected spans (the enabled flag is unchanged)."""
    global _COLLECTOR
    _COLLECTOR = _Collector()


def trace(name: str, **attrs: Any):
    """Open a timed span; a no-op context manager when tracing is off.

    Intended for stage/partition granularity — not per pair; the
    sampled deep traces (``join.explain``) cover per-pair detail.
    """
    if not _ENABLED:
        return _NULL
    return _SpanCtx(Span(name=name, attrs=attrs))


def add_span(name: str, seconds: float, **attrs: Any) -> None:
    """Attach a span with a pre-measured duration under the open span.

    Used for aggregates timed elsewhere (e.g. summed per-pair
    refinement time), so span totals reconcile with stage timers.
    """
    if not _ENABLED:
        return
    _COLLECTOR.attach(Span(name=name, attrs=attrs, seconds=seconds))


def get_spans() -> list[Span]:
    """The root spans collected so far (live objects, not copies)."""
    return _COLLECTOR.roots


def export_spans() -> list[dict[str, Any]]:
    """Collected root spans as plain dicts (picklable / JSON-safe)."""
    return [s.to_dict() for s in _COLLECTOR.roots]


def attach_spans(spans: list[dict[str, Any]]) -> None:
    """Graft exported spans (e.g. from a worker) under the open span."""
    if not _ENABLED:
        return
    for data in spans:
        _COLLECTOR.attach(Span.from_dict(data))


def span_totals(spans: list[Span] | None = None) -> dict[str, float]:
    """Summed seconds per span name over whole trees (skew/overview)."""
    totals: dict[str, float] = {}
    for root in _COLLECTOR.roots if spans is None else spans:
        for s in root.walk():
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds
    return totals
