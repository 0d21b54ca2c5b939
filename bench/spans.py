"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around the calls into
each layer (spans inside the program are a later change). Every span has
a name, start, end and the id of the span that caused it; all spans of
one workload share ``trace_id``. Nothing is written until
:meth:`Recorder.write` runs when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            **attrs) -> int:
        """Record a finished span; returns its id. ``parent`` defaults to
        the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {"id": len(self.spans), "trace_id": self.trace_id, "name": name,
             "start": start, "end": end, "parent": parent, **attrs}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = self.add(name, time.perf_counter(), 0.0, **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def add_children(self, parent: int, parts: list[tuple[str, float]]) -> None:
        """Lay measured durations end to end under ``parent``.

        Used where the parent is a child process or a daemon request the
        benchmark cannot look into: its children are durations measured
        elsewhere (layer probes, timing fields on the wire), marked
        ``synthetic``. The parent's self time is then what nothing
        accounts for.
        """
        at = self.spans[parent]["start"]
        for name, seconds in parts:
            self.add(name, at, at + seconds, parent=parent, synthetic=True)
            at += seconds

    def self_times(self, root: int) -> list[tuple[str, float]]:
        """``(name, self seconds)`` for ``root``'s children, then an
        ``unattributed`` row holding the root's own self time, so the
        rows sum to the root's duration exactly. A span's self time is
        its duration minus its children's durations."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)

        def duration(span: dict) -> float:
            # A span timed in calibrated seconds says so itself.
            return span.get("calibrated_s", span["end"] - span["start"])

        def self_time(span: dict) -> float:
            return duration(span) - sum(duration(c) for c in children.get(span["id"], []))

        rows: dict[str, float] = {}
        for child in children.get(root, []):
            rows[child["name"]] = rows.get(child["name"], 0.0) + duration(child)
        return [*rows.items(), ("unattributed", self_time(self.spans[root]))]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")


def format_self_times(title: str, wall: float, rows: list[tuple[str, float]]) -> str:
    lines = [f"{title}: {wall:.4f} s"]
    for name, seconds in rows:
        share = 100.0 * seconds / wall if wall else 0.0
        lines.append(f"  {name:<28} {seconds:9.4f} s {share:6.1f} %")
    return "\n".join(lines)
