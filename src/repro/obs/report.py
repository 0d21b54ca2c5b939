"""Structured run reports: one machine-readable record per join run.

A run report bundles everything a run produced besides its result
links: the :class:`~repro.join.stats.JoinRunStats` dict, the span tree
(when tracing was on), the metrics registry export (when metrics were
on), and sampled per-pair deep traces of the first undetermined pairs
(reusing :mod:`repro.join.explain`). Reports append to a JSONL run log
— one JSON object per line, so logs concatenate and stream — and the
experiment harness writes the same envelope for its results, giving
joins and experiments one uniform artifact format.

Imports from ``repro`` are deferred into the functions that need them
(the report builder, the explain sampler), keeping the ``repro.obs``
package import-cycle free so every layer can instrument itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "REPORT_FORMAT_VERSION",
    "RunReport",
    "append_jsonl",
    "build_run_report",
    "read_jsonl",
    "sample_explanations",
    "write_metrics_files",
]

#: Bump when the report envelope changes shape.
REPORT_FORMAT_VERSION = 1


@dataclass
class RunReport:
    """Envelope for one run's observability payload."""

    kind: str
    method: str
    stats: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] | None = None
    explain_samples: list[dict[str, Any]] = field(default_factory=list)
    #: Sampling-profiler payload (:func:`repro.obs.profile.export_profile`
    #: plus its derived ``phase_table``) when ``--profile`` was on.
    profile: dict[str, Any] | None = None
    #: Resource summary (:func:`repro.obs.resources.run_resources`).
    resources: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "format_version": REPORT_FORMAT_VERSION,
            "kind": self.kind,
            "method": self.method,
            "stats": self.stats,
            "meta": self.meta,
        }
        if self.spans:
            d["spans"] = self.spans
        if self.metrics is not None:
            d["metrics"] = self.metrics
        if self.explain_samples:
            d["explain_samples"] = self.explain_samples
        if self.profile is not None:
            d["profile"] = self.profile
        if self.resources is not None:
            d["resources"] = self.resources
        return d

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunReport":
        return RunReport(
            kind=data["kind"],
            method=data["method"],
            stats=dict(data.get("stats", {})),
            spans=list(data.get("spans", [])),
            metrics=data.get("metrics"),
            explain_samples=list(data.get("explain_samples", [])),
            profile=data.get("profile"),
            resources=data.get("resources"),
            meta=dict(data.get("meta", {})),
        )


def build_run_report(
    run,
    method: str,
    *,
    spans: bool,
    metrics: bool,
    profile: bool,
    explain_samples: Sequence[dict[str, Any]] = (),
    meta: dict[str, Any],
) -> RunReport:
    """The envelope of one :class:`~repro.join.run.JoinRun`.

    The single ``JoinRun`` -> :class:`RunReport` mapping, shared by the
    CLI's ``--run-log`` and library callers of ``Engine.join``. ``method`` is the
    method the caller asked for (a relate_p run's own label lives in
    ``stats["method"]``); ``spans`` / ``metrics`` / ``profile`` say
    which live collectors the caller wants exported into the record —
    the profiler payload gets its phase table attached, and the
    resource summary rides along whenever the engine stamped one on the
    run.
    """
    from repro.obs.metrics import get_registry
    from repro.obs.profile import export_profile, phase_table
    from repro.obs.trace import export_spans

    profile_payload = None
    if profile:
        payload = export_profile()
        if payload is not None:
            profile_payload = {**payload, "phase_table": phase_table(payload=payload)}
    return RunReport(
        kind="join_run",
        method=method,
        stats=run.stats.to_dict(),
        spans=export_spans() if spans else [],
        metrics=get_registry().to_dict() if metrics else None,
        explain_samples=list(explain_samples),
        profile=profile_payload,
        resources=run.meta.get("resources"),
        meta=meta,
    )


def append_jsonl(path: str | Path, record: dict[str, Any]) -> None:
    """Append one record to a JSONL log (created on first use).

    ``allow_nan=False`` makes non-finite floats a hard error here
    rather than a silent ``Infinity`` token downstream parsers reject —
    the exact failure mode :meth:`JoinRunStats.to_dict` guards against.
    """
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """All records of a JSONL log."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def sample_explanations(
    r_objects: Sequence,
    s_objects: Sequence,
    refined_pairs: Sequence[tuple[int, int]],
    limit: int,
) -> list[dict[str, Any]]:
    """Deep-trace the first ``limit`` undetermined pairs via P+C explain.

    The sampled pairs are the stream's first refined ones in ``(i, j)``
    order, so the sample is deterministic across worker counts. The
    explanation always follows the P+C filter sequence (that is what
    ``explain_pair`` narrates), which for other methods answers the
    operative question: why the best filter could not resolve the pair.
    """
    from repro.join.explain import explain_pair  # deferred: avoids cycle

    samples = []
    for i, j in refined_pairs[: max(0, limit)]:
        trace = explain_pair(r_objects[i], s_objects[j])
        samples.append(
            {
                "r_index": i,
                "s_index": j,
                "mbr_case": trace.mbr_case.value,
                "connected": trace.connected,
                "checks": list(trace.checks),
                "filter_verdict": trace.filter_verdict,
                "refined": trace.refined,
                "matrix_code": trace.matrix_code,
                "relation": trace.relation.value if trace.relation else None,
                "rendered": trace.render(),
            }
        )
    return samples


def write_metrics_files(path: str | Path, registry) -> tuple[Path, Path]:
    """Write a registry as JSON at ``path`` and Prometheus exposition
    alongside (same name with ``.prom`` appended). Returns both paths."""
    json_path = Path(path)
    prom_path = json_path.with_name(json_path.name + ".prom")
    json_path.write_text(
        json.dumps(registry.to_dict(), indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    prom_path.write_text(registry.to_prometheus(), encoding="utf-8")
    return json_path, prom_path
