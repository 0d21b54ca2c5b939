"""Run statistics for topology-join pipelines.

Captures exactly the quantities the paper reports: throughput of
MBR-filtered pairs (Fig. 7a), the share of *undetermined* pairs that
reach DE-9IM refinement (Fig. 7b, Fig. 8a), per-stage time (Fig. 8b's
IF vs REF split), and the fraction of distinct objects whose exact
geometry had to be accessed (Sec. 4.3's data-access discussion).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.topology.de9im import TopologicalRelation


@dataclass
class JoinRunStats:
    """Counters and timings of one pipeline run over a pair stream."""

    method: str
    pairs: int = 0
    #: Resolved by MBR geometry alone (cross-MBRs; input pairs already
    #: passed the intersection filter, so MBR-disjoint never occurs).
    resolved_mbr: int = 0
    #: Resolved by the intermediate filter without refinement.
    resolved_if: int = 0
    #: Undetermined pairs: forwarded to DE-9IM refinement.
    refined: int = 0
    relation_counts: Counter = field(default_factory=Counter)
    filter_seconds: float = 0.0
    refine_seconds: float = 0.0
    #: Distinct objects whose exact geometry was read, per side.
    r_objects_accessed: int = 0
    s_objects_accessed: int = 0
    r_objects_total: int = 0
    s_objects_total: int = 0

    # ------------------------------------------------------------------
    # derived measures
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return self.filter_seconds + self.refine_seconds

    @property
    def throughput(self) -> float:
        """MBR-filtered pairs processed per second (Fig. 7a's metric).

        ``inf`` when no time was recorded — callers that serialize must
        use :meth:`to_dict`, which omits the value in that case
        (``Infinity`` is not valid JSON).
        """
        if self.total_seconds == 0.0:
            return float("inf")
        return self.pairs / self.total_seconds

    @property
    def undetermined_pct(self) -> float:
        """Share of pairs needing refinement (Fig. 7b / 8a's metric)."""
        if self.pairs == 0:
            return 0.0
        return 100.0 * self.refined / self.pairs

    @property
    def geometry_access_pct(self) -> float:
        """Share of distinct objects whose geometry was loaded."""
        total = self.r_objects_total + self.s_objects_total
        if total == 0:
            return 0.0
        return 100.0 * (self.r_objects_accessed + self.s_objects_accessed) / total

    def record(self, relation: TopologicalRelation, stage: str, count: int = 1) -> None:
        """Count ``count`` pairs of ``relation`` settled at ``stage``."""
        self.pairs += count
        self.relation_counts[relation] += count
        if stage == "mbr":
            self.resolved_mbr += count
        elif stage == "if":
            self.resolved_if += count
        else:
            self.refined += count

    def merge(self, *others: "JoinRunStats") -> "JoinRunStats":
        """Combine runs of the same method (e.g. across batches/workers).

        Accepts any number of parts: ``whole = first.merge(*rest)``.
        Counters, timings and relation counts are summed; the
        object-access fields are summed too, which overcounts when the
        parts share objects — callers merging partitions of one join
        must overwrite ``*_objects_total`` / ``*_accessed`` with
        deduplicated values (the parallel executor does exactly that).
        """
        merged = JoinRunStats(method=self.method)
        merged.pairs = self.pairs
        merged.resolved_mbr = self.resolved_mbr
        merged.resolved_if = self.resolved_if
        merged.refined = self.refined
        merged.relation_counts = Counter(self.relation_counts)
        merged.filter_seconds = self.filter_seconds
        merged.refine_seconds = self.refine_seconds
        merged.r_objects_accessed = self.r_objects_accessed
        merged.s_objects_accessed = self.s_objects_accessed
        merged.r_objects_total = self.r_objects_total
        merged.s_objects_total = self.s_objects_total
        for other in others:
            if other.method != self.method:
                raise ValueError(
                    f"cannot merge stats of {self.method} and {other.method}"
                )
            merged.pairs += other.pairs
            merged.resolved_mbr += other.resolved_mbr
            merged.resolved_if += other.resolved_if
            merged.refined += other.refined
            merged.relation_counts += other.relation_counts
            merged.filter_seconds += other.filter_seconds
            merged.refine_seconds += other.refine_seconds
            merged.r_objects_accessed += other.r_objects_accessed
            merged.s_objects_accessed += other.s_objects_accessed
            merged.r_objects_total += other.r_objects_total
            merged.s_objects_total += other.s_objects_total
        return merged

    # ------------------------------------------------------------------
    # serialization (the structured-run-report format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict of all counters, timings and derived measures.

        Strictly finite: ``throughput`` is omitted when no time was
        recorded instead of serializing ``float("inf")``, which
        ``json.dumps`` renders as the invalid-JSON token ``Infinity``.
        """
        d = {
            "method": self.method,
            "pairs": self.pairs,
            "resolved_mbr": self.resolved_mbr,
            "resolved_if": self.resolved_if,
            "refined": self.refined,
            "relation_counts": {
                relation.value: count
                for relation, count in sorted(
                    self.relation_counts.items(), key=lambda kv: kv[0].value
                )
                if count
            },
            "filter_seconds": self.filter_seconds,
            "refine_seconds": self.refine_seconds,
            "total_seconds": self.total_seconds,
            "r_objects_accessed": self.r_objects_accessed,
            "s_objects_accessed": self.s_objects_accessed,
            "r_objects_total": self.r_objects_total,
            "s_objects_total": self.s_objects_total,
            "undetermined_pct": self.undetermined_pct,
            "geometry_access_pct": self.geometry_access_pct,
        }
        if self.total_seconds > 0.0:
            d["throughput"] = self.throughput
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "JoinRunStats":
        """Rebuild a stats record from :meth:`to_dict` output.

        Derived measures (``throughput`` etc.) are recomputed, not
        read back, so a round trip cannot smuggle in stale values.
        """
        stats = cls(method=data["method"])
        stats.pairs = int(data.get("pairs", 0))
        stats.resolved_mbr = int(data.get("resolved_mbr", 0))
        stats.resolved_if = int(data.get("resolved_if", 0))
        stats.refined = int(data.get("refined", 0))
        stats.relation_counts = Counter(
            {
                TopologicalRelation(value): count
                for value, count in data.get("relation_counts", {}).items()
            }
        )
        stats.filter_seconds = float(data.get("filter_seconds", 0.0))
        stats.refine_seconds = float(data.get("refine_seconds", 0.0))
        stats.r_objects_accessed = int(data.get("r_objects_accessed", 0))
        stats.s_objects_accessed = int(data.get("s_objects_accessed", 0))
        stats.r_objects_total = int(data.get("r_objects_total", 0))
        stats.s_objects_total = int(data.get("s_objects_total", 0))
        return stats

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.method}: {self.pairs} pairs, "
            f"{self.throughput:,.0f} pairs/s, "
            f"{self.undetermined_pct:.1f}% refined "
            f"(IF {self.filter_seconds:.3f}s, REF {self.refine_seconds:.3f}s)"
        )


__all__ = ["JoinRunStats"]
