"""The unified join result envelope.

:class:`JoinRun` is the one envelope every execution mode returns:
per-pair links, merged statistics, and execution metadata (mode, wall
clock, worker/partition counts), regardless of how the join was
executed.

``JoinRun`` unpacks as ``results, stats = run`` so pre-envelope callers
keep working; relate_p runs unpack their matches as ``(i, j)`` pairs,
matching the historical ``run_predicate`` shape.

Since PR 9 the envelope also owns the **frozen v1 wire schema**:
:meth:`JoinRun.to_wire` / :meth:`JoinRun.from_wire` are the single
serialization contract shared by the HTTP join service
(:mod:`repro.serve`), the structured run reports, and the CLI. The wire
document is versioned (``api_version``), JSON-safe (strictly finite
floats — :mod:`repro.serve.schema` enforces the NaN/Infinity ban at the
byte layer), and forward-compatible: decoders ignore unknown fields and
trailing result-row elements, so a v1 reader survives additive v1.x
growth. ``tests/golden/joinrun_wire_v1.json`` pins the exact v1 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

from repro.join.stats import JoinRunStats
from repro.topology.de9im import TopologicalRelation

#: Version stamped into (and required from) every wire document. Bump
#: only on an incompatible change of the envelope; additive growth —
#: new top-level fields, new trailing result-row elements — stays
#: within v1 because decoders tolerate it.
WIRE_VERSION = 1


class JoinResult(NamedTuple):
    """One discovered link: indices into the two inputs + provenance.

    A named tuple, not a dataclass: a join builds one per result row,
    and a tuple is several times cheaper to make."""

    r_index: int
    s_index: int
    relation: TopologicalRelation
    #: True when the relation was proven without DE-9IM refinement;
    #: None for relate_p matches, where the stage is not tracked per pair.
    filtered: bool | None


@dataclass
class JoinRun:
    """What one join execution produced, independent of how it ran."""

    #: Discovered links in ``(r_index, s_index)`` order.
    results: list[JoinResult]
    stats: JoinRunStats
    method: str
    #: What ran, not what was asked for: ``"serial"`` (one partition,
    #: in-process — also what ``mode="batch"`` and a one-worker
    #: ``"parallel"`` request run) or ``"parallel"`` (partitions fanned
    #: out over ``workers`` processes).
    mode: str
    #: ``"find"`` for find-relation runs, ``"relate"`` for relate_p.
    kind: str = "find"
    predicate: TopologicalRelation | None = None
    #: End-to-end elapsed seconds, including pool orchestration.
    wall_seconds: float = 0.0
    workers: int = 1
    partitions: int = 1
    #: Execution extras (grid order, dataset names, quarantine, ...).
    meta: dict = field(default_factory=dict)

    @property
    def matches(self) -> list[tuple[int, int]]:
        """Result pairs as bare ``(r_index, s_index)`` tuples."""
        return [(link.r_index, link.s_index) for link in self.results]

    def __iter__(self) -> Iterator:
        """Unpack as ``results, stats`` (``matches, stats`` for relate_p),
        the shapes the pre-envelope entry points returned."""
        yield self.matches if self.kind == "relate" else self.results
        yield self.stats

    def __len__(self) -> int:
        return len(self.results)

    def to_dict(self) -> dict:
        """JSON-safe *summary* (no per-pair rows) for logs and digests.

        The lossy sibling of :meth:`to_wire`: identical envelope fields,
        but the result rows collapse to their count. Use :meth:`to_wire`
        wherever the run must be reconstructible.
        """
        d = self.to_wire()
        d["links"] = len(d.pop("results"))
        if d["predicate"] is None:
            del d["predicate"]
        if not d["meta"]:
            del d["meta"]
        return d

    # ------------------------------------------------------------------
    # the frozen v1 wire schema
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """The run as its canonical, versioned wire document.

        One result row per link, as a ``[r_index, s_index, relation,
        filtered]`` list (``filtered`` is ``null`` for relate_p rows);
        stats via :meth:`JoinRunStats.to_dict`, whose derived measures a
        decoder recomputes rather than trusts. The document is plain
        JSON-safe dicts/lists — hand it to
        :func:`repro.serve.schema.dumps_wire` for bytes that are
        guaranteed free of non-finite floats.
        """
        return {
            "api_version": WIRE_VERSION,
            "kind": self.kind,
            "method": self.method,
            "mode": self.mode,
            "predicate": self.predicate.value if self.predicate else None,
            "results": [
                [link.r_index, link.s_index, link.relation.value, link.filtered]
                for link in self.results
            ],
            "stats": self.stats.to_dict(),
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "partitions": self.partitions,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_wire(cls, wire: Mapping) -> "JoinRun":
        """Rebuild a run from :meth:`to_wire` output.

        Raises :class:`ValueError` on a missing/foreign ``api_version``
        or malformed rows. Unknown top-level fields and trailing
        result-row elements are ignored (forward compatibility within
        v1); derived stats measures are recomputed by
        :meth:`JoinRunStats.from_dict`, so a round trip is bit-identical
        for every execution mode.
        """
        version = wire.get("api_version")
        if version != WIRE_VERSION:
            raise ValueError(
                f"unsupported wire api_version {version!r} "
                f"(this build speaks version {WIRE_VERSION})"
            )
        predicate = wire.get("predicate")
        results = []
        for row in wire.get("results", ()):
            if len(row) < 4:
                raise ValueError(f"malformed result row {row!r}: expected "
                                 "[r_index, s_index, relation, filtered]")
            r_index, s_index, relation, filtered = row[0], row[1], row[2], row[3]
            results.append(
                JoinResult(
                    int(r_index),
                    int(s_index),
                    TopologicalRelation(relation),
                    None if filtered is None else bool(filtered),
                )
            )
        return cls(
            results=results,
            stats=JoinRunStats.from_dict(dict(wire.get("stats", {"method": ""}))),
            method=str(wire.get("method", "")),
            mode=str(wire.get("mode", "")),
            kind=str(wire.get("kind", "find")),
            predicate=None if predicate is None else TopologicalRelation(predicate),
            wall_seconds=float(wire.get("wall_seconds", 0.0)),
            workers=int(wire.get("workers", 1)),
            partitions=int(wire.get("partitions", 1)),
            meta=dict(wire.get("meta", {})),
        )


__all__ = ["JoinResult", "JoinRun", "WIRE_VERSION"]
