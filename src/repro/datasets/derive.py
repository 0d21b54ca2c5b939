"""Derived datasets with known ground-truth links.

Geo-interlinking evaluations (RADON [31], the paper's Table 5) need
pairs in *specific* relations — exact duplicates for ``equals``,
contained copies for ``inside``, border-sharing copies for ``meets``.
Natural random data contains almost none of these measure-zero events,
so benchmarks derive a second dataset from the first with controlled
transformations and record the intended relation per object.

:func:`derive_dataset` produces, per source polygon, one derived
polygon chosen from: an exact **copy** (equals), a **shrunk** copy
strictly inside the source (contains, from the source's viewpoint), a
**grown** copy containing it (inside), a **translated-away** copy
(disjoint), or a **shifted-overlap** copy (intersects). The returned
provenance lets experiments measure interlinking *recall* exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.polygon import Polygon
from repro.topology.de9im import TopologicalRelation as T

#: Derivation kinds and the relation source-vs-derived they induce.
KIND_RELATIONS = {
    "copy": T.EQUALS,
    "shrunk": T.CONTAINS,
    "grown": T.INSIDE,
    "moved": T.DISJOINT,
    "shifted": T.INTERSECTS,
}


@dataclass(frozen=True)
class DerivedDataset:
    """A derived polygon list plus its per-object ground truth.

    ``kinds`` records the transformation applied; ``relations`` the
    *verified* source-vs-derived relation (computed with the DE-9IM
    engine at derivation time, because e.g. a crescent scaled about its
    bbox center may poke outside itself — intent is not proof).
    """

    polygons: list[Polygon]
    #: kinds[i] is the derivation applied to source polygon i.
    kinds: list[str]
    #: relations[i] is the verified relation source[i] vs polygons[i].
    relations: list[T]

    def expected_relation(self, index: int) -> T:
        """Verified relation of ``source[index]`` vs ``derived[index]``."""
        return self.relations[index]

    def intended_relation(self, index: int) -> T:
        """The relation the derivation *aimed* for."""
        return KIND_RELATIONS[self.kinds[index]]


def derive_dataset(
    source: list[Polygon],
    seed: int = 0,
    copy_fraction: float = 0.25,
    shrunk_fraction: float = 0.2,
    grown_fraction: float = 0.2,
    moved_fraction: float = 0.15,
) -> DerivedDataset:
    """Derive one polygon per source polygon with known relations.

    The remaining probability mass produces *shifted* copies
    (overlapping the source). Derivations are deterministic given
    ``seed``.
    """
    fractions = (copy_fraction, shrunk_fraction, grown_fraction, moved_fraction)
    if any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-12:
        raise ValueError("fractions must be non-negative and sum to at most 1")
    rng = np.random.default_rng(seed)
    thresholds = np.cumsum(fractions)

    polygons: list[Polygon] = []
    kinds: list[str] = []
    for polygon in source:
        u = rng.random()
        bbox = polygon.bbox
        span = max(bbox.width, bbox.height)
        if u < thresholds[0]:
            kinds.append("copy")
            polygons.append(polygon)
        elif u < thresholds[1]:
            kinds.append("shrunk")
            polygons.append(polygon.scaled(rng.uniform(0.35, 0.6)))
        elif u < thresholds[2]:
            kinds.append("grown")
            polygons.append(polygon.scaled(rng.uniform(1.6, 2.2)))
        elif u < thresholds[3]:
            kinds.append("moved")
            # Far enough that even the grown MBR cannot reach back.
            distance = span * rng.uniform(3.0, 5.0)
            angle = rng.uniform(0, 2 * np.pi)
            polygons.append(
                polygon.translated(distance * np.cos(angle), distance * np.sin(angle))
            )
        else:
            kinds.append("shifted")
            # Shift by a fraction of the span: guaranteed MBR overlap,
            # near-certain interior overlap for star-shaped sources.
            polygons.append(
                polygon.translated(span * rng.uniform(0.1, 0.3), span * rng.uniform(0.1, 0.3))
            )

    from repro.topology import most_specific_relation, relate_many

    relations = [
        most_specific_relation(details.matrix)
        for details in relate_many(list(zip(source, polygons)))
    ]
    return DerivedDataset(polygons=polygons, kinds=kinds, relations=relations)


__all__ = ["DerivedDataset", "KIND_RELATIONS", "derive_dataset"]
