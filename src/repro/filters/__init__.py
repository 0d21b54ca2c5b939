"""The paper's filter stack.

- :mod:`repro.filters.mbr` — the *enhanced MBR filter* of Sec. 3.1:
  classifies how two MBRs intersect and derives the candidate-relation
  set of Fig. 4.
- :mod:`repro.filters.intermediate` — one decision tree per
  find-relation method, P+C's with the *intermediate filters* of
  Sec. 3.2 / Fig. 5 (IFEquals, IFInside, IFContains, IFIntersects),
  whose leaves prove the most specific relation or narrow the
  refinement candidates.
- :mod:`repro.filters.relate_filters` — the predicate-specific
  ``relate_p`` filters of Sec. 3.3 / Fig. 6, one decision tree per
  predicate over the per-pair bits of :mod:`repro.filters.pair_bits`.
"""

from repro.filters.intermediate import FIND_TREES, IFResult, Leaf, Stage
from repro.filters.mbr import (
    MBR_CANDIDATES,
    MBRRelationship,
    classify_mbr_pair,
    mbr_candidates,
)
from repro.filters.relate_filters import RelateVerdict, relate_filter

__all__ = [
    "FIND_TREES",
    "IFResult",
    "Leaf",
    "MBRRelationship",
    "MBR_CANDIDATES",
    "RelateVerdict",
    "Stage",
    "classify_mbr_pair",
    "mbr_candidates",
    "relate_filter",
]
