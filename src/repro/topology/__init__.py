"""DE-9IM topology engine — the pipeline's refinement step.

The paper delegates refinement to ``boost::geometry::relation``; this
package is the equivalent from-scratch engine. It computes the boolean
DE-9IM matrix of two polygons (Sec. 2.1), implements the Table-1 relation
masks, and exposes :func:`most_specific_relation` which matches masks in
specific-to-general order exactly as Algorithm 1's ``Refine`` step does.
"""

from repro.topology.de9im import (
    DE9IM,
    MASKS,
    SPECIFIC_TO_GENERAL,
    TopologicalRelation,
    matrix_matches_any,
    most_specific_relation,
)
from repro.topology.mixed import intersects_mixed, relate_mixed
from repro.topology.relate import (
    RelateDetails,
    relate,
    relate_details,
    relate_dimensioned,
    relate_many,
    relate_pattern,
)

__all__ = [
    "DE9IM",
    "MASKS",
    "SPECIFIC_TO_GENERAL",
    "TopologicalRelation",
    "RelateDetails",
    "matrix_matches_any",
    "most_specific_relation",
    "intersects_mixed",
    "relate",
    "relate_details",
    "relate_dimensioned",
    "relate_many",
    "relate_mixed",
    "relate_pattern",
]
