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
    most_specific_relation,
)
from repro.topology.relate import (
    RelateDetails,
    relate,
    relate_details,
    relate_many,
)

__all__ = [
    "DE9IM",
    "MASKS",
    "SPECIFIC_TO_GENERAL",
    "TopologicalRelation",
    "RelateDetails",
    "most_specific_relation",
    "relate",
    "relate_details",
    "relate_many",
]
