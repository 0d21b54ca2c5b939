"""High-level classes over the paper's contribution.

:class:`TopologyJoin` is the class-shaped way in for downstream users:
give it two polygon collections, and the store engine behind it handles
grid sizing, APRIL preprocessing, the MBR filter-step join, and
find-relation / relate_p results through any of the four pipelines —
the P+C method of the paper by default. :class:`TopologySelection`
answers topological window queries over one collection.
"""

from repro.core.selection import TopologySelection
from repro.core.topology_join import JoinResult, TopologyJoin

__all__ = ["JoinResult", "TopologyJoin", "TopologySelection"]
