"""High-level classes over the paper's contribution.

:class:`TopologySelection` answers topological window queries over one
collection. Whole-dataset joins go through
:meth:`repro.store.Engine.join`.
"""

from repro.core.selection import TopologySelection

__all__ = ["TopologySelection"]
