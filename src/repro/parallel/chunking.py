"""The one in-memory splitter: contiguous chunks.

Both fan-outs — candidate pairs to verify, polygons to rasterise — cut
their input into contiguous slices, several per worker, so stragglers
(chunks dense in refinement-bound pairs or high-vertex polygons) are
rebalanced across workers instead of stalling the run on its slowest
slice.
"""

from __future__ import annotations

import math
from typing import Sequence, TypeVar

T = TypeVar("T")

#: Target number of chunks handed to each worker; >1 smooths skew.
CHUNKS_PER_WORKER = 4


def chunk_pairs(items: Sequence[T], workers: int) -> list[list[T]]:
    """Split ``items`` (a pair stream, or any sequence) into roughly
    ``workers * CHUNKS_PER_WORKER`` equal contiguous chunks.

    Every item lands in exactly one chunk and relative order is
    preserved, so concatenating chunk results in chunk order reproduces
    the input order exactly.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if not items:
        return []
    size = max(1, math.ceil(len(items) / (workers * CHUNKS_PER_WORKER)))
    return [items[k : k + size] for k in range(0, len(items), size)]


__all__ = ["CHUNKS_PER_WORKER", "chunk_pairs"]
