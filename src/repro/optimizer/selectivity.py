"""Grid histograms and topology-query selectivity estimation.

A :class:`SpatialHistogram` summarises a dataset on a coarse uniform
grid of *MBR centers* plus the average MBR extent. The classic
Minkowski-sum estimators then give expected cardinalities without
touching the data:

- an average-sized MBR intersects a window ``W`` iff its center falls
  in ``W`` expanded by half the average extent;
- it lies inside ``W`` iff its center falls in ``W`` shrunk by half the
  average extent;
- two average-sized MBRs with centers uniform in the same bucket
  intersect with probability ``min(1, (wr+ws)/bw) * min(1, (hr+hs)/bh)``.

These are the numbers a query optimiser would need — the MBR-join
output size bounds every topology pipeline's work. Estimates are tested
to be (a) zero on empty regions, (b) capped by the population, and (c)
within a small factor of the truth on uniform and scenario workloads.

**Measured accuracy, and who relies on it.** On the outside-in
benchmark's fixed-map workloads (``bench/run.py``, metric
``optimizer.estimate_rel_err`` = ``|estimate - true| / true``) the join
estimate is off by 0.85–0.90 on three of the four — the average-extent
model does not survive skewed MBR sizes (a few parks against thousands
of buildings). Nothing in the engine decides on it: ``mode="auto"``
reads the *exact* candidate count of the pair set it is about to
verify. Treat the estimators as an order-of-magnitude planning aid for
callers of :meth:`repro.store.Engine.estimate_pairs`, not as a cost
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.raster.grid import pad_dataspace

DEFAULT_BUCKETS = 32


@dataclass(frozen=True)
class SpatialHistogram:
    """A uniform-grid center histogram of one dataset's MBRs."""

    extent: Box
    buckets_per_dim: int
    #: (buckets, buckets) float array of center counts, [iy, ix].
    counts: np.ndarray
    avg_width: float
    avg_height: float
    num_objects: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        boxes: Sequence[Box],
        buckets_per_dim: int = DEFAULT_BUCKETS,
        extent: Box | None = None,
    ) -> "SpatialHistogram":
        """Summarise ``boxes``: one count per MBR center, avg extents."""
        if not boxes:
            raise ValueError("cannot build a histogram over zero boxes")
        if buckets_per_dim < 1:
            raise ValueError("need at least one bucket per dimension")
        if extent is None:
            extent = pad_dataspace(Box.union_all(boxes))
        counts = np.zeros((buckets_per_dim, buckets_per_dim))
        bw = extent.width / buckets_per_dim or 1.0
        bh = extent.height / buckets_per_dim or 1.0

        total_w = total_h = 0.0
        for box in boxes:
            total_w += box.width
            total_h += box.height
            cx, cy = box.center
            ix = _clamp(int((cx - extent.xmin) / bw), buckets_per_dim)
            iy = _clamp(int((cy - extent.ymin) / bh), buckets_per_dim)
            counts[iy, ix] += 1.0
        n = len(boxes)
        return SpatialHistogram(
            extent=extent,
            buckets_per_dim=buckets_per_dim,
            counts=counts,
            avg_width=total_w / n,
            avg_height=total_h / n,
            num_objects=n,
        )

    @property
    def bucket_width(self) -> float:
        return self.extent.width / self.buckets_per_dim

    @property
    def bucket_height(self) -> float:
        return self.extent.height / self.buckets_per_dim

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def estimate_window_candidates(self, window: Box) -> float:
        """Expected number of MBRs intersecting ``window``."""
        expanded = Box(
            window.xmin - self.avg_width / 2.0,
            window.ymin - self.avg_height / 2.0,
            window.xmax + self.avg_width / 2.0,
            window.ymax + self.avg_height / 2.0,
        )
        return min(self._center_integral(expanded), float(self.num_objects))

    def estimate_window_containment(self, window: Box) -> float:
        """Expected number of MBRs entirely inside ``window``."""
        xmin = window.xmin + self.avg_width / 2.0
        ymin = window.ymin + self.avg_height / 2.0
        xmax = window.xmax - self.avg_width / 2.0
        ymax = window.ymax - self.avg_height / 2.0
        if xmin >= xmax or ymin >= ymax:
            return 0.0
        return min(self._center_integral(Box(xmin, ymin, xmax, ymax)), float(self.num_objects))

    def _center_integral(self, region: Box) -> float:
        """Expected number of centers in ``region`` (fractional-bucket)."""
        clipped = region.intersection(self.extent)
        if clipped is None:
            return 0.0
        bw = self.bucket_width
        bh = self.bucket_height
        ix0 = _clamp(int((clipped.xmin - self.extent.xmin) / bw), self.buckets_per_dim)
        ix1 = _clamp(
            int(math.ceil((clipped.xmax - self.extent.xmin) / bw)) - 1, self.buckets_per_dim
        )
        iy0 = _clamp(int((clipped.ymin - self.extent.ymin) / bh), self.buckets_per_dim)
        iy1 = _clamp(
            int(math.ceil((clipped.ymax - self.extent.ymin) / bh)) - 1, self.buckets_per_dim
        )
        ix1 = max(ix1, ix0)
        iy1 = max(iy1, iy0)

        total = 0.0
        for iy in range(iy0, iy1 + 1):
            y0 = self.extent.ymin + iy * bh
            fy = _overlap_1d(clipped.ymin, clipped.ymax, y0, y0 + bh) / bh
            for ix in range(ix0, ix1 + 1):
                x0 = self.extent.xmin + ix * bw
                fx = _overlap_1d(clipped.xmin, clipped.xmax, x0, x0 + bw) / bw
                total += self.counts[iy, ix] * fx * fy
        return total


def estimate_join_candidates(r_hist: SpatialHistogram, s_hist: SpatialHistogram) -> float:
    """Expected size of the MBR-intersection join of two datasets.

    Minkowski model with centers uniform within their bucket: two
    average-sized MBRs intersect iff their center offset is at most
    ``(wr+ws)/2`` per axis, so a pair of buckets at integer offset
    ``d`` contributes with the exact triangular-convolution probability
    ``P(|U1 - U2 + d| <= t)`` (``t`` the reach in bucket units). The
    estimate sums that probability over every bucket-offset within
    reach — the cross-bucket smoothing that keeps the estimator honest
    when MBRs span many buckets (tessellations, admin boundaries),
    where a same-bucket-only product collapses toward zero. Capped by
    ``|R| * |S|``.
    """
    if r_hist.extent != s_hist.extent or r_hist.buckets_per_dim != s_hist.buckets_per_dim:
        raise ValueError("histograms must share extent and resolution")
    bw = r_hist.bucket_width
    bh = r_hist.bucket_height
    tx = ((r_hist.avg_width + s_hist.avg_width) / 2.0) / bw if bw else math.inf
    ty = ((r_hist.avg_height + s_hist.avg_height) / 2.0) / bh if bh else math.inf
    px = _offset_probabilities(tx, r_hist.buckets_per_dim)
    py = _offset_probabilities(ty, r_hist.buckets_per_dim)
    total = 0.0
    for dy, p_y in py:
        for dx, p_x in px:
            weight = p_x * p_y
            if weight <= 0.0:
                continue
            total += weight * _shifted_product(r_hist.counts, s_hist.counts, dy, dx)
    cap = float(r_hist.num_objects) * float(s_hist.num_objects)
    return float(min(total, cap))


def _triangular_cdf(z: float) -> float:
    """CDF of ``U1 - U2`` for independent uniforms on ``[0, 1)``."""
    if z <= -1.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    if z <= 0.0:
        return (1.0 + z) ** 2 / 2.0
    return 1.0 - (1.0 - z) ** 2 / 2.0


def _offset_probabilities(t: float, buckets: int) -> list[tuple[int, float]]:
    """``(bucket offset, P(|U1 - U2 + d| <= t))`` for offsets in reach.

    ``t`` is the per-axis Minkowski reach in bucket units; an infinite
    reach (degenerate bucket size) means every offset intersects.
    """
    if not math.isfinite(t):
        return [(d, 1.0) for d in range(-(buckets - 1), buckets)]
    reach = min(buckets - 1, int(math.ceil(t)) + 1)
    out = []
    for d in range(-reach, reach + 1):
        p = _triangular_cdf(t - d) - _triangular_cdf(-t - d)
        if p > 1e-12:
            out.append((d, p))
    return out


def _shifted_product(a: np.ndarray, b: np.ndarray, dy: int, dx: int) -> float:
    """``sum_{i,j} a[i, j] * b[i - dy, j - dx]`` over valid indices."""
    h, w = a.shape
    ay0, ay1 = max(0, dy), min(h, h + dy)
    ax0, ax1 = max(0, dx), min(w, w + dx)
    if ay0 >= ay1 or ax0 >= ax1:
        return 0.0
    return float(
        (a[ay0:ay1, ax0:ax1] * b[ay0 - dy : ay1 - dy, ax0 - dx : ax1 - dx]).sum()
    )


def _overlap_1d(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _clamp(value: int, buckets: int) -> int:
    return min(buckets - 1, max(0, value))


__all__ = ["SpatialHistogram", "estimate_join_candidates"]
