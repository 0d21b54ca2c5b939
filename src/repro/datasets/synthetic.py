"""Deterministic synthetic polygon generators.

Three families cover every entity class of the paper's Table 2:

- :func:`blob_polygon` / :func:`generate_blobs` — star-shaped polygons
  with smooth Fourier radial noise (lakes, parks, water areas,
  landmarks). Star-shapedness guarantees simplicity for any vertex
  count, so vertex complexity can be dialled from 8 to tens of
  thousands (the paper's complexity-scaling experiment, Table 4).
- :func:`rectilinear_polygon` / :func:`generate_buildings` — small
  axis-aligned footprints with optional notches, clustered into towns.
- :func:`generate_tessellation` — an edge-sharing perturbed-grid
  tessellation (counties, zip codes): neighbouring cells share their
  jittered boundary polylines *exactly*, so adjacent polygons genuinely
  *meet*, and independently-generated tessellations of the same region
  produce rich inside/covers/intersects mixes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.polygon import Polygon

Rng = np.random.Generator


# ----------------------------------------------------------------------
# blobs
# ----------------------------------------------------------------------
def blob_polygon(
    rng: Rng,
    cx: float,
    cy: float,
    mean_radius: float,
    num_vertices: int,
    roughness: float = 0.25,
) -> Polygon:
    """A star-shaped polygon around ``(cx, cy)``.

    The radius varies smoothly with angle via a few random Fourier
    harmonics; vertices sit at jittered-but-increasing angles, so the
    polygon is always simple.
    """
    if num_vertices < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    base = np.linspace(0.0, 2.0 * math.pi, num_vertices, endpoint=False)
    jitter = rng.uniform(-0.35, 0.35, num_vertices) * (2.0 * math.pi / num_vertices)
    angles = base + jitter

    radius = np.ones(num_vertices)
    for k in range(1, 5):
        amp = roughness / k * rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        radius += amp * np.sin(k * angles + phase)
    radius = np.maximum(radius, 0.15) * mean_radius

    xs = cx + radius * np.cos(angles)
    ys = cy + radius * np.sin(angles)
    return Polygon(list(zip(xs.tolist(), ys.tolist())))


def generate_blobs(
    rng: Rng,
    count: int,
    region: Box,
    radius_range: tuple[float, float],
    vertices_range: tuple[int, int],
    roughness: float = 0.25,
    hosts: Sequence[Polygon] | None = None,
    hosted_fraction: float = 0.0,
    couple_size_to_vertices: bool = True,
) -> list[Polygon]:
    """Scatter ``count`` blob polygons over ``region``.

    When ``hosts`` is given, a ``hosted_fraction`` share of the blobs is
    placed *inside* randomly chosen host polygons (shrunk to fit their
    inradius estimate), reproducing lake-in-park / building-in-park
    configurations without guaranteeing strict containment — the blob
    may still poke out of a concave host, which is exactly the
    covered-by/intersects ambiguity real data has.

    ``couple_size_to_vertices`` (default on, matching real OSM/TIGER
    digitisation) makes physical size grow log-linearly with the drawn
    vertex count: a 12-vertex lake is a pond, a 500-vertex lake spans
    many grid cells. This correlation is what the paper's
    complexity-scaling experiment (Fig. 8) rests on — low-complexity
    objects raster to few or no full cells.
    """
    lo_r, hi_r = radius_range
    lo_v, hi_v = vertices_range
    polygons: list[Polygon] = []
    for _ in range(count):
        # Log-uniform vertex counts: most real OSM/TIGER polygons are
        # simple, with a long tail of very detailed ones.
        num_vertices = int(round(math.exp(rng.uniform(math.log(lo_v), math.log(hi_v)))))
        num_vertices = min(max(num_vertices, lo_v), hi_v)
        if couple_size_to_vertices and hi_v > lo_v:
            t = (num_vertices - lo_v) / (hi_v - lo_v)
            coupled = lo_r * (hi_r / lo_r) ** t * rng.uniform(0.7, 1.4)
            coupled = min(max(coupled, lo_r), hi_r)
        else:
            coupled = None
        if hosts and rng.random() < hosted_fraction:
            # Place near/inside a host: centres spread across (and a bit
            # beyond) the host MBR so the scenario yields the full mix of
            # inside / covered-by-ish / intersects / meets-ish / disjoint
            # outcomes that real lake-park data has.
            host = hosts[int(rng.integers(0, len(hosts)))]
            hb = host.bbox
            cx = rng.uniform(hb.xmin - 0.1 * hb.width, hb.xmax + 0.1 * hb.width)
            cy = rng.uniform(hb.ymin - 0.1 * hb.height, hb.ymax + 0.1 * hb.height)
            max_r = 0.3 * min(hb.width, hb.height)
            radius = min(coupled if coupled is not None else rng.uniform(lo_r, hi_r), max_r)
            radius = max(radius, 1e-3 * min(hb.width, hb.height))
        else:
            radius = coupled if coupled is not None else rng.uniform(lo_r, hi_r)
            cx = rng.uniform(region.xmin + radius, region.xmax - radius)
            cy = rng.uniform(region.ymin + radius, region.ymax - radius)
        polygons.append(blob_polygon(rng, cx, cy, radius, num_vertices, roughness))
    return polygons


# ----------------------------------------------------------------------
# buildings
# ----------------------------------------------------------------------
def rectilinear_polygon(
    rng: Rng,
    cx: float,
    cy: float,
    width: float,
    height: float,
    notch_probability: float = 0.5,
) -> Polygon:
    """A building footprint: a rectangle, possibly with an L/T notch."""
    x0, x1 = cx - width / 2.0, cx + width / 2.0
    y0, y1 = cy - height / 2.0, cy + height / 2.0
    if rng.random() >= notch_probability:
        return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    # Cut a notch out of a randomly chosen corner.
    nw = width * rng.uniform(0.2, 0.45)
    nh = height * rng.uniform(0.2, 0.45)
    corner = int(rng.integers(0, 4))
    if corner == 0:  # lower-left
        pts = [(x0 + nw, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0 + nh), (x0 + nw, y0 + nh)]
    elif corner == 1:  # lower-right
        pts = [(x0, y0), (x1 - nw, y0), (x1 - nw, y0 + nh), (x1, y0 + nh), (x1, y1), (x0, y1)]
    elif corner == 2:  # upper-right
        pts = [(x0, y0), (x1, y0), (x1, y1 - nh), (x1 - nw, y1 - nh), (x1 - nw, y1), (x0, y1)]
    else:  # upper-left
        pts = [(x0, y0), (x1, y0), (x1, y1), (x0 + nw, y1), (x0 + nw, y1 - nh), (x0, y1 - nh)]
    return Polygon(pts)


def generate_buildings(
    rng: Rng,
    count: int,
    region: Box,
    size_range: tuple[float, float],
    cluster_count: int = 12,
    hosts: Sequence[Polygon] | None = None,
    hosted_fraction: float = 0.0,
) -> list[Polygon]:
    """Small rectilinear footprints grouped into ``cluster_count`` towns."""
    lo, hi = size_range
    centers = [
        (
            rng.uniform(region.xmin + 0.05 * region.width, region.xmax - 0.05 * region.width),
            rng.uniform(region.ymin + 0.05 * region.height, region.ymax - 0.05 * region.height),
        )
        for _ in range(max(1, cluster_count))
    ]
    spread = 0.04 * min(region.width, region.height)
    polygons: list[Polygon] = []
    for _ in range(count):
        if hosts and rng.random() < hosted_fraction:
            host = hosts[int(rng.integers(0, len(hosts)))]
            hb = host.bbox
            cx = rng.uniform(hb.xmin + 0.25 * hb.width, hb.xmax - 0.25 * hb.width)
            cy = rng.uniform(hb.ymin + 0.25 * hb.height, hb.ymax - 0.25 * hb.height)
        else:
            base = centers[int(rng.integers(0, len(centers)))]
            cx = base[0] + rng.normal(0.0, spread)
            cy = base[1] + rng.normal(0.0, spread)
        w = rng.uniform(lo, hi)
        h = rng.uniform(lo, hi)
        polygons.append(rectilinear_polygon(rng, cx, cy, w, h))
    return polygons


# ----------------------------------------------------------------------
# tessellations
# ----------------------------------------------------------------------
def generate_tessellation(
    rng: Rng,
    region: Box,
    nx: int,
    ny: int,
    corner_jitter: float = 0.3,
    edge_points: int = 4,
    edge_jitter: float = 0.12,
) -> list[Polygon]:
    """An ``nx x ny`` edge-sharing tessellation of ``region``.

    Grid corners are displaced by up to ``corner_jitter`` of a cell;
    each edge is subdivided into ``edge_points + 1`` segments whose
    interior points get a perpendicular displacement of up to
    ``edge_jitter`` of a cell. The per-edge polylines are generated
    once and shared by both adjacent cells, so neighbours have exactly
    coincident boundaries (true *meets* relations), and cells never
    overlap for the default jitter levels.
    """
    if nx < 1 or ny < 1:
        raise ValueError("tessellation needs nx >= 1 and ny >= 1")
    cell_w = region.width / nx
    cell_h = region.height / ny

    # Displaced corners; the outer frame stays on the region border so
    # the tessellation exactly tiles the region.
    corners = np.empty((nx + 1, ny + 1, 2))
    for i in range(nx + 1):
        for j in range(ny + 1):
            dx = 0.0 if i in (0, nx) else rng.uniform(-corner_jitter, corner_jitter) * cell_w
            dy = 0.0 if j in (0, ny) else rng.uniform(-corner_jitter, corner_jitter) * cell_h
            corners[i, j] = (region.xmin + i * cell_w + dx, region.ymin + j * cell_h + dy)

    def subdivide(p: np.ndarray, q: np.ndarray, boundary: bool) -> list[tuple[float, float]]:
        """Points strictly between p and q (exclusive of both)."""
        if edge_points <= 0:
            return []
        direction = q - p
        length = float(np.hypot(direction[0], direction[1]))
        if length == 0.0:
            return []
        normal = np.array([-direction[1], direction[0]]) / length
        pts = []
        for k in range(1, edge_points + 1):
            t = k / (edge_points + 1)
            base = p + t * direction
            if boundary:
                offset = 0.0  # keep the region border straight
            else:
                offset = rng.uniform(-edge_jitter, edge_jitter) * min(cell_w, cell_h)
            pts.append((float(base[0] + offset * normal[0]), float(base[1] + offset * normal[1])))
        return pts

    # Shared edge polylines: horizontal edges h[i][j] from corner (i,j)
    # to (i+1,j); vertical edges v[i][j] from corner (i,j) to (i,j+1).
    h_edges: dict[tuple[int, int], list[tuple[float, float]]] = {}
    v_edges: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for i in range(nx):
        for j in range(ny + 1):
            h_edges[(i, j)] = subdivide(corners[i, j], corners[i + 1, j], boundary=j in (0, ny))
    for i in range(nx + 1):
        for j in range(ny):
            v_edges[(i, j)] = subdivide(corners[i, j], corners[i, j + 1], boundary=i in (0, nx))

    polygons: list[Polygon] = []
    for i in range(nx):
        for j in range(ny):
            ring: list[tuple[float, float]] = []
            ring.append(tuple(corners[i, j]))
            ring.extend(h_edges[(i, j)])
            ring.append(tuple(corners[i + 1, j]))
            ring.extend(v_edges[(i + 1, j)])
            ring.append(tuple(corners[i + 1, j + 1]))
            ring.extend(reversed(h_edges[(i, j + 1)]))
            ring.append(tuple(corners[i, j + 1]))
            ring.extend(reversed(v_edges[(i, j)]))
            polygons.append(Polygon(ring))
    return polygons


__all__ = [
    "blob_polygon",
    "generate_blobs",
    "generate_buildings",
    "generate_tessellation",
    "rectilinear_polygon",
]
