"""Table 2/3 benchmarks: preprocessing and the MBR filter step.

Times APRIL construction per entity class (Table 2's P+C column is its
space cost; this is its time cost) and the MBR intersection joins that
produce Table 3's candidate streams.
"""

import pytest

from repro.datasets import load_dataset
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.raster import RasterGrid, build_april_many
from repro.datasets.catalog import REGION

GRID = RasterGrid(REGION.expanded(1e-6), order=10)


@pytest.mark.parametrize("dataset", ("TL", "OBE", "OLE", "OPE"))
def test_table2_april_construction(benchmark, dataset):
    polygons = load_dataset(dataset, scale=0.2).polygons[:40]

    approx = benchmark(build_april_many, polygons, GRID)
    benchmark.extra_info["polygons"] = len(polygons)
    benchmark.extra_info["total_intervals"] = sum(len(a.p) + len(a.c) for a in approx)


def test_table3_mbr_join(benchmark):
    r_boxes = [p.bbox for p in load_dataset("OLE", scale=0.5).polygons]
    s_boxes = [p.bbox for p in load_dataset("OPE", scale=0.5).polygons]
    pairs = benchmark(plane_sweep_mbr_join, r_boxes, s_boxes)
    benchmark.extra_info["pairs"] = len(pairs)
