#!/usr/bin/env python3
"""A guided tour of the paper, section by section, on live data.

Walks the EDBT 2026 paper's storyline with running code:

  §2.1  DE-9IM matrices and masks
  §2.3  APRIL approximations (P and C interval lists)
  §3.1  the enhanced MBR filter (Fig. 4 cases)
  §3.2  the intermediate filters (Fig. 5) with an explain trace
  §3.3  relate_p predicate filters (Fig. 6)
  §4    a miniature evaluation (Fig. 7-style method comparison)

Run:  python examples/paper_walkthrough.py
"""

from repro.datasets import load_scenario
from repro.filters.mbr import classify_mbr_pair
from repro.geometry import Polygon
from repro.join.explain import explain_pair
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES, run_find_relation, run_relate
from repro.geometry import Box
from repro.raster import RasterGrid, build_april
from repro.topology import (
    TopologicalRelation as T,
    most_specific_relation,
    relate,
)


def section(title: str) -> None:
    print(f"\n{'=' * 64}\n{title}\n{'=' * 64}")


def main() -> None:
    # ------------------------------------------------------------ §2.1
    section("§2.1 DE-9IM: the matrix behind every relation")
    park = Polygon([(0, 0), (40, 2), (44, 38), (20, 46), (-2, 30)])
    lake = Polygon([(10, 10), (22, 8), (26, 20), (14, 24)])
    matrix = relate(lake, park)
    print(f"lake vs park: boolean code {matrix.code}")
    print("     park I B E")
    for k, part in enumerate("IBE"):
        print(f"  lake {part}  {' '.join(matrix.code[3 * k : 3 * k + 3])}")
    print(f"most specific relation: {most_specific_relation(matrix).value}")

    # ------------------------------------------------------------ §2.3
    section("§2.3 APRIL: Progressive and Conservative interval lists")
    grid = RasterGrid(Box(-10, -10, 60, 60), order=9)
    lake_april = build_april(lake, grid)
    park_april = build_april(park, grid)
    print(f"grid: 2^9 x 2^9 cells over the dataspace")
    print(f"lake: P={len(lake_april.p)} intervals covering "
          f"{lake_april.p.cell_count} cells; C={len(lake_april.c)} intervals")
    print(f"park: P={len(park_april.p)} intervals, C={len(park_april.c)} intervals")
    print(f"interval fact for the filter: lake.C inside park.P = "
          f"{lake_april.c.inside(park_april.p)}  (proves touch-free containment)")

    # ------------------------------------------------------------ §3.1
    section("§3.1 The enhanced MBR filter (Fig. 4)")
    for name, other in [
        ("equal MBRs", Polygon.box(*[lake.bbox.xmin, lake.bbox.ymin, lake.bbox.xmax, lake.bbox.ymax])),
        ("contained MBR", park),
        ("crossing MBRs", Polygon([(12, -20), (20, -20), (20, 70), (12, 70)])),
        ("plain overlap", Polygon.box(20, 15, 50, 40)),
    ]:
        case = classify_mbr_pair(lake.bbox, other.bbox)
        print(f"lake vs {name:<14} -> MBR case: {case.value}")

    # ------------------------------------------------------------ §3.2
    section("§3.2 The intermediate filter, traced (Fig. 5 / Alg. 1)")
    r = SpatialObject.from_polygon(0, lake, grid)
    s = SpatialObject.from_polygon(1, park, grid)
    print(explain_pair(r, s).render())

    # ------------------------------------------------------------ §3.3
    section("§3.3 relate_p: ask one predicate, cheaply (Fig. 6)")
    from repro.join.pipeline import relate_predicate

    for predicate in (T.INSIDE, T.MEETS, T.EQUALS):
        holds, stage = relate_predicate(predicate, r, s)
        how = "filter only" if stage.value != "refinement" else "needed DE-9IM"
        print(f"lake {predicate.value:<10} park? {str(holds):<5} ({how})")

    # ------------------------------------------------------------ §4
    section("§4 Evaluation in miniature (Fig. 7 shape)")
    scenario = load_scenario("OLE-OPE", scale=0.4, grid_order=10)
    print(f"scenario OLE-OPE (scale 0.4): {scenario.num_candidates} candidate pairs")
    print(f"{'method':<8} {'pairs/s':>10} {'refined %':>10}")
    for method in ("ST2", "OP2", "APRIL", "P+C"):
        stats = run_find_relation(
            method, scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        print(f"{method:<8} {stats.throughput:>10,.0f} {stats.undetermined_pct:>9.1f}%")
    meets = run_relate(T.MEETS, scenario.r_objects, scenario.s_objects, scenario.pairs)
    print(f"\nrelate[meets]: {meets.throughput:,.0f} pairs/s, "
          f"{meets.undetermined_pct:.1f}% refined (Table 5's shape)")


if __name__ == "__main__":
    main()
