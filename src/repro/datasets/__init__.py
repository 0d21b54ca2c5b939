"""Synthetic TIGER/OSM-style polygon datasets.

The paper evaluates on TIGER 2015 and OpenStreetMap collections
(landmarks, water areas, counties, zip codes, buildings, lakes, parks).
Those datasets are not redistributable here, so this package generates
deterministic synthetic stand-ins that reproduce each entity class's
*geometric regime* — the property the filters actually respond to:

- administrative layers (counties/zip codes) are edge-sharing
  tessellations, producing *meets* / *inside* / *covers* mixes;
- natural areas (lakes, parks, water, landmarks) are star-shaped "blob"
  polygons with class-specific size and vertex-count distributions;
- buildings are small rectilinear footprints clustered into towns, and
  partially placed inside parks to reproduce the OBx-OPx scenarios.

All generators take an explicit seed and are fully deterministic.
"""

from repro._lazy import lazy_exports

#: Every name resolves on first read (PEP 562): a cold join reads its
#: ``.wkt`` inputs through ``repro.datasets.io`` and must not wait for
#: the catalog and the generators to load.
_LAZY = {
    **dict.fromkeys(
        ("DATASETS", "SCENARIOS", "ScenarioData", "SpatialDataset", "dataset_names",
         "load_dataset", "load_scenario", "scenario_names"),
        "repro.datasets.catalog",
    ),
    **dict.fromkeys(("load_wkt_file", "save_wkt_file"), "repro.datasets.io"),
    **dict.fromkeys(
        ("blob_polygon", "generate_blobs", "generate_buildings", "generate_tessellation",
         "rectilinear_polygon"),
        "repro.datasets.synthetic",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "DATASETS",
    "SCENARIOS",
    "ScenarioData",
    "SpatialDataset",
    "blob_polygon",
    "dataset_names",
    "generate_blobs",
    "generate_buildings",
    "generate_tessellation",
    "load_dataset",
    "load_scenario",
    "load_wkt_file",
    "rectilinear_polygon",
    "save_wkt_file",
    "scenario_names",
]
