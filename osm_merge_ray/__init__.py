"""osm_merge_ray — a Ray-Data-native spatial-join / conflation / tiling engine.

A from-scratch re-expression of the capabilities of hotosm/osm-merge
(reference at /root/reference, studied for semantics only) on top of
``ray.data.Dataset`` streaming execution:

* grid-cell (H3/S2-analog) spatial index + k-ring shuffle instead of the
  reference's O(N*M) nested loop (``conflator.py:145-267``),
* per-cell vectorized candidate generation (the grid-partition join of
  ``stages.partition.bucket_pairs``) instead of per-feature PostGIS
  round trips (``conflatePOI.py:294-380``),
* distance + fuzzy-tag (caption) matching decision table
  (``conflator.py:188-325``) as numpy kernels inside ``map_groups``,
* EPSG:3857 square tile grid assignment (``tm-splitter.py:74-129``),
* partitioned, manifest-checkpointed parquet output (resume support),
* plus the training-data operators a 100 TB pipeline needs: exact /
  MinHash-LSH / SimHash / n-gram-Jaccard dedup, embedding kNN, text
  quality / language-id / fingerprinting, and image decode stages.

Everything is built only on ray[data], pyarrow, numpy and pandas — no
GEOS, GDAL, H3 or PIL native dependencies.
"""

__version__ = "0.1.0"

from osm_merge_ray.config import ConflationConfig  # noqa: F401

__all__ = [
    "ConflationConfig",
    # lazily importable high-level entry points (keep module import light —
    # pulling ray.data belongs to call time, not import time):
    # osm_merge_ray.stages.conflate.conflate_datasets
    # osm_merge_ray.stages.lines.conflate_lines
    # osm_merge_ray.stages.poi.conflate_pois
    # osm_merge_ray.stages.overlap.polygon_overlap_pairs
    # osm_merge_ray.pipelines.conflation.{flagship,conflate_parquet,run_checkpointed}
]
