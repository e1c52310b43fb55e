"""Golden-output regression pin: the flagship decision table for the
seed-42 synthetic fixture must stay byte-identical across refactors
(FIXTURES.md F6 — the engine analog of the reference's golden WAY log
in osm_merge/utilities/x). Regenerate deliberately (and review the
diff) if semantics change on purpose:

    python -c "... conflate_datasets(...) ... pq.write_table(...)"
"""

import os

import pandas as pd
import pyarrow.parquet as pq

import ray.data as rd

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.stages.conflate import conflate_datasets
from osm_merge_ray.synth import synth_table

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "conflate_seed42_n200.parquet")


def test_flagship_decisions_match_golden(ray_session):
    tp = synth_table(200, "primary", with_bytes=False)
    ts = synth_table(200, "secondary", with_bytes=False)
    got = conflate_datasets(
        rd.from_arrow(tp), rd.from_arrow(ts),
        ConflationConfig(num_buckets=8),
    ).to_pandas()
    got = (got[["image_id", "matched_id", "decision", "hits", "dist_mm"]]
           .sort_values("image_id").reset_index(drop=True))
    exp = pq.read_table(GOLDEN).to_pandas()
    pd.testing.assert_frame_equal(
        got.astype({"decision": "string", "image_id": "string",
                    "matched_id": "string"}),
        exp.astype({"decision": "string", "image_id": "string",
                    "matched_id": "string"}),
        check_dtype=False,
    )
