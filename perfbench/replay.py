"""In-process replay of each conflation layer, without Ray Data execution.

The replay calls each layer's public function on the run's own inputs, in
pipeline order, inside a replay span per layer, and counts rows and pairs
at the same boundaries the Ray pipeline crosses. Bucket frames are grouped
with pandas instead of the Ray shuffle. ``plan_salts`` is itself a Ray
Data job, so the caller passes ``plan(light) -> salts`` in.

With a plan returning ``{}`` (no hot-cell refinement) the points replay
is also the reference the timed runs' decisions are checked against:
refinement and salting redistribute candidate pairs but never change a
decision.
"""

from __future__ import annotations

import hashlib
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from perfbench.trace import Tracer

DECISION_COLS = ["image_id", "matched_id", "decision", "hits", "dist_mm"]


def decision_hash(df: pd.DataFrame, cols=DECISION_COLS) -> str:
    """Order-independent hash of the decision rows over ``cols``."""
    d = df[cols].sort_values(cols[0], kind="mergesort").reset_index(drop=True)
    return hashlib.sha256(d.to_csv(index=False, na_rep="").encode()).hexdigest()[:16]


def _with_side(t: pa.Table, side: int) -> pa.Table:
    return t.append_column("side", pa.array(np.full(t.num_rows, side, np.int8)))


def _buckets(p: pa.Table, s: pa.Table):
    both = pa.concat_tables([p, s], promote_options="default").to_pandas()
    return both, [df for _, df in both.groupby("bucket", sort=True)]


def _p50_max_ms(times: list[float]) -> tuple[float, float]:
    return (float(np.median(times)) * 1e3, max(times) * 1e3) if times else (0.0, 0.0)


def replay_points(tp: pa.Table, ts: pa.Table, cfg, plan, tracer: Tracer,
                  decode: bool = False, write_dir: str | None = None):
    """Replay conflate_parquet / run_checkpointed on the two input tables.
    Returns (decisions DataFrame, counts dict)."""
    from osm_merge_ray.geo.distance import haversine_m
    from osm_merge_ray.image.stages import DecodeVerify
    from osm_merge_ray.ops import same_key_pairs
    from osm_merge_ray.pipelines.conflation import default_grid
    from osm_merge_ray.stages import conflate as CF
    from osm_merge_ray.stages.partition import group_key
    from osm_merge_ray.stages.tiling import make_assign_tiles
    from osm_merge_ray.state import checkpoint as CK

    c: dict = {}
    sides = []
    n_p, n_s = tp.num_rows, ts.num_rows
    with tracer.span("image.decode") as sp:
        for side, t in enumerate((tp, ts)):
            if decode:
                t = DecodeVerify()(t)
            elif "bytes" in t.column_names:
                t = t.drop_columns(["bytes"])
            sides.append(_with_side(t, side))
    if decode:
        c["image.decode_s"] = sp["end"] - sp["start"]
        c["image.decode_us_per_row"] = c["image.decode_s"] / (n_p + n_s) * 1e6
    union = pa.concat_tables(sides, promote_options="default")
    with tracer.span("conflate.prepare") as sp:
        light = CF.prepare(union, cfg)
    c["conflate.prepare_us_per_row"] = (sp["end"] - sp["start"]) / union.num_rows * 1e6
    with tracer.span("conflate.plan_salts"):
        salts = plan(light)
    with tracer.span("conflate.tag_primary"):
        p = CF.make_tag_primary(cfg, salts)(light)
    with tracer.span("conflate.replicate_secondary") as sp:
        s = CF.make_replicate_secondary(cfg, salts)(light)
    c["conflate.replicate_us_per_row"] = (sp["end"] - sp["start"]) / n_s * 1e6
    c["conflate.replication_factor"] = s.num_rows / n_s
    c["conflate.hot_cells"] = len(salts)

    both, frames = _buckets(p, s)
    c["shuffle.rows"] = len(both)
    sizes = [len(f) for f in frames]
    c["shuffle.bucket_rows_max"] = max(sizes)
    c["shuffle.bucket_rows_mean"] = float(np.mean(sizes))

    enumerated = within = 0
    for df in frames:
        prim, sec = df[df["side"] == 0], df[df["side"] == 1]
        pi, si = same_key_pairs(group_key(prim["cell"].to_numpy(), prim["salt"].to_numpy()),
                                group_key(sec["cell"].to_numpy(), sec["salt"].to_numpy()))
        enumerated += len(pi)
        if len(pi):
            d = haversine_m(prim["lon"].to_numpy()[pi], prim["lat"].to_numpy()[pi],
                            sec["lon"].to_numpy()[si], sec["lat"].to_numpy()[si])
            within += int((d <= cfg.distance_m).sum())
    c["conflate.candidate_pairs"] = enumerated
    c["conflate.pair_yield"] = within / enumerated if enumerated else 0.0

    assign = make_assign_tiles(default_grid(cfg))
    outs, match_t, write_t = [], [], []
    with tracer.span("conflate.match_bucket") as sp_match:
        for df in frames:
            t0 = time.perf_counter()
            outs.append(CF.match_bucket(df, cfg))
            match_t.append(time.perf_counter() - t0)
    decisions = pd.concat(outs, ignore_index=True)
    with tracer.span("tiling.assign_tiles") as sp_tile:
        tiled = [assign(pa.Table.from_pandas(o, preserve_index=False)) for o in outs]
    if write_dir is not None:
        shutil.rmtree(write_dir, ignore_errors=True)
        with tracer.span("checkpoint.write_bucket_partition"):
            for df, t in zip(frames, tiled):
                t0 = time.perf_counter()
                CK.write_bucket_partition(write_dir, int(df["bucket"].iloc[0]), t,
                                          input_rows=len(df), wall_s=0.0,
                                          cells=df["cell"].unique().tolist())
                write_t.append(time.perf_counter() - t0)
    c["conflate.match_us_per_primary"] = (sp_match["end"] - sp_match["start"]) / n_p * 1e6
    c["shuffle.match_task_ms_p50"], c["shuffle.match_task_ms_max"] = _p50_max_ms(match_t)
    c["tiling.assign_us_per_row"] = (sp_tile["end"] - sp_tile["start"]) / n_p * 1e6
    c["checkpoint.write_bucket_ms_p50"], c["checkpoint.write_bucket_ms_max"] = \
        _p50_max_ms(write_t)
    for k, v in decisions["decision"].value_counts().items():
        c[f"conflate.decisions.{k}"] = int(v)
    return decisions, c


def replay_lines(tp: pa.Table, ts: pa.Table, cfg, plan, tracer: Tracer):
    """Replay conflate_lines on the two input tables (inputs without split
    parts). Returns (decisions DataFrame, counts dict)."""
    from osm_merge_ray.stages import partition as P
    from osm_merge_ray.stages.lines import _line_prepare, match_lines_group

    c: dict = {}
    n_p, n_s = tp.num_rows, ts.num_rows
    with tracer.span("lines.prepare") as sp:
        light = pa.concat_tables([_line_prepare(tp, cfg, 0), _line_prepare(ts, cfg, 1)])
    c["lines.prepare_us_per_row"] = (sp["end"] - sp["start"]) / (n_p + n_s) * 1e6
    if pc.any(pc.not_equal(light.column("part_json"), "")).as_py():
        raise ValueError("lines replay expects inputs without split parts")
    with tracer.span("conflate.plan_salts"):
        salts = plan(light)
    prim = light.filter(pc.equal(light.column("side"), 0))
    sec = light.filter(pc.equal(light.column("side"), 1))
    band = cfg.distance_m + float(P.reach_m(*(prim.column(k).to_numpy() for k in
                                             ("lon", "lat", "x0", "y0", "x1", "y1"))).max())
    with tracer.span("partition.bbox_band_targets") as sp:
        P.bbox_band_targets(*(sec.column(k).to_numpy() for k in ("x0", "y0", "x1", "y1")),
                            cfg.cell_res, band)
    c["partition.bbox_band_us_per_row"] = (sp["end"] - sp["start"]) / n_s * 1e6
    with tracer.span("partition.tag_primary"):
        p = P.make_tag_primary(cfg, salts)(light)
    with tracer.span("partition.replicate_secondary"):
        s = P.make_replicate_secondary(cfg, salts, band)(light)
    c["partition.replication_factor"] = s.num_rows / n_s
    c["partition.hot_cells"] = len(salts)
    keys = P.group_key(np.concatenate([p.column("cell").to_numpy(), s.column("cell").to_numpy()]),
                       np.concatenate([p.column("salt").to_numpy(), s.column("salt").to_numpy()]))
    c["partition.group_rows_max"] = int(np.unique(keys, return_counts=True)[1].max())

    both, frames = _buckets(p, s)
    c["shuffle.rows"] = len(both)
    sizes = [len(f) for f in frames]
    c["shuffle.bucket_rows_max"] = max(sizes)
    c["shuffle.bucket_rows_mean"] = float(np.mean(sizes))
    outs, match_t = [], []
    with tracer.span("lines.match_lines_group") as sp:
        for df in frames:
            t0 = time.perf_counter()
            outs.append(match_lines_group(df, cfg))
            match_t.append(time.perf_counter() - t0)
    c["lines.match_us_per_primary"] = (sp["end"] - sp["start"]) / n_p * 1e6
    c["shuffle.match_task_ms_p50"], c["shuffle.match_task_ms_max"] = _p50_max_ms(match_t)
    return pd.concat(outs, ignore_index=True), c
