"""The core conflation join, Ray-Data-first.

Reference semantics: ``conflateThread`` (``conflator.py:86-330``) — an
O(N*M) nested loop of every primary feature against every secondary
feature with distance + fuzzy-tag scoring and a quirky decision table.
Engine realization — the one conflation spine of
``stages/partition.py`` (``shuffle_match``), with image rows as
zero-extent boxes; this module holds only what is point-specific:

1. ``prepare``      map_batches: centroid (derive from image_id hash if
                    absent), grid cell (H3-analog, ``geo/cells.py``),
                    project to *light* columns — image bytes never
                    enter the shuffle (SURVEY §7 hard part (d)).
2. the spine        hot-cell plan, primary tag, secondary border-band
                    replication (a point ships to a neighbor cell only
                    when it lies within ``distance_m`` of it, so
                    cell-edge matches are never missed,
                    docs/calculations.md:120-127), ONE bucket shuffle.
3. ``match_bucket`` the per-bucket sink: takes its candidate pairs from
                    the spine's ``bucket_pairs`` (exact (cell, salt)
                    groups, dense sub-cell clusters refined in memory)
                    and scores them fully vectorized (haversine gate,
                    batched DP caption ratios, SWAR phash hamming).

``plan_salts``, ``make_tag_primary`` and ``make_replicate_secondary``
are importable from here; they are the partition module's functions.

Decision table (engine-canonical, deterministic re-statement of
``conflator.py:188-325``):

* candidates = secondaries within ``distance_m`` of the primary
  centroid, capped at the ``max_candidates`` *nearest* (the reference
  caps at 5 in scan order, conflator.py:262-267 — documented
  divergence: ours is deterministic).
* hits per candidate (analyze-key whitelist analog, conflator.py:359):
    - caption: fuzz ratio > ``fuzz_threshold`` AND length difference
      <= ``len_diff_max``                      (conflator.py:596-598)
    - ref:     both captions are "FR|FS <token>" refs and the second
      token matches uppercased                 (conflator.py:605-615)
    - phash:   hamming <= ``phash_hamming_max`` — the graft analog of
      the identical-geometry match             (conflator.py:229-234)
* best = lexicographic max by (hits desc, dist asc, secondary id asc)
                                               (conflator.py:286-298)
* decision: no candidate → ``new`` (version=1 analog,
  conflator.py:318-325); best hits >= ``min_hits_accept`` and dist <=
  ``dup_distance_m`` → ``duplicate`` (flag, never delete —
  conflatePOI.py:135); else ``merged`` — primary values win, the
  displaced secondary caption is kept as ``old_caption``
  (conflator.py:626).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo import cells as C
from osm_merge_ray.geo.distance import haversine_m
from osm_merge_ray.image.phash import hamming64
from osm_merge_ray.stages.partition import (  # noqa: F401 - the spine's API, re-exported
    bucket_pairs,
    group_key,
    make_replicate_secondary,
    make_tag_primary,
    plan_salts,
    shuffle_match,
)
from osm_merge_ray.text.fuzz import batch_indel_ratio
from osm_merge_ray.util import hash64_str, uniform01

_REF_PAT = re.compile(r"^\s*(?:FR|FS|F[SR]R?)\s+(\S+)", re.IGNORECASE)


def derive_lonlat(image_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic centroid from image_id (FIXTURES.md F1: positions
    'derived deterministically from image_id hash')."""
    from osm_merge_ray.synth import AOI

    h = hash64_str(image_id)
    lon = AOI[0] + uniform01(h, salt=101) * (AOI[2] - AOI[0])
    lat = AOI[1] + uniform01(h, salt=202) * (AOI[3] - AOI[1])
    return lon, lat


def prepare(batch: pa.Table, cfg: ConflationConfig) -> pa.Table:
    """Light projection + cell assignment. Arrow in/out, vectorized.
    Passes a ``side`` column through when present (union-tagged input)."""
    names = batch.column_names
    if "lon" in names and "lat" in names:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
    else:
        lon, lat = derive_lonlat(batch.column("image_id").to_numpy(zero_copy_only=False))
    cell = C.lonlat_to_cell(lon, lat, cfg.cell_res)
    cols = {
        "image_id": batch.column("image_id"),
        "caption": batch.column("caption"),
        "phash": batch.column("phash"),
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
        "cell": pa.array(cell, pa.int64()),
    }
    if "side" in names:
        cols["side"] = batch.column("side").cast(pa.int8())
    if "frag" in names:
        # input-fragment lineage id (conflation.read_parquet_with_lineage)
        # rides the light rows so bucket manifests can record which
        # input files fed each bucket (north-rule lineage)
        cols["frag"] = batch.column("frag").cast(pa.int64())
    return pa.table(cols)


def _ref_token(captions: np.ndarray) -> np.ndarray:
    """Second-token of FR/FS-style refs, uppercased; '' when not a ref.
    Mirrors the conflator.py:605-615 whitespace-split[1] comparison."""
    out = np.empty(len(captions), dtype=object)
    for i, s in enumerate(captions):
        m = _REF_PAT.match(s or "")
        out[i] = m.group(1).upper() if m else ""
    return out


def match_bucket(df: pd.DataFrame, cfg: ConflationConfig) -> pd.DataFrame:
    """Score one shuffle bucket: all (cell, salt) groups it contains.

    Candidate pairs come from ``bucket_pairs`` (the spine's one
    generator), then are scored in ONE vectorized pass for the whole
    bucket (batched caption DP + SWAR hamming) — no per-pair Python in
    the hot loop.
    """
    prim, sec, pi, si = bucket_pairs(df, cfg.distance_m)
    n_p = len(prim)
    if n_p == 0:
        return _empty_decisions()

    p_lon = prim["lon"].to_numpy()
    p_lat = prim["lat"].to_numpy()
    s_lon = sec["lon"].to_numpy()
    s_lat = sec["lat"].to_numpy()

    from osm_merge_ray.ops import rank_within_groups

    if len(pi):
        dist = haversine_m(p_lon[pi], p_lat[pi], s_lon[si], s_lat[si])
        gate = dist <= cfg.distance_m
        pi, si, dist = pi[gate], si[gate], dist[gate]
    else:
        dist = np.empty(0, dtype=np.float64)
    s_ids_all = sec["image_id"].to_numpy()
    if len(pi):
        # cap at the max_candidates nearest per primary. Ties on exact
        # distance break by secondary image_id — si is a bucket-local
        # replicated index whose order depends on shuffle block order,
        # so it must never decide which candidates survive the cap.
        order = np.lexsort((s_ids_all[si], dist, pi))
        pos = rank_within_groups(pi[order])
        keep = order[pos < cfg.max_candidates]
        pi, si, dist = pi[keep], si[keep], dist[keep]

    # ---- vectorized scoring over all candidate pairs of the bucket ----
    p_cap_all = prim["caption"].to_numpy()
    s_cap_all = sec["caption"].to_numpy()
    cap_p = p_cap_all[pi]
    cap_s = s_cap_all[si]
    lens_p = np.fromiter((len(x) for x in cap_p), dtype=np.int64, count=len(cap_p))
    lens_s = np.fromiter((len(x) for x in cap_s), dtype=np.int64, count=len(cap_s))
    len_ok = np.abs(lens_p - lens_s) <= cfg.len_diff_max
    # the caption hit requires BOTH ratio > thr AND the length gate —
    # run the (expensive) batched DP only where the gate can pass, and
    # skip identical strings outright
    ratio = np.zeros(len(cap_p), dtype=np.float64)
    if len_ok.any():
        idx = np.flatnonzero(len_ok)
        eq = np.fromiter((cap_p[j] == cap_s[j] for j in idx), dtype=bool, count=len(idx))
        ratio[idx[eq]] = 100.0
        todo = idx[~eq]
        if len(todo):
            ratio[todo] = batch_indel_ratio(cap_p[todo], cap_s[todo])
    caption_hit = (ratio > cfg.fuzz_threshold) & len_ok
    ref_p = _ref_token(cap_p)
    ref_s = _ref_token(cap_s)
    ref_hit = (ref_p != "") & (ref_p == ref_s) & ~caption_hit
    ham = hamming64(prim["phash"].to_numpy()[pi], sec["phash"].to_numpy()[si]) if len(pi) else np.empty(0, dtype=np.int64)
    phash_hit = ham <= cfg.phash_hamming_max
    hits = caption_hit.astype(np.int64) + ref_hit.astype(np.int64) + phash_hit.astype(np.int64)

    # ---- best candidate per primary: (hits desc, dist asc, sid asc) ----
    from osm_merge_ray.ops import first_in_groups

    dist_mm = np.round(dist * 1000.0).astype(np.int64)
    if len(pi):
        order = np.lexsort((s_ids_all[si], dist_mm, -hits, pi))
        best = order[first_in_groups(pi[order])]
        best_pi = pi[best]
    else:
        best = np.empty(0, dtype=np.int64)
        best_pi = np.empty(0, dtype=np.int64)

    p_ids_all = prim["image_id"].to_numpy()
    matched_id = np.full(n_p, None, dtype=object)
    out_hits = np.zeros(n_p, dtype=np.int64)
    out_dist = np.full(n_p, -1, dtype=np.int64)
    out_old = np.full(n_p, None, dtype=object)
    decision = np.full(n_p, "new", dtype=object)
    if len(best):
        matched_id[best_pi] = s_ids_all[si[best]]
        out_hits[best_pi] = hits[best]
        out_dist[best_pi] = dist_mm[best]
        old = s_cap_all[si[best]]
        differs = old != p_cap_all[best_pi]
        out_old[best_pi] = np.where(differs, old, None)
        dup = (hits[best] >= cfg.min_hits_accept) & (dist_mm[best] <= cfg.dup_distance_m * 1000.0)
        decision[best_pi] = np.where(dup, "duplicate", "merged")

    out = pd.DataFrame(
        {
            "image_id": p_ids_all,
            "matched_id": matched_id,
            "decision": decision,
            "hits": out_hits,
            "dist_mm": out_dist,
            "caption": p_cap_all,
            "old_caption": out_old,
            "lon": p_lon,
            "lat": p_lat,
            "cell": prim["cell"].to_numpy(),
        }
    )
    # pin nullable text columns to pandas "string" so an all-null block
    # still unions with string blocks at the Arrow level
    for col in ("image_id", "matched_id", "decision", "caption", "old_caption"):
        out[col] = out[col].astype("string")
    return out


def _empty_decisions() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "image_id": pd.Series(dtype="string"),
            "matched_id": pd.Series(dtype="string"),
            "decision": pd.Series(dtype="string"),
            "hits": pd.Series(dtype=np.int64),
            "dist_mm": pd.Series(dtype=np.int64),
            "caption": pd.Series(dtype="string"),
            "old_caption": pd.Series(dtype="string"),
            "lon": pd.Series(dtype=np.float64),
            "lat": pd.Series(dtype=np.float64),
            "cell": pd.Series(dtype=np.int64),
        }
    )


def tag_side(ds, side: int):
    """Append the ``side`` column (0=primary, 1=secondary)."""
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "side", pa.array(np.full(len(t), side, dtype=np.int8), pa.int8())
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def light_rows(union_ds, cfg: ConflationConfig):
    """The prepare stage over a side-tagged union: light rows for the spine."""
    return union_ds.map_batches(lambda t: prepare(t, cfg), batch_format="pyarrow",
                                batch_size=cfg.batch_size)


def conflate_datasets(primary_ds, secondary_ds, cfg: ConflationConfig | None = None):
    """End-to-end conflation join over two Ray Datasets of image rows.

    Returns a Dataset of per-primary decision rows (streaming; the one
    all-to-all exchange is the bucket groupby).
    """
    cfg = cfg or ConflationConfig()
    union = tag_side(primary_ds, 0).union(tag_side(secondary_ds, 1))
    out, _ = shuffle_match(light_rows(union, cfg), cfg, cfg.distance_m,
                           lambda df: match_bucket(df, cfg))
    return out
