"""Line-feature (highway) conflation — the reference's flagship path
(SURVEY §2.3 G1/G3, §2.4 F1, §2.5 J1-J4) for LineString features.

Implements the FULL decision table of ``conflateThread``
(conflator.py:86-330) over the engine's cell shuffle:

* distance: min over exploded segments on a local planar projection
  (``getDistance`` conflator.py:456-531; typed dispatch — point vs line
  is a forced no-match, conflator.py:505-508);
* slope & angle between candidate direction vectors (``getSlope``
  conflator.py:361-454);
* tag scoring (``checkTags`` conflator.py:533-629): for key in
  (name, ref, ref:usfs) a hit is fuzz ratio > 85 AND length diff <= 3
  (:596-598); imperfect ratios on ref keys compare the second
  whitespace token uppercased (:605-615);
* early exits (conflator.py:188-267):
    - hits==0 and (|angle| > 20 or |slope| > 4) → reject candidate
    - hits==1 and |angle| < 15 and |slope| < 1 → "parallel road" — the
      reference DROPS the primary feature entirely here
      (conflator.py:217-222, SURVEY §7 hard part (a)); we emit it with
      ``decision="parallel"`` so nothing is silently lost, and a
      strict-parity consumer can filter those rows out;
    - identical geometry (dist==slope==angle==0) matches regardless of
      tags (:229-234);
* selection (conflator.py:269-316): best by hits desc; accept outright
  when hits >= 2, else nearest; merged feature keeps OSM id/version
  (version+1) and the primary's geometry/tags, displaced secondary
  values renamed ``old_<key>``; ``highway`` always taken from the OSM
  side (:579-582); no candidates → new (version=1, informal=yes,
  fixme import warning, :318-325).
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo import coords as G
from osm_merge_ray.geo.distance import batch_polyline_min_dist_m, batch_slope_angle_offset2
from osm_merge_ray.stages import partition as P
from osm_merge_ray.text.fuzz import indel_ratio

MATCH_KEYS = ("name", "ref", "ref:usfs")  # conflator.py:549


def score_tags(ext: dict, osm: dict, cfg: ConflationConfig) -> tuple[int, dict]:
    """``checkTags`` parity (conflator.py:533-629). Returns (hits,
    merged properties).

    Semantics mirrored from the reference:
    * base merge is ``ext | osm`` — the OSM (secondary) value wins on
      every key that is not an explicit fuzzy match (:554);
    * per match key, a fuzzy hit (ratio > threshold AND length diff
      <= 3, :596-598) scores +1 and takes the ext value;
    * at ratio != 100 a ref-style key whose SECOND whitespace token
      matches uppercased scores ANOTHER +1 (:605-615) — one ref key
      can contribute two hits;
    * the FS-prefix rule (:620-622): when the OSM ref starts "FS " and
      80 < ratio < 90, only the prefix changed, so the displaced value
      is NOT cached as ``old_<key>``; every other imperfect hit caches
      it;
    * ``highway`` always comes from the OSM side (:579-582).

    Divergence (documented): the reference indexes
    ``properties["ref:usfs"]`` unconditionally inside the ref branch
    and crashes when ``key == "ref"`` but ``ref:usfs`` is absent — we
    compare the key's own tokens instead."""
    hits = 0
    merged = {**ext, **osm}  # OSM wins the base union (conflator.py:554)
    for key in MATCH_KEYS:
        a = ext.get(key)
        b = osm.get(key)
        if a is None or b is None:
            continue
        sa, sb = str(a), str(b)
        ratio = indel_ratio(sa.lower(), sb.lower())
        if ratio > cfg.fuzz_threshold and abs(len(sa) - len(sb)) <= cfg.len_diff_max:
            hits += 1
            merged[key] = a
            if ratio != 100:
                no_cache = False
                if key.startswith("ref"):
                    ta = sa.split()
                    tb = sb.split()
                    if len(ta) > 1 and len(tb) > 1 and ta[1].upper() == tb[1].upper():
                        hits += 1
                        if sb[:3] == "FS " and 80 < ratio < 90:
                            no_cache = True
                if not no_cache:
                    merged[f"old_{key}"] = b
    return hits, merged


def _line_prepare(t: pa.Table, cfg: ConflationConfig, side: int) -> pa.Table:
    """Light row per feature — except date-line crossers and oversized
    lines (bbox over ``partition.split_span_limit``), which emit one row
    PER SPLIT PART (geo/coords.explode: part-local centroid/bbox/cell,
    the part geometry in ``part_json``). ``coords_json`` keeps the
    original geometry, so output rows carry the full feature."""
    e = G.explode(t, P.split_span_limit(cfg))
    n = len(e.take)
    t = t.take(e.take)
    ids = G.ids_of(t)
    version = (t.column("version") if "version" in t.column_names
               else pa.array(np.ones(n, dtype=np.int32), pa.int32()))
    refs = (t.column("refs_json") if "refs_json" in t.column_names
            else pa.array(["[]"] * n, pa.string()))
    return pa.table({
        "feature_id": ids.cast(pa.int64()),
        "version": version,
        "geom_type": t.column("geom_type"),
        "coords_json": t.column("coords_json"),
        "part_json": e.part_json,
        "props_json": t.column("props_json"),
        "refs_json": refs,
        **G.light_columns(e.lon, e.lat, cfg.cell_res, e.bbox),
        "side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
    })


def conflate_lines(primary_ds, secondary_ds, cfg: ConflationConfig | None = None):
    """Cell-sharded line conflation on the conflation spine
    (stages/partition.py): secondaries ship only to the cells their
    bbox expanded by (distance_m + max primary reach) overlaps (~1x
    replication, vs blanket 9x k-ring), hot cells are refined to a
    finer resolution with a salt fan-out."""
    cfg = cfg or ConflationConfig(cell_res=12)

    p = primary_ds.map_batches(lambda t: _line_prepare(t, cfg, 0),
                               batch_format="pyarrow")
    s = secondary_ds.map_batches(lambda t: _line_prepare(t, cfg, 1),
                                 batch_format="pyarrow")

    def match(df: pd.DataFrame) -> pd.DataFrame:
        return match_lines_group(df, cfg)

    out, plan = P.shuffle_match(p.union(s), cfg, cfg.distance_m, match)
    if plan.split_parts:
        # a split primary produced one decision row per part (parts land
        # in different cells); keep the best per feature — matched
        # decisions beat "new", then hits desc, dist asc, matched_id asc
        from osm_merge_ray.ops import grouped_reduce

        def best_part(df: pd.DataFrame) -> pd.DataFrame:
            df = df.assign(_new=(df["decision"] == "new").astype(np.int64))
            df = df.sort_values(
                ["feature_id", "_new", "hits", "dist_m", "matched_id",
                 "decision"],
                ascending=[True, True, False, True, True, True],
                kind="mergesort")
            return df.drop_duplicates("feature_id",
                                      keep="first").drop(columns=["_new"])

        out = grouped_reduce(out, ["feature_id"], best_part,
                             num_buckets=cfg.num_buckets)
    return out


def match_lines_group(df: pd.DataFrame, cfg: ConflationConfig) -> pd.DataFrame:
    prim, sec, pi, si = P.bucket_pairs(df, cfg.distance_m)
    n_p = len(prim)
    cols = {
        "feature_id": pd.Series(dtype=np.int64),
        "matched_id": pd.Series(dtype=np.int64),
        "version": pd.Series(dtype=np.int64),
        "decision": pd.Series(dtype="string"),
        "hits": pd.Series(dtype=np.int64),
        "dist_m": pd.Series(dtype=np.float64),
        "angle": pd.Series(dtype=np.float64),
        "slope": pd.Series(dtype=np.float64),
        "merged_json": pd.Series(dtype="string"),
        "coords_json": pd.Series(dtype="string"),
        "refs_json": pd.Series(dtype="string"),
    }
    if n_p == 0:
        return pd.DataFrame(cols)

    p_props = [json.loads(x) for x in prim["props_json"]]
    s_props = [json.loads(x) for x in sec["props_json"]]
    p_ids = prim["feature_id"].to_numpy()
    p_coords_json = prim["coords_json"].to_numpy()
    s_refs_json = sec["refs_json"].to_numpy()
    s_ids = sec["feature_id"].to_numpy()
    s_ver = sec["version"].to_numpy()
    p_types = prim["geom_type"].to_numpy()
    s_types = sec["geom_type"].to_numpy()
    pb = prim[["x0", "y0", "x1", "y1"]].to_numpy()
    sb = sec[["x0", "y0", "x1", "y1"]].to_numpy()

    from osm_merge_ray.ops import rank_within_groups

    # vectorized bbox lower-bound pre-gate: cut pairs whose bbox gap
    # already exceeds the threshold (a bbox-distance gate, batch form)
    if len(pi):
        lat0 = np.radians(pb[pi, 1])
        kx = 111320.0 * np.maximum(np.abs(np.cos(lat0)), 1e-3)
        # date-line wrap: shift the secondary bbox into the primary's
        # lon frame (same first-vertex convention as the distance kernel)
        sh = np.round((pb[pi, 0] - sb[si, 0]) / 360.0) * 360.0
        gap_x = np.maximum(np.maximum(pb[pi, 0], sb[si, 0] + sh)
                           - np.minimum(pb[pi, 2], sb[si, 2] + sh), 0.0) * kx
        gap_y = np.maximum(np.maximum(pb[pi, 1], sb[si, 1])
                           - np.minimum(pb[pi, 3], sb[si, 3]), 0.0) * 111194.92664455873
        near = gap_x * gap_x + gap_y * gap_y <= cfg.distance_m * cfg.distance_m * 1.1
        # typed dispatch: line vs point is a forced no-match
        # (conflator.py:505-508)
        typed_ok = (p_types[pi] == "Point") == (s_types[si] == "Point")
        pi, si = pi[near & typed_ok], si[near & typed_ok]

    # ---- batched geometry over ALL surviving pairs (no per-pair DP) ----
    if len(pi):
        # split features match on their part, not the raw cross-map geometry
        paxs, pays, plens = G.pad(G.match_geometry(prim))
        saxs, says, slens = G.pad(G.match_geometry(sec))
        d_all = batch_polyline_min_dist_m(paxs[pi], pays[pi], plens[pi],
                                          saxs[si], says[si], slens[si])
        gate = d_all <= cfg.distance_m
        pi, si, d_all = pi[gate], si[gate], d_all[gate]
        sl_all, an_all = batch_slope_angle_offset2(
            paxs[pi], pays[pi], plens[pi], saxs[si], says[si], slens[si]
        )
    else:
        d_all = sl_all = an_all = np.empty(0, dtype=np.float64)

    # tag scoring per surviving pair (JSON props — inherently rowwise,
    # but only runs on distance-gated candidates)
    hits_all = np.empty(len(pi), dtype=np.int64)
    merged_all: list[dict] = [None] * len(pi)
    for k in range(len(pi)):
        hits_all[k], merged_all[k] = score_tags(p_props[int(pi[k])],
                                                s_props[int(si[k])], cfg)
    # identical-geometry match regardless of tags (conflator.py:229-234)
    identical = (d_all == 0.0) & (sl_all == 0.0) & (an_all == 0.0)
    reject = (hits_all == 0) & ~identical & (
        (np.abs(an_all) > cfg.angle_max_deg) | (np.abs(sl_all) > cfg.slope_max)
    )  # conflator.py:206-216
    keep = ~reject
    pi, si, d_all = pi[keep], si[keep], d_all[keep]
    sl_all, an_all, hits_all = sl_all[keep], an_all[keep], hits_all[keep]
    identical = identical[keep]
    merged_all = [merged_all[k] for k in np.flatnonzero(keep)]

    # deterministic nearest-k cap per primary, ties by secondary id
    # (divergence from the reference's scan-order cap, SURVEY §7 (c))
    if len(pi):
        order = np.lexsort((s_ids[si], d_all, pi))
        pos = rank_within_groups(pi[order])
        capped = order[pos < cfg.max_candidates]
        capped = capped[np.argsort(pi[capped], kind="stable")]
    else:
        capped = np.empty(0, dtype=np.int64)

    cand_of: dict[int, list] = {}
    for k in capped:
        i = int(pi[k])
        cand_of.setdefault(i, []).append(
            (int(hits_all[k]), float(d_all[k]), float(sl_all[k]),
             float(an_all[k]), int(si[k]), merged_all[k], bool(identical[k]))
        )
    out_rows = []

    for i in range(n_p):
        cands = cand_of.get(i, [])
        if not cands:
            props = dict(p_props[i])
            props["informal"] = "yes"
            props["fixme"] = "new feature, validate before uploading"
            out_rows.append((int(p_ids[i]), -1, 1, "new", 0, -1.0, 0.0, 0.0,
                             json.dumps(props, sort_keys=True),
                             p_coords_json[i], "[]"))
            continue
        # parallel-road early exit: a single-hit geometrically-parallel
        # candidate drops the primary in the reference (conflator.py:217-222)
        parallel = any(
            h == 1 and abs(an) < 15.0 and abs(sl) < 1.0
            for h, d, sl, an, j, m, ident in cands
        )
        best = max(cands, key=lambda c: (c[0], -c[1], -s_ids[c[4]]))
        hits, d, sl, an, j, merged, ident = best
        if parallel and hits < cfg.min_hits_accept:
            out_rows.append((int(p_ids[i]), int(s_ids[j]), int(s_ver[j]),
                             "parallel", hits, d, sl, an,
                             json.dumps(merged, sort_keys=True),
                             p_coords_json[i], s_refs_json[j]))
            continue
        decision = "merged"
        merged = dict(merged)
        merged["hits"] = str(hits)
        out_rows.append((int(p_ids[i]), int(s_ids[j]), int(s_ver[j]) + 1,
                         decision, hits, d, sl, an,
                         json.dumps(merged, sort_keys=True),
                         p_coords_json[i], s_refs_json[j]))

    out = pd.DataFrame(out_rows, columns=list(cols))
    for c in ("decision", "merged_json", "coords_json", "refs_json"):
        out[c] = out[c].astype("string")
    return out
