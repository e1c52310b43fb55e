"""POI conflation cascade (SURVEY §2.5 J5, §2.4 F2/F3).

Reference: ``ConflatePOI`` (conflatePOI.py) — for each ODK/external POI,
query OSM nodes within ``tolerance`` meters that carry an
``amenity``/``building`` tag (conflatePOI.py:332-380); if none, fall
back to ways ordered by distance (:294-330); if still nothing → new
feature (:428-430); when something matches, score tags with fuzz > 80
per key (:205-235), displaced values kept as ``old_<key>``
(:231-233); more than one candidate with hits → version+1 and
``fixme="Probably a duplicate"`` (:436-450). The reference does one or
two SQL round trips per POI — the scalability cliff its own docs admit
(poidup.py:19-28).

Engine: the same single-shuffle cell pattern (stages/partition.py —
border-band cover, hot-cell refinement + salting); the node/way
cascade is a priority in the per-cell candidate scorer rather than two
queries, and positive-id POIs take a direct hash-join path.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo import cells as C
from osm_merge_ray.geo import coords as G
from osm_merge_ray.geo.distance import haversine_m
from osm_merge_ray.ops import first_in_groups
from osm_merge_ray.stages import partition as P
from osm_merge_ray.text.fuzz import batch_indel_ratio

#: keys compared by the POI scorer (conflator.py:359 / conflatePOI.py:129-131)
ANALYZE_KEYS = ("building", "name", "amenity", "landuse", "cuisine", "tourism", "leisure")


def _poi_prepare(t: pa.Table, cfg: ConflationConfig, side: int) -> pa.Table:
    """Feature table → light POI rows: centroid, cell, tag JSON, the
    node/way flag (geom_type Point vs LineString/Polygon)."""
    ids = G.ids_of(t)
    # centroid for ways/polygons before distance (conflatePOI.py:112-115)
    lon, lat = G.centroids(G.parse(t.column("coords_json"), ids))
    return pa.table({
        "feature_id": ids.cast(pa.int64()),
        "props_json": t.column("props_json"),
        **G.light_columns(lon, lat, cfg.cell_res),
        "is_node": pc.fill_null(pc.equal(t.column("geom_type"), "Point"), False),
        "side": pa.array(np.full(t.num_rows, side, dtype=np.int8), pa.int8()),
    })


def _merge_tags(osm_props: dict, poi_props: dict) -> str:
    """Merged tag JSON of a matched pair: the POI's values win and a
    displaced OSM value is kept as ``old_<key>`` (conflatePOI.py:231-233)."""
    m = dict(osm_props)
    for k, v in poi_props.items():
        if k in m and m[k] != v:
            m[f"old_{k}"] = m[k]
        m[k] = v
    return json.dumps(m, sort_keys=True)


def _tag_hits(a_props: list[dict], b_props: list[dict],
              fuzz_threshold: float) -> np.ndarray:
    """Hits per pair ``(a_props[k], b_props[k])``: the ANALYZE_KEYS both
    sides carry whose lower-cased values score fuzz > threshold
    (conflatePOI.py:205-235) — one batched DP per key over all pairs."""
    hits = np.zeros(len(a_props), dtype=np.int64)
    for key in ANALYZE_KEYS:
        a_vals = [a.get(key) for a in a_props]
        b_vals = [b.get(key) for b in b_props]
        idx = [k for k, (x, y) in enumerate(zip(a_vals, b_vals))
               if x is not None and y is not None]
        if idx:
            r = batch_indel_ratio([str(a_vals[k]).lower() for k in idx],
                                  [str(b_vals[k]).lower() for k in idx])
            hits[idx] += (r > fuzz_threshold).astype(np.int64)
    return hits


def conflate_pois(poi_ds, osm_ds, cfg: ConflationConfig | None = None,
                  tolerance_m: float = 7.0, fuzz_threshold: float = 80.0,
                  id_lookup: bool = True):
    """Per-POI decision over co-located OSM candidates.

    Cascade priority (J5): OSM *nodes* with an amenity/building tag
    within tolerance win over *ways*; within a class, nearest first
    (the ORDER BY ST_Distance take-first, conflatePOI.py:318). Output
    one row per POI: matched_id (-1 = new), decision
    (new / merged / duplicate), hits, dist_mm, merged tags JSON.

    ``id_lookup``: a POI whose tags carry a positive ``id`` is an edit
    of a known OSM object — it matches DIRECTLY by id (bucketed hash
    join, no spatial search), the reference's ``queryById`` intent at
    conflatePOI.py:417 (the referenced method is undefined there — a
    latent crash we define instead of replicate). An id that matches
    nothing emits decision 'new' with a fixme (the referenced object is
    gone); divergence documented here.
    """
    cfg = cfg or ConflationConfig(cell_res=C.res_for_distance(tolerance_m))

    p = poi_ds.map_batches(lambda t: _poi_prepare(t, cfg, 0), batch_format="pyarrow")
    s = osm_ds.map_batches(lambda t: _poi_prepare(t, cfg, 1), batch_format="pyarrow")

    if id_lookup:
        def with_ref(t: pa.Table) -> pa.Table:
            refs = np.full(len(t), -1, dtype=np.int64)
            for i, pj in enumerate(t.column("props_json").to_pylist()):
                try:
                    v = json.loads(pj).get("id")
                    if v is not None and int(v) > 0:
                        refs[i] = int(v)
                except (ValueError, TypeError):
                    pass
            return t.append_column("osm_ref", pa.array(refs, pa.int64()))

        p_tagged = p.map_batches(with_ref, batch_format="pyarrow")
        p_direct = p_tagged.filter(expr="osm_ref > 0")
        p = p_tagged.filter(expr="osm_ref <= 0").drop_columns(["osm_ref"])

        def osm_side(t: pa.Table) -> pa.Table:
            return pa.table({
                "osm_ref": t.column("feature_id"),
                "s_props": t.column("props_json"),
                "s_lon": t.column("lon"),
                "s_lat": t.column("lat"),
            })

        from osm_merge_ray.ops import bucketed_hash_join

        joined = bucketed_hash_join(
            p_direct, s.map_batches(osm_side, batch_format="pyarrow"),
            key="osm_ref", how="left", num_buckets=cfg.num_buckets)

        def direct_rows(t: pa.Table) -> pd.DataFrame:
            n = t.num_rows
            fid = t.column("feature_id").to_numpy()
            ref = t.column("osm_ref").to_numpy()
            s_lon = t.column("s_lon").to_numpy(zero_copy_only=False)
            s_lat = t.column("s_lat").to_numpy(zero_copy_only=False)
            p_lon = t.column("lon").to_numpy()
            p_lat = t.column("lat").to_numpy()
            found = ~np.isnan(s_lon)
            matched = np.where(found, ref, -1).astype(np.int64)
            dist = np.full(n, -1, dtype=np.int64)
            if found.any():
                d = haversine_m(p_lon[found], p_lat[found],
                                s_lon[found], s_lat[found])
                dist[found] = np.round(d * 1000.0).astype(np.int64)
            merged = [None] * n
            p_props = [json.loads(x) for x in t.column("props_json").to_pylist()]
            s_props = [json.loads(x) if x is not None else None
                       for x in t.column("s_props").to_pylist()]
            hits = np.zeros(n, dtype=np.int64)
            hit_rows = np.flatnonzero(found)
            hits[hit_rows] = _tag_hits([p_props[i] for i in hit_rows],
                                       [s_props[i] for i in hit_rows],
                                       fuzz_threshold)
            for i in range(n):
                if found[i]:
                    merged[i] = _merge_tags(s_props[i], p_props[i])
                else:
                    m = dict(p_props[i])
                    m["fixme"] = "id referenced a missing OSM object"
                    merged[i] = json.dumps(m, sort_keys=True)
            return pd.DataFrame({
                "feature_id": fid.astype(np.int64),
                "matched_id": matched,
                "decision": pd.array(
                    np.where(found, "merged", "new"), dtype="string"),
                "hits": hits,
                "dist_mm": dist,
                "merged_json": pd.array(merged, dtype="string"),
            })

        direct = joined.map_batches(direct_rows, batch_format="pyarrow")
    else:
        direct = None

    def match(df: pd.DataFrame) -> pd.DataFrame:
        prim, sec, pi, si = P.bucket_pairs(df, tolerance_m)
        n_p = len(prim)
        if n_p == 0:
            return pd.DataFrame({
                "feature_id": pd.Series(dtype=np.int64),
                "matched_id": pd.Series(dtype=np.int64),
                "decision": pd.Series(dtype="string"),
                "hits": pd.Series(dtype=np.int64),
                "dist_mm": pd.Series(dtype=np.int64),
                "merged_json": pd.Series(dtype="string"),
            })
        if len(pi):
            dist = haversine_m(prim["lon"].to_numpy()[pi], prim["lat"].to_numpy()[pi],
                               sec["lon"].to_numpy()[si], sec["lat"].to_numpy()[si])
            gate = dist <= tolerance_m
            pi, si, dist = pi[gate], si[gate], dist[gate]
        else:
            dist = np.empty(0)

        p_props = [json.loads(x) for x in prim["props_json"]]
        s_props = [json.loads(x) for x in sec["props_json"]]
        s_is_node = sec["is_node"].to_numpy().astype(bool)
        s_has_poi_tag = np.array(
            [("amenity" in t or "building" in t) for t in s_props], dtype=bool
        )

        hits = _tag_hits([p_props[i] for i in pi], [s_props[j] for j in si],
                         fuzz_threshold)

        # cascade rank: node-with-poi-tag (0) < other node (1) < way (2)
        klass = np.where(s_has_poi_tag[si] & s_is_node[si], 0,
                         np.where(s_is_node[si], 1, 2)) if len(pi) else np.empty(0, np.int64)
        dist_mm = np.round(dist * 1000.0).astype(np.int64)
        s_ids = sec["feature_id"].to_numpy()

        matched = np.full(n_p, -1, dtype=np.int64)
        out_hits = np.zeros(n_p, dtype=np.int64)
        out_dist = np.full(n_p, -1, dtype=np.int64)
        n_cands = np.zeros(n_p, dtype=np.int64)
        merged = [None] * n_p
        if len(pi):
            np.add.at(n_cands, pi, 1)
            order = np.lexsort((s_ids[si], dist_mm, klass, -hits, pi))
            best = order[first_in_groups(pi[order])]
            for b in best:
                i = int(pi[b])
                j = int(si[b])
                matched[i] = s_ids[j]
                out_hits[i] = hits[b]
                out_dist[i] = dist_mm[b]
                merged[i] = _merge_tags(s_props[j], p_props[i])
        decision = np.where(
            matched < 0, "new",
            np.where((n_cands > 1) & (out_hits > 0), "duplicate", "merged"),
        )
        # duplicate → fixme flag, never auto-delete (conflatePOI.py:135)
        for i in range(n_p):
            if decision[i] == "duplicate" and merged[i] is not None:
                m = json.loads(merged[i])
                m["fixme"] = "Probably a duplicate"
                merged[i] = json.dumps(m, sort_keys=True)
        return pd.DataFrame({
            "feature_id": prim["feature_id"].to_numpy(),
            "matched_id": matched,
            "decision": pd.array(decision, dtype="string"),
            "hits": out_hits,
            "dist_mm": out_dist,
            "merged_json": pd.array(merged, dtype="string"),
        })

    spatial, _ = P.shuffle_match(p.union(s), cfg, tolerance_m, match)
    return spatial.union(direct) if direct is not None else spatial
