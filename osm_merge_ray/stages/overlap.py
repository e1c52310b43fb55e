"""Building-overlap dedup join (SURVEY §2.5 J6), Ray-Data-first.

Reference: ``ConflateBuildings`` (conflateBuildings.py:73-143) — a
PostGIS ``ST_INTERSECTS`` self-join between external footprints and OSM
buildings, then an anti-join deleting intersecting footprints, leaving
"new buildings". The reference itself warns "This is not fast for large
areas!" (conflateBuildings.py:83).

Engine realization: the SAME one-shuffle cell pattern as the conflation
join — each secondary footprint ships only to the cells its bbox
expanded by the primary max reach overlaps (stages/partition.py; ~1x
replication instead of blanket 9x k-ring, hot cells refined + salted),
per-bucket bbox gating, exact convex intersection areas
(geo/polygons.py) — no database, no quadratic scan. Each pair is scored
in exactly one (cell, salt) group, so no global pair dedup pass is
needed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo import coords as G
from osm_merge_ray.geo.polygons import intersection_area, shoelace_area
from osm_merge_ray.stages import partition as P


def _prep_polygons(t: pa.Table, cfg: ConflationConfig, side: int) -> pa.Table:
    """feature table (coords_json rings) → light polygon rows (geometry
    columns from geo/coords.py). An oversized ring emits one row PER
    GRID PIECE (geo/polygons.split_polygon_span); pieces partition the
    polygon, so piece intersection areas SUM exactly to the whole-pair
    area, which ``polygon_overlap_pairs`` reduces per (id_a, id_b).
    ``area_full`` carries the whole ring's area for the min-area ratio."""
    e = G.explode(t, P.split_span_limit(cfg), ring=True)
    area = np.fromiter((abs(shoelace_area(r)) for r in e.g.rows()),
                       dtype=np.float64, count=t.num_rows)
    t = t.take(e.take)
    n = len(e.take)
    # split rows carry the piece geometry ONLY (coords_json blanked):
    # the matcher clips part_json when present, so replicating the
    # full original ring onto every piece row is pure shuffle weight
    cj = pc.if_else(pc.equal(e.part_json, ""), t.column("coords_json"), "")
    return pa.table({
        "feature_id": t.column("feature_id").cast(pa.int64()),
        "coords_json": cj,
        "part_json": e.part_json,
        "area_full": pa.array(area[e.take], pa.float64()),
        **G.light_columns(e.lon, e.lat, cfg.cell_res, e.bbox),
        "side": pa.array(np.full(n, side, dtype=np.int8), pa.int8()),
    })


def polygon_overlap_pairs(primary_ds, secondary_ds, cfg: ConflationConfig | None = None,
                          min_area_ratio: float = 0.0):
    """All (primary, secondary) polygon pairs that intersect, with the
    intersection area — the ST_INTERSECTS + ST_Area join. A pair counts
    when ``area / min(|a|, |b|) > min_area_ratio`` (0 = any overlap,
    the reference's rule)."""
    cfg = cfg or ConflationConfig(cell_res=12)

    p = primary_ds.map_batches(lambda t: _prep_polygons(t, cfg, 0), batch_format="pyarrow")
    s = secondary_ds.map_batches(lambda t: _prep_polygons(t, cfg, 1), batch_format="pyarrow")

    def match(df: pd.DataFrame) -> pd.DataFrame:
        """Piece-level pair PARTIALS: (id_a, id_b, part_area, area_a,
        area_b). Unsplit inputs emit exactly one partial per pair, so
        the finalize step below is a no-op reduction for them."""
        prim, sec, pi, si = P.bucket_pairs(df, 0.0)
        pb = prim[["x0", "y0", "x1", "y1"]].to_numpy()
        sb = sec[["x0", "y0", "x1", "y1"]].to_numpy()
        # vectorized bbox-overlap gate before the exact clip
        ok = ((pb[pi, 0] <= sb[si, 2]) & (sb[si, 0] <= pb[pi, 2])
              & (pb[pi, 1] <= sb[si, 3]) & (sb[si, 1] <= pb[pi, 3]))
        pi, si = pi[ok], si[ok]
        area = np.zeros(len(pi))
        if len(pi):
            # clip the PIECE when present, the full ring otherwise
            p_rings = G.match_geometry(prim).rows()
            s_rings = G.match_geometry(sec).rows()
            area = np.array([intersection_area(p_rings[i], s_rings[j])
                             for i, j in zip(pi, si)])
        hit = area > 0
        pi, si = pi[hit], si[hit]
        return pd.DataFrame({
            "id_a": prim["feature_id"].to_numpy(np.int64)[pi],
            "id_b": sec["feature_id"].to_numpy(np.int64)[si],
            "part_area": area[hit],
            "area_a": prim["area_full"].to_numpy(np.float64)[pi],
            "area_b": sec["area_full"].to_numpy(np.float64)[si],
        })

    # each (piece_a, piece_b) pair is scored in exactly one (cell, salt)
    # group (the piece centroid keys the primary side), so partials for
    # one (id_a, id_b) are distinct piece pairs — summing them gives the
    # exact whole-polygon intersection area (pieces partition the rings)
    out, plan = P.shuffle_match(p.union(s), cfg, 0.0, match)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        # sort partials before the float sum: block-arrival order is
        # nondeterministic, and float addition is order-sensitive —
        # a fixed addend order keeps overlap_area bit-stable run to
        # run (review r5; every other combiner is order-insensitive)
        df = df.sort_values(["id_a", "id_b", "part_area"],
                            kind="mergesort")
        g = df.groupby(["id_a", "id_b"], as_index=False).agg(
            overlap_area=("part_area", "sum"),
            area_a=("area_a", "first"), area_b=("area_b", "first"))
        amin = np.minimum(g["area_a"].to_numpy(), g["area_b"].to_numpy())
        keep = (amin > 0) & (g["overlap_area"].to_numpy() / np.maximum(amin, 1e-300)
                             > min_area_ratio)
        return g.loc[keep, ["id_a", "id_b", "overlap_area"]]

    if plan.split_parts:
        from osm_merge_ray.ops import grouped_reduce

        return grouped_reduce(out, ["id_a", "id_b"], finalize,
                              num_buckets=cfg.num_buckets)
    # no split pieces anywhere: each pair has exactly one partial row —
    # threshold map-side, no extra shuffle (the pre-r5 fast path)
    return out.map_batches(
        lambda d: finalize(d), batch_format="pandas")


def new_buildings(primary_ds, pairs_ds, id_column: str = "feature_id",
                  broadcast_limit: int = 2_000_000):
    """The anti-join (conflateBuildings.cleanDuplicates/getNew
    :114-143): primaries NOT in the overlap pairs = new buildings.

    Scale-safe in both regimes (VERDICT r1 #2): the dup-id set is
    deduped DISTRIBUTED first; if it fits under ``broadcast_limit`` it
    is broadcast once (bounded driver transfer) and probed map-side
    with searchsorted — exact, no false drops; above the limit the
    anti-join runs as a bucketed hash anti-join (one shuffle, nothing
    unbounded ever lands on the driver)."""
    import ray

    from osm_merge_ray.ops import bucketed_hash_join, grouped_reduce

    dups = grouped_reduce(
        pairs_ds.select_columns(["id_a"]), ["id_a"],
        lambda df: df.drop_duplicates("id_a"),
    ).materialize()  # consumed twice (count + broadcast/join) — one shuffle
    if dups.count() > broadcast_limit:
        dup_keyed = dups.map_batches(
            lambda t: pa.table({id_column: t.column("id_a")}),
            batch_format="pyarrow",
        )
        return bucketed_hash_join(primary_ds, dup_keyed, key=id_column, how="anti")

    parts = [b.column("id_a").to_numpy()
             for b in dups.iter_batches(batch_format="pyarrow")]
    ids = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    ref = ray.put(ids)

    def keep_new(t: pa.Table) -> pa.Table:
        dup = ray.get(ref)
        if len(dup) == 0:
            return t
        v = t.column(id_column).to_numpy()
        pos = np.searchsorted(dup, v)
        hit = (pos < len(dup)) & (dup[np.minimum(pos, len(dup) - 1)] == v)
        return t.filter(pa.array(~hit))

    return primary_ds.map_batches(keep_new, batch_format="pyarrow")
