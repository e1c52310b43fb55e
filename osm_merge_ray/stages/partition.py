"""The one conflation spine: tag → replicate → bucket shuffle → sink.

Every conflation join in the engine (point image rows in
``stages/conflate.py``, lines, POIs, polygon overlap) runs through
``shuffle_match``:

1. the caller's light rows (one side-tagged union, ~100 B/row) are
   materialized once;
2. ONE planning pass, ``plan_partition``: a single ``grouped_reduce``
   over per-batch partials returns the hot cells with their salt
   fan-out, the primary max reach, the split-part flag and the row
   count (``Plan``);
3. ``make_tag_primary`` keeps each primary in ONE (cell, salt) group: its
   centroid cell, re-keyed at ``fine_res_of`` and salted by id hash when
   that base cell is hot;
4. ``make_replicate_secondary`` ships each secondary to every cell its
   bbox, expanded by the match band, overlaps (~1x for features small vs
   the cell edge, instead of a blanket 9x k-ring); a target in a hot base
   cell becomes the fine-resolution cover inside that hot parent x every
   salt of it;
5. ONE ``groupby(bucket)`` exchange; the sink sees one bucket's rows and
   gets its candidate pairs from ``bucket_pairs``: the sides joined on
   ``group_key(cell, salt)``, oversized groups refined in memory
   (``local_refined_pairs``).

Point rows are the zero-extent case: without bbox columns the box is the
centroid (x0 = x1 = lon, y0 = y1 = lat), the primary reach is 0 and the
band is the match distance, so points gain no columns and no schema branch.

The rules shared by all geometry types:

* fine resolution: ``fine_res_of`` (the match-distance resolution, at most
  3 levels below ``cell_res``);
* salt: splitmix64 of the row id; string ids go through ``hash64_str``
  first;
* fine secondary targets are kept only inside hot parents (a non-hot
  parent is already covered at the base resolution).

``PARTITION_SCHEME`` versions these rules: bucket checkpoints written
under another scheme hold other rows and must not be resumed.

Completeness argument (why one decision row per primary still works):
a primary is keyed by its CENTROID cell only. If dist(P, S) <= d, then
dist(centroid_P, S) <= d + reach_P where reach_P is the centroid→bbox-
corner distance, so replicating S to every cell its bbox expanded by
``band = d + max_reach(primaries)`` overlaps guarantees the pair
co-locates in the primary's one (cell, salt) group — each pair is
scored at most once globally, no cross-bucket combine needed.

Light-row contract: ``lon, lat`` (centroid), ``cell:int64`` (centroid
cell at ``cfg.cell_res``), ``side:int8`` (0 primary, 1 secondary), one id
column (``feature_id:int64`` or ``image_id:string``) and, for extended
geometry, ``x0, y0, x1, y1`` (bbox, degrees) and, where features may be
split, ``part_json`` (non-empty on split parts). For lines, polygons and
POIs these geometry columns are written and read only through
``geo/coords.py``, the geometry codec (centroid = sequential vertex mean).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo import cells as C
from osm_merge_ray.util import hash64_str, splitmix64

#: version of the tag/replicate/salt rules; bump it whenever a change moves
#: rows to other buckets (state/checkpoint.py hashes it into the run
#: manifest, so a resume across a change refuses instead of mixing)
PARTITION_SCHEME = 2

#: max covered cells per axis per row — a feature spanning more cells
#: than this at the chosen res is trimmed (pick a coarser cell_res for
#: such a corpus; the cap bounds worst-case replication at 17x17).
AXIS_CAP = 8


def split_span_limit(cfg: ConflationConfig) -> float:
    """Max bbox span (degrees) for a prepared geometry PART — AXIS_CAP/2
    base cells per axis, so part span + 2 x band (which includes the max
    primary PART reach ~ span/sqrt(2)) stays inside the replicate
    stage's 2*AXIS_CAP+1 raise bound. Load-bearing invariant shared by
    the line splitter (stages/lines.py) and the polygon splitter
    (stages/overlap.py) — retune it HERE, not per geometry type."""
    return 0.5 * AXIS_CAP * C.cell_edge_deg(cfg.cell_res)


def fine_res_of(cfg: ConflationConfig) -> int:
    """Hot-cell refinement resolution: at most 3 levels below base (8x
    finer per axis) so one base-cell-spanning feature covers <= ~8 fine
    cells per axis, and never finer than the match distance allows."""
    return min(C.res_for_distance(cfg.distance_m), cfg.cell_res + 3)


def bbox_band_targets(x0, y0, x1, y1, res: int, band_m: float,
                      cap: int = AXIS_CAP, return_trimmed: bool = False):
    """(row_idx, target_cell) for every grid cell at ``res`` overlapped
    by each bbox expanded by ``band_m`` meters (lat-aware on lon).
    Point rows (x0==x1, y0==y1) get the border band: their own cell,
    plus a neighbor only when the point lies within ``band_m`` of it.
    With ``return_trimmed`` also returns a per-INPUT-row bool mask of
    rows whose cover exceeded ``cap`` cells per axis and was clamped —
    callers that promise completeness must route those rows through an
    exhaustive path instead (ADVICE r2 #2)."""
    x0, y0, x1, y1 = (np.asarray(a, dtype=np.float64) for a in (x0, y0, x1, y1))
    n = len(x0)
    if n == 0:
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return (*empty, np.empty(0, dtype=bool)) if return_trimmed else empty
    s = C.cell_edge_deg(res)
    latm = (y0 + y1) * 0.5
    with np.errstate(invalid="ignore"):
        bx = band_m / (C.M_PER_DEG_LAT * np.maximum(np.abs(np.cos(np.radians(latm))), 1e-3))
    by = band_m / C.M_PER_DEG_LAT
    ix0 = np.floor((x0 - bx + 180.0) / s).astype(np.int64)
    ix1 = np.floor((x1 + bx + 180.0) / s).astype(np.int64)
    iy0 = np.floor((y0 - by + 90.0) / s).astype(np.int64)
    iy1 = np.floor((y1 + by + 90.0) / s).astype(np.int64)
    span = 2 * cap  # max cells per axis = span+1
    trimmed = (ix1 - ix0 > span) | (iy1 - iy0 > span)
    ix1 = np.minimum(ix1, ix0 + span)
    iy1 = np.minimum(iy1, iy0 + span)
    nx_cnt = ix1 - ix0 + 1
    ny_cnt = iy1 - iy0 + 1
    cnt = nx_cnt * ny_cnt
    total = int(cnt.sum())
    rows = np.repeat(np.arange(n, dtype=np.int64), cnt)
    offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    w = np.arange(total, dtype=np.int64) - np.repeat(offs, cnt)
    jx = np.repeat(ix0, cnt) + w // np.repeat(ny_cnt, cnt)
    jy = np.repeat(iy0, cnt) + w % np.repeat(ny_cnt, cnt)
    nx = np.int64(1 << res)
    ny = np.int64(1 << max(res - 1, 0))
    jx = np.mod(jx, nx)
    jy = np.clip(jy, 0, ny - 1)
    cells = C.xy_to_cell(jx, jy, res)
    if return_trimmed:
        return rows, cells, trimmed
    return rows, cells


def reach_m(lon, lat, x0, y0, x1, y1) -> np.ndarray:
    """Per-row centroid→farthest-bbox-corner distance in meters (upper
    bound on centroid→geometry distance)."""
    lon, lat = np.asarray(lon, dtype=np.float64), np.asarray(lat, dtype=np.float64)
    dx_deg = np.maximum(np.asarray(x1) - lon, lon - np.asarray(x0))
    dy_deg = np.maximum(np.asarray(y1) - lat, lat - np.asarray(y0))
    kx = C.M_PER_DEG_LAT * np.abs(np.cos(np.radians(lat)))
    dx = np.maximum(dx_deg, 0.0) * kx
    dy = np.maximum(dy_deg, 0.0) * C.M_PER_DEG_LAT
    return np.sqrt(dx * dx + dy * dy)


class Plan(NamedTuple):
    """The global facts the exchange needs, from one pass over the light
    rows."""
    salts: dict[int, int]  # hot base cell -> salt fan-out
    reach_m: float  # max primary centroid->bbox-corner distance
    split_parts: bool  # does any row carry a non-empty ``part_json``?
    rows: int  # light rows, both sides


def plan_partition(light_ds, cfg: ConflationConfig) -> Plan:
    """One distributed pass → ``Plan``: per-cell row counts (only hot
    cells reach the driver) plus the primary max reach, the split-part
    flag and the row count.

    Rows whose base cell is hot are re-keyed at ``fine_res_of(cfg)``
    (edge still >= distance_m, so band completeness holds), which REDUCES
    the per-cell P*S pair blowup of a dense cluster; the salt fan-out
    returned here bounds the worst case of truly co-located rows that
    still land in one fine cell.

    Pre-aggregates inside ``map_batches``: one partial row per distinct
    cell per batch, plus one summary row keyed ``cell = -1`` (real cell
    ids are >= 0) with the batch's row count, max primary reach and
    split-part count. Point rows are zero-extent boxes (reach 0).
    """
    from osm_merge_ray.ops import grouped_reduce

    def partial_counts(t: pa.Table) -> pa.Table:
        u, c = np.unique(t.column("cell").to_numpy(), return_counts=True)
        prim = t.column("side").to_numpy() == 0
        lon, lat = t.column("lon").to_numpy()[prim], t.column("lat").to_numpy()[prim]
        r = reach_m(lon, lat, *(a[prim] for a in _box(t)))
        # fmax skips NaN: a row without coordinates must not poison the band
        reach = float(np.fmax.reduce(r, initial=0.0))
        parts = (int(pc.sum(pc.not_equal(t.column("part_json"), "")).as_py() or 0)
                 if "part_json" in t.column_names else 0)
        zero = np.zeros(len(u))
        return pa.table({
            "cell": pa.array(np.append(u, -1), pa.int64()),
            "n": pa.array(np.append(c, t.num_rows), pa.int64()),
            "reach": pa.array(np.append(zero, reach), pa.float64()),
            "parts": pa.array(np.append(zero, parts).astype(np.int64), pa.int64()),
        })

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        u, inv = np.unique(df["cell"].to_numpy(), return_inverse=True)
        out = {"cell": u}
        for k, op in (("n", np.add), ("reach", np.maximum), ("parts", np.add)):
            out[k] = np.zeros(len(u), dtype=df[k].dtype)
            op.at(out[k], inv, df[k].to_numpy())
        keep = (out["n"] > cfg.hot_cell_rows) | (u == -1)
        return pd.DataFrame({k: v[keep] for k, v in out.items()})

    # hash-bucketed combine, NOT the native sort-based groupby: at the
    # default res-15 grid the union has ~10^5+ distinct cells and Ray's
    # sort aggregate pays its per-distinct-group cliff (measured 3.0 s
    # of a 10.7 s flagship run at 100k/side; grouped_reduce: ~0.5 s).
    out = grouped_reduce(
        light_ds.map_batches(partial_counts, batch_format="pyarrow"),
        ["cell"], combine, num_buckets=cfg.num_buckets).take_all()
    # n_salts sized for the expected occupancy of one FINE cell: the
    # refinement spreads the count over ~4^(fine-base) children, so a
    # small salt count suffices as the co-location backstop
    salts = {int(r["cell"]): int(min(8, max(1, -(-r["n"] // (cfg.hot_cell_rows * 4)))))
             for r in out if r["cell"] >= 0}
    s = next((r for r in out if r["cell"] < 0), {"reach": 0.0, "parts": 0, "n": 0})
    return Plan(salts, float(s["reach"]), int(s["parts"]) > 0, int(s["n"]))


def plan_salts(light_ds, cfg: ConflationConfig) -> dict[int, int]:
    """{hot_cell_id: n_salts} of ``plan_partition``."""
    return plan_partition(light_ds, cfg).salts


def _with_bucket(t: pa.Table, cfg: ConflationConfig, skip: np.ndarray) -> pa.Table:
    """Append each row's ``bucket`` and drop the rows of ``skip``."""
    cell = t.column("cell").to_numpy()
    salt = t.column("salt").to_numpy()
    b = C.bucket_of(cell, cfg.num_buckets,
                    salt=salt.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    out = t.append_column("bucket", pa.array(b, pa.int64()))
    return out.filter(pa.array(~np.isin(b, skip))) if len(skip) else out


def _salt_hash(t: pa.Table, rows: np.ndarray) -> np.ndarray:
    """splitmix64 of the id of each masked row; string ids are
    FNV-hashed first."""
    col = t.column("feature_id" if "feature_id" in t.column_names else "image_id")
    if pa.types.is_integer(col.type):
        return splitmix64(col.to_numpy().astype(np.int64)[rows].view(np.uint64))
    return splitmix64(hash64_str(col.to_numpy(zero_copy_only=False)[rows]))


def _box(t) -> tuple[np.ndarray, ...]:
    """(x0, y0, x1, y1) per row of an Arrow table or a pandas frame: the
    bbox columns, or the centroid as a zero-extent box for point rows."""
    if "x0" in (t.column_names if isinstance(t, pa.Table) else t.columns):
        return tuple(t[k].to_numpy() for k in ("x0", "y0", "x1", "y1"))
    lon, lat = t["lon"].to_numpy(), t["lat"].to_numpy()
    return lon, lat, lon, lat


def make_tag_primary(cfg: ConflationConfig, salts: dict[int, int], skip_buckets=()):
    """Primaries keep ONE row: hot-base-cell rows re-keyed at the fine
    resolution of their centroid, salted by id hash. Rows landing in
    ``skip_buckets`` are dropped."""
    hot = np.array(sorted(salts), dtype=np.int64)
    skip = np.array(sorted(skip_buckets), dtype=np.int64)
    fine = fine_res_of(cfg)

    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("side"), 0))
        cell = t.column("cell").to_numpy().copy()
        salt = np.zeros(len(cell), dtype=np.int64)
        if len(hot) and len(cell):
            m = np.isin(cell, hot)
            if m.any():
                lon = t.column("lon").to_numpy()
                lat = t.column("lat").to_numpy()
                base = cell[m]
                cell[m] = C.lonlat_to_cell(lon[m], lat[m], fine)
                h = _salt_hash(t, m)
                nsalt = np.ones(int(m.sum()), dtype=np.uint64)
                for c, k in salts.items():
                    nsalt[base == c] = k
                salt[m] = (h % nsalt).astype(np.int64)
        out = t.set_column(t.schema.get_field_index("cell"), "cell",
                           pa.array(cell, pa.int64()))
        out = out.append_column("salt", pa.array(salt, pa.int64()))
        return _with_bucket(out, cfg, skip)

    return tag


def make_replicate_secondary(cfg: ConflationConfig, salts: dict[int, int],
                             band_m: float | None = None, skip_buckets=()):
    """Secondaries ship to every base cell their banded bbox overlaps;
    targets landing in a HOT base cell are re-emitted as the fine-res
    banded cover (restricted to hot parents) x every salt of that
    parent. Replication factor ~1 + O(band/edge) instead of 9x.
    ``band_m`` defaults to ``cfg.distance_m``, the band of zero-extent
    (point) primaries. Copies landing in ``skip_buckets`` are dropped."""
    hot = np.array(sorted(salts), dtype=np.int64)
    skip = np.array(sorted(skip_buckets), dtype=np.int64)
    fine = fine_res_of(cfg)
    band_m = cfg.distance_m if band_m is None else band_m

    def rep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("side"), 1))
        x0, y0, x1, y1 = _box(t)
        idx, tgt, trimmed = bbox_band_targets(x0, y0, x1, y1, cfg.cell_res,
                                              band_m, return_trimmed=True)
        if trimmed.any():
            # a trimmed cover silently loses far-end in-band pairs — fail
            # loudly instead (raise-not-truncate is the engine's contract)
            k = int(trimmed.sum())
            raise ValueError(
                f"{k} secondary feature(s) span more than {2 * AXIS_CAP + 1} "
                f"cells per axis at cell_res={cfg.cell_res} with a "
                f"{band_m:.1f} m band; their cell cover would be trimmed and "
                "in-band candidate pairs silently lost. Split oversized "
                "geometries upstream (conflate_lines splits antimeridian-"
                "crossing lines automatically) or use a coarser cell_res.")

        is_hot_t = np.isin(tgt, hot) if len(hot) else np.zeros(len(tgt), dtype=bool)
        base_idx = idx[~is_hot_t]
        base_tgt = tgt[~is_hot_t]
        base_salt = np.zeros(len(base_idx), dtype=np.int64)

        fine_idx = np.empty(0, dtype=np.int64)
        fine_tgt = np.empty(0, dtype=np.int64)
        fine_salt = np.empty(0, dtype=np.int64)
        if is_hot_t.any():
            rows_hot = np.unique(idx[is_hot_t])
            # cap scaled by the refinement factor: the fine cover must
            # reach as far (in base cells) as the base cover does, or a
            # secondary spanning several base cells loses its hot-cell
            # candidates beyond the trim (code-review r2 finding)
            f_rel, f_tgt = bbox_band_targets(
                x0[rows_hot], y0[rows_hot], x1[rows_hot], y1[rows_hot],
                fine, band_m, cap=AXIS_CAP << (fine - cfg.cell_res),
            )
            parents = C.parent(f_tgt, cfg.cell_res)
            keep_f = np.isin(parents, hot)  # non-hot parents are covered
            f_idx = rows_hot[f_rel[keep_f]]
            f_tgt = f_tgt[keep_f]
            parents = parents[keep_f]
            nsalt = np.ones(len(f_tgt), dtype=np.int64)
            for c, k in salts.items():
                nsalt[parents == c] = k
            fine_idx = np.repeat(f_idx, nsalt)
            fine_tgt = np.repeat(f_tgt, nsalt)
            offs = np.concatenate(([0], np.cumsum(nsalt)[:-1]))
            fine_salt = (np.arange(int(nsalt.sum()), dtype=np.int64)
                         - np.repeat(offs, nsalt))

        all_idx = np.concatenate([base_idx, fine_idx])
        all_tgt = np.concatenate([base_tgt, fine_tgt])
        all_salt = np.concatenate([base_salt, fine_salt])
        out = t.take(all_idx)
        out = out.set_column(out.schema.get_field_index("cell"), "cell",
                             pa.array(all_tgt, pa.int64()))
        out = out.append_column("salt", pa.array(all_salt, pa.int64()))
        return _with_bucket(out, cfg, skip)

    return rep


def group_key(cell: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """64-bit mixed (cell, salt) join key for in-bucket pair generation.
    A mix collision merely merges two unrelated groups: harmless, since
    the sink's distance gate still applies."""
    return splitmix64(
        cell.astype(np.int64).view(np.uint64) + splitmix64(salt.astype(np.uint64))
    ).view(np.int64)


def local_refined_pairs(kp: np.ndarray, ks: np.ndarray,
                        p_lon: np.ndarray, p_lat: np.ndarray,
                        s_x0: np.ndarray, s_y0: np.ndarray,
                        s_x1: np.ndarray, s_y1: np.ndarray,
                        band_m: float,
                        pair_budget: int = 2_000_000) -> tuple[np.ndarray, np.ndarray]:
    """``same_key_pairs`` with IN-MEMORY fine-grid refinement for
    oversized groups.

    The shuffle-level hot-cell refinement is capped at cell_res+3 (an
    extended feature must not cover hundreds of fine cells in the
    exchange), so a dense cluster SMALLER than that fine cell still
    lands in one group — where enumerating P*S pairs explodes (a
    60k x 60k urban blob is 3.6e9 pairs). Groups whose P*S product
    exceeds ``pair_budget`` are re-keyed here, locally and without any
    shuffle, on a grid sized to the match band
    (``res_for_distance(band_m)``, uncapped): primaries by centroid
    cell, secondaries by banded bbox cover. Pairs within the band are
    never lost (same cover-completeness argument as the exchange), and
    each surviving pair appears exactly once.
    """
    from osm_merge_ray.ops import same_key_pairs

    if len(kp) == 0 or len(ks) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # per-group side counts to find oversized groups
    up, cp = np.unique(kp, return_counts=True)
    us, cs = np.unique(ks, return_counts=True)
    common, ip, is_ = np.intersect1d(up, us, return_indices=True)
    prod = cp[ip].astype(np.float64) * cs[is_].astype(np.float64)
    big = common[prod > pair_budget]
    if len(big) == 0:
        return same_key_pairs(kp, ks)

    p_big = np.isin(kp, big)
    s_big = np.isin(ks, big)
    pi0, si0 = same_key_pairs(kp[~p_big], ks[~s_big])
    p_small_idx = np.flatnonzero(~p_big)
    s_small_idx = np.flatnonzero(~s_big)
    out_p = [p_small_idx[pi0]]
    out_s = [s_small_idx[si0]]

    fine = C.res_for_distance(max(band_m, 1e-3))
    p_idx = np.flatnonzero(p_big)
    s_idx = np.flatnonzero(s_big)
    kp2 = splitmix64(
        kp[p_idx].view(np.uint64)
        ^ C.lonlat_to_cell(p_lon[p_idx], p_lat[p_idx], fine).view(np.uint64)
    ).view(np.int64)
    rows, cells, trimmed = bbox_band_targets(
        s_x0[s_idx], s_y0[s_idx], s_x1[s_idx], s_y1[s_idx], fine, band_m,
        cap=64,  # local arrays only — a wide cover costs memory, not shuffle
        return_trimmed=True,
    )
    if trimmed.any():
        # a secondary spanning more cells than the cap would lose far-end
        # in-band pairs to the clamp (ADVICE r2 #2) — route such rows
        # through exhaustive same-group pairing instead (bounded: they
        # pair against every primary of their original oversized group,
        # the pre-refinement behavior) and drop their clamped replicas.
        t_idx = s_idx[trimmed]
        pi_t, si_t = same_key_pairs(kp[p_idx], ks[t_idx])
        out_p.append(p_idx[pi_t])
        out_s.append(t_idx[si_t])
        keep_rep = ~trimmed[rows]
        rows, cells = rows[keep_rep], cells[keep_rep]
    s_rep = s_idx[rows]
    ks2 = splitmix64(ks[s_rep].view(np.uint64) ^ cells.view(np.uint64)).view(np.int64)
    pi1, si1 = same_key_pairs(kp2, ks2)
    out_p.append(p_idx[pi1])
    out_s.append(s_rep[si1])
    pi = np.concatenate(out_p)
    si = np.concatenate(out_s)
    return pi, si


def bucket_pairs(df: pd.DataFrame, band_m: float):
    """The in-bucket candidate generator of every ``shuffle_match`` sink:
    split one bucket's rows on ``side``, join the sides on
    ``group_key(cell, salt)`` and refine oversized groups in memory
    (``local_refined_pairs``) with a band of ``band_m`` plus the bucket's
    max primary reach (0 for point rows).

    Returns ``(prim, sec, pi, si)``: the two sides' frames and the
    candidate pairs as positional indices into them.
    """
    prim, sec = df[df["side"] == 0], df[df["side"] == 1]
    p_lon, p_lat = prim["lon"].to_numpy(), prim["lat"].to_numpy()
    # fmax skips NaN: a row without coordinates must not poison the band
    reach = float(np.fmax.reduce(reach_m(p_lon, p_lat, *_box(prim)), initial=0.0))
    pi, si = local_refined_pairs(
        group_key(prim["cell"].to_numpy(), prim["salt"].to_numpy()),
        group_key(sec["cell"].to_numpy(), sec["salt"].to_numpy()),
        p_lon, p_lat, *_box(sec), band_m + reach)
    return prim, sec, pi, si


def shuffle_match(light, cfg: ConflationConfig, band_extra_m: float,
                  match_fn, skip_buckets=(), plan: Plan | None = None):
    """The one-shuffle spine over a side-tagged union of LIGHT rows
    (~100 B/row): materialize → one planning pass (``plan_partition``)
    → tag/replicate → bucket groupby → ``match_fn`` per bucket.

    ``match_fn(df)`` is the per-bucket sink: it sees the light rows of
    one bucket with ``cell``, ``salt`` and ``bucket`` columns, gets its
    candidate pairs from ``bucket_pairs`` and returns a frame (the
    decision rows, or a per-bucket record when the sink writes its own
    output). ``band_extra_m`` is the match distance (0 for pure-overlap
    joins); the primary max reach is added automatically.

    Returns ``(decisions_ds, plan)``: the lazy exchange and the ``Plan``
    already computed over the materialized union, so callers read global
    facts of the prepared rows (split parts, row count) without another
    pass and before anything downstream runs.

    Rows of ``skip_buckets`` (finished checkpoint buckets) are dropped
    by the tag/replicate maps themselves, so they are never shipped or
    rescored. No separate filter map runs after them: Ray hands a map an
    empty input block without calling it and emits a block with no
    schema, which the sort-based groupby then mixes with typed blocks.

    ``plan`` (a checkpoint resume) is the ``Plan`` an earlier run computed
    over the same input: its salts, reach and split flag are used as they
    are and ``plan_partition`` is skipped, so the rows land in the buckets
    of that run; only ``rows`` is recounted, from the materialized blocks'
    metadata.
    """
    light = light.materialize()
    if plan is None:
        plan = plan_partition(light, cfg)
    else:
        plan = plan._replace(rows=light.count())
    p = light.map_batches(make_tag_primary(cfg, plan.salts, skip_buckets),
                          batch_format="pyarrow", batch_size=cfg.batch_size)
    s = light.map_batches(
        make_replicate_secondary(cfg, plan.salts, band_extra_m + plan.reach_m,
                                 skip_buckets),
        batch_format="pyarrow", batch_size=cfg.batch_size)
    out = p.union(s).groupby("bucket").map_groups(match_fn, batch_format="pandas")
    return out, plan
