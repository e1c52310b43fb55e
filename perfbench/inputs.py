"""Seeded benchmark inputs, generated once per (workload family, seed, size)
and cached on disk under the checkout's ``.perfbench/inputs`` directory.

Generation is deliberately outside every timed region and outside
``setup_s``. ``synth.make_batch`` costs several ms per row (pixel synthesis
and perceptual hashing), far more than the decode it feeds, so the points
rows are generated once into a seed-independent pool and each seed selects
its rows from it.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SIDES = ("primary", "secondary")

#: both points workloads read 4 files per side (conflate_parquet reads
#: one block per file); the lines workload reads 4 files per side too
FILES_PER_SIDE = 4

#: secondary lines are the primary lines shifted this far north (meters);
#: secondary feature ids are the primary ids plus LINE_ID_OFFSET, so the
#: planted partner of primary ``i`` is ``i + LINE_ID_OFFSET``
LINE_SHIFT_M = 3.0
LINE_ID_OFFSET = 10_000_000
#: share of the lines planted in the one hot cell
LINE_HOT_SHARE = 0.3

#: the per-seed full (with image bytes) copies of this many most recent
#: seeds are kept; older ones are deleted (light copies are small and kept)
KEEP_FULL_SEEDS = 4

#: every points row is ``synth.make_batch(index, side, seed=POOL_SEED)``
#: for an index below the pool size; ``--seed`` picks which indices
POOL_SEED = 42


def _write_atomic(d: str, make_side) -> None:
    """Write ``d/<side>/part-NNN.parquet`` for both sides, atomically: a
    half-written cache entry from a killed run is never read back."""
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for side in SIDES:
        os.makedirs(os.path.join(tmp, side))
        for f, table in enumerate(make_side(side)):
            pq.write_table(table, os.path.join(tmp, side, f"part-{f:03d}.parquet"))
    os.makedirs(os.path.dirname(d), exist_ok=True)
    os.rename(tmp, d)


def _chunks(n: int) -> list[np.ndarray]:
    return [a for a in np.array_split(np.arange(n, dtype=np.int64), FILES_PER_SIDE)
            if len(a)]


def points_pool(cache: str, m: int) -> str:
    """Directory of the seed-independent pool: synthetic image+caption rows
    for indices ``0..m-1`` of both sides. Built once per checkout and pool
    size; this is the one expensive generation step."""
    from osm_merge_ray.synth import make_batch

    d = os.path.join(cache, f"points-pool-m{m}")
    if not os.path.isdir(d):
        _write_atomic(d, lambda side: (make_batch(idx, side, seed=POOL_SEED)
                                       for idx in np.array_split(np.arange(m), 16)))
    return d


def points_inputs(cache: str, seed: int, n: int, m: int, with_bytes: bool) -> str:
    """Directory holding ``primary/`` and ``secondary/`` parquet for
    ``seed``: the pool rows of ``n`` indices drawn from ``0..m-1`` by the
    seed, the same indices on both sides (so every planted pair is kept).
    With ``with_bytes`` the rows carry encoded images; without, they are a
    light copy (no ``bytes`` column)."""
    d = os.path.join(cache, f"points-s{seed}-n{n}-m{m}", "full" if with_bytes else "light")
    if os.path.isdir(d):
        return d
    pool = points_pool(cache, m)
    keep = np.zeros(m, dtype=bool)
    keep[np.random.default_rng(seed).choice(m, n, replace=False)] = True

    def make_side(side):
        parts, start = [], 0
        for f in sorted(os.listdir(os.path.join(pool, side))):
            pf = pq.ParquetFile(os.path.join(pool, side, f))
            cols = [c for c in pf.schema_arrow.names if with_bytes or c != "bytes"]
            t = pf.read(columns=cols)
            parts.append(t.filter(pa.array(keep[start:start + t.num_rows])))
            start += t.num_rows
        t = pa.concat_tables(parts)
        return [t.slice(int(c[0]), len(c)) for c in _chunks(n)]

    _write_atomic(d, make_side)
    if with_bytes:
        _evict_full_copies(cache, keep=d)
    return d


def _evict_full_copies(cache: str, keep: str) -> None:
    full = [os.path.join(cache, b, "full") for b in os.listdir(cache)
            if b.startswith("points-s") and os.path.isdir(os.path.join(cache, b, "full"))]
    full.sort(key=os.path.getmtime, reverse=True)
    for d in full[KEEP_FULL_SEEDS:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def _line_side(rng_draws: dict, side: str, n: int) -> pa.Table:
    lon, lat = rng_draws["lon"], rng_draws["lat"]
    if side == "secondary":
        lat = lat + LINE_SHIFT_M / 111194.92664455873
    id0 = LINE_ID_OFFSET if side == "secondary" else 0
    coords = [json.dumps([[float(lon[i]) + k * 1e-4, float(lat[i])] for k in range(5)])
              for i in range(n)]
    props = [json.dumps({"name": f"Road {i}", "ref": f"FR {i}"}) for i in range(n)]
    return pa.table({
        "feature_id": pa.array(np.arange(n, dtype=np.int64) + id0, pa.int64()),
        "geom_type": pa.array(["LineString"] * n, pa.string()),
        "coords_json": pa.array(coords, pa.string()),
        "props_json": pa.array(props, pa.string()),
    })


def lines_inputs(cache: str, seed: int, n: int) -> str:
    """Directory holding skewed short east-west lines: ``LINE_HOT_SHARE`` of
    them lie in one ~5 km square (one hot cell at cell_res 12), the rest
    spread over a 4x4 degree area. Each secondary line is its primary
    shifted ``LINE_SHIFT_M`` north."""
    d = os.path.join(cache, f"lines-s{seed}-n{n}")
    if os.path.isdir(d):
        return d
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < LINE_HOT_SHARE
    draws = {
        "lon": np.where(hot, -105.04 + rng.random(n) * 0.05, -108.0 + rng.random(n) * 4.0),
        "lat": np.where(hot, 39.01 + rng.random(n) * 0.05, 37.0 + rng.random(n) * 4.0),
    }

    def make_side(side):
        t = _line_side(draws, side, n)
        return [t.slice(int(c[0]), len(c)) for c in _chunks(n)]

    _write_atomic(d, make_side)
    return d


def read_sides(d: str, drop=()) -> tuple[pa.Table, pa.Table]:
    """Both sides of an input directory as in-memory tables, without the
    ``drop`` columns (for checks and the in-process replay)."""
    out = []
    for side in SIDES:
        path = os.path.join(d, side)
        names = pq.read_schema(os.path.join(path, sorted(os.listdir(path))[0])).names
        out.append(pq.read_table(path, columns=[c for c in names if c not in drop]))
    return tuple(out)
