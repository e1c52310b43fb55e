"""Douglas-Peucker polyline simplification (Douglas & Peucker, 1973).

The standard pre-import geometry cleanup for OSM pipelines (agency
exports routinely carry sub-meter vertex spam): keep the minimal vertex
subset whose maximum deviation from the original line is <= tolerance.
Guarantees: endpoints always survive; every dropped vertex lies within
``tolerance_m`` of the simplified line.

Per-batch vectorization: the per-line stack loop is Python (DP is
inherently sequential per line), but each split-point search is one
numpy ``point_segment_dist2`` over the whole sub-span, in planar meters
via the same equirectangular local projection the matcher uses
(geo/distance.py) — consistent metric, no trig in the hot loop.
Engine-only (pytest-pinned): the recursive split has no practical SQL
twin, so this ships as a library stage, not a driver query.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from osm_merge_ray.geo.coords import parse
from osm_merge_ray.geo.distance import point_segment_dist2


def dp_mask(xs: np.ndarray, ys: np.ndarray, tol: float) -> np.ndarray:
    """Boolean keep-mask for one polyline already projected to meters."""
    n = len(xs)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[n - 1] = True
    tol2 = tol * tol
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        d2 = point_segment_dist2(xs[a + 1:b], ys[a + 1:b],
                                 xs[a], ys[a], xs[b], ys[b])
        i = int(np.argmax(d2))
        if d2[i] > tol2:
            m = a + 1 + i
            keep[m] = True
            stack.append((a, m))
            stack.append((m, b))
    return keep


def simplify_coords(coords: np.ndarray, tolerance_m: float) -> np.ndarray:
    """Simplify one (n, 2) lon/lat array; returns the kept subset."""
    if len(coords) < 3:
        return coords
    lat0 = float(coords[:, 1].mean())
    kx = 111320.0 * float(np.cos(np.radians(lat0)))
    xs = coords[:, 0] * kx
    ys = coords[:, 1] * 110540.0
    return coords[dp_mask(xs, ys, tolerance_m)]


def simplify_lines(ds, tolerance_m: float = 1.0,
                   coords_column: str = "coords_json"):
    """Simplify every LineString row's ``coords_json``; adds
    ``n_points_in`` / ``n_points_out`` so a pipeline can report its
    vertex-reduction rate."""

    def batch(t: pa.Table) -> pa.Table:
        g = parse(t.column(coords_column), column=coords_column)
        simple = [simplify_coords(c, tolerance_m) for c in g.rows()]
        out = [json.dumps(c.tolist()) for c in simple]
        n_in = np.diff(g.off)
        n_out = [len(c) for c in simple]
        t = t.drop_columns([coords_column])
        t = t.append_column(coords_column, pa.array(out, pa.string()))
        t = t.append_column("n_points_in", pa.array(n_in, pa.int64()))
        return t.append_column("n_points_out", pa.array(n_out, pa.int64()))

    return ds.map_batches(batch, batch_format="pyarrow")
