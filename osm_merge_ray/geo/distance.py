"""Vectorized geodesic / planar distance, slope and angle kernels.

Replaces the reference's per-call scalar geometry
(``conflator.getDistance`` conflator.py:456-531, ``getSlope``
conflator.py:361-454, haversine at conflatePOI.py:122-124) with numpy
array kernels that run once per Arrow batch. The reference rebuilds a
pyproj Transformer on *every* distance call (conflator.py:477-480, its
biggest known perf sink); here projection is pure math and amortized.
"""

from __future__ import annotations

import numpy as np

EARTH_R = 6371008.8  # mean Earth radius, meters (spherical model)

#: line-vs-point forced no-match sentinel, mirroring conflator.py:505-508
NO_MATCH_DIST = 12345678.9


def haversine_m(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Great-circle distance in meters, elementwise over arrays."""
    lon1, lat1, lon2, lat2 = (np.asarray(a, dtype=np.float64) for a in (lon1, lat1, lon2, lat2))
    rl1, rl2 = np.radians(lat1), np.radians(lat2)
    dlat = rl2 - rl1
    dlon = np.radians(lon2 - lon1)
    a = np.sin(dlat / 2.0) ** 2 + np.cos(rl1) * np.cos(rl2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_R * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def point_segment_dist2(px, py, ax, ay, bx, by) -> np.ndarray:
    """Squared planar distance from points to segments (broadcastable)."""
    px, py, ax, ay, bx, by = (np.asarray(a, dtype=np.float64) for a in (px, py, ax, ay, bx, by))
    dx, dy = bx - ax, by - ay
    l2 = dx * dx + dy * dy
    t = np.where(l2 > 0, ((px - ax) * dx + (py - ay) * dy) / np.where(l2 > 0, l2, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx, cy = ax + t * dx, ay + t * dy
    return (px - cx) ** 2 + (py - cy) ** 2


def polyline_min_dist_m(line_a: np.ndarray, line_b: np.ndarray) -> float:
    """Minimum distance between two polylines (meters), matching the
    reference's "min over exploded segments" semantics
    (conflator.py:490-531) on a local planar projection.

    ``line_a``/``line_b``: (n, 2) arrays of lon/lat vertices.
    """
    lat0 = float(np.mean(line_a[:, 1]))
    kx = 111320.0 * float(np.cos(np.radians(lat0)))
    ky = 110540.0
    # date-line wrap: bring B into A's lon frame (±360 when the pair
    # straddles ±180). Exact for local geometries (the engine splits
    # antimeridian-crossing lines upstream, so parts never span >180°).
    shift = round((float(line_a[0, 0]) - float(line_b[0, 0])) / 360.0) * 360.0

    ax, ay = line_a[:, 0] * kx, line_a[:, 1] * ky
    bx, by = (line_b[:, 0] + shift) * kx, line_b[:, 1] * ky
    # vertices of A vs segments of B and vice versa — for non-crossing
    # lines this equals true segment-segment min distance; crossing
    # lines have distance ~0 which vertex sampling approximates well
    # at the thresholds involved (7 m).
    d1 = point_segment_dist2(ax[:, None], ay[:, None], bx[None, :-1], by[None, :-1], bx[None, 1:], by[None, 1:]) if len(bx) > 1 else np.full((len(ax), 1), np.inf)
    d2 = point_segment_dist2(bx[:, None], by[:, None], ax[None, :-1], ay[None, :-1], ax[None, 1:], ay[None, 1:]) if len(ax) > 1 else np.full((len(bx), 1), np.inf)
    best = min(d1.min() if d1.size else np.inf, d2.min() if d2.size else np.inf)
    if not np.isfinite(best):  # both degenerate: point-point
        best = (ax[0] - bx[0]) ** 2 + (ay[0] - by[0]) ** 2
    return float(np.sqrt(best))


def batch_polyline_min_dist_m(axs, ays, la, bxs, bys, lb,
                              chunk: int = 4096) -> np.ndarray:
    """Min polyline-polyline distance (meters) for N index-aligned pairs
    over packed arrays (``geo/coords.pad``): vertices-of-A vs
    segments-of-B and vice versa, on the same local planar projection
    the scalar ``polyline_min_dist_m`` uses — results are identical.
    Memory is bounded by chunking pairs (chunk * maxA * maxB doubles).
    """
    n = len(la)
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        ax, ay, a_l = axs[lo:hi], ays[lo:hi], la[lo:hi]
        bx, by, b_l = bxs[lo:hi], bys[lo:hi], lb[lo:hi]
        # per-pair projection constants (lat0 = mean of A's real vertices)
        lat0 = ay.sum(axis=1) / np.maximum(a_l, 1)
        kx = (111320.0 * np.cos(np.radians(lat0)))[:, None]
        ky = 110540.0
        # date-line wrap by first-vertex delta (see polyline_min_dist_m)
        shift = np.round((ax[:, 0] - bx[:, 0]) / 360.0)[:, None] * 360.0
        pax, pay = ax * kx, ay * ky
        pbx, pby = (bx + shift) * kx, by * ky
        va = (np.arange(ax.shape[1])[None, :] < a_l[:, None])
        vb = (np.arange(bx.shape[1])[None, :] < b_l[:, None])
        best = np.full(hi - lo, np.inf)

        def min_vert_seg(px, py, vp, qx, qy, vq):
            # points (c, mp) vs segments of q (c, mq-1) → (c,)
            if qx.shape[1] < 2:
                return np.full(px.shape[0], np.inf)
            axs_, ays_ = qx[:, :-1], qy[:, :-1]
            bxs_, bys_ = qx[:, 1:], qy[:, 1:]
            d2 = point_segment_dist2(
                px[:, :, None], py[:, :, None],
                axs_[:, None, :], ays_[:, None, :],
                bxs_[:, None, :], bys_[:, None, :],
            )
            seg_valid = vq[:, 1:]  # segment j exists iff vertex j+1 real
            valid = vp[:, :, None] & seg_valid[:, None, :]
            d2 = np.where(valid, d2, np.inf)
            return d2.reshape(d2.shape[0], -1).min(axis=1) if d2.size else np.full(px.shape[0], np.inf)

        best = np.minimum(best, min_vert_seg(pax, pay, va, pbx, pby, vb))
        best = np.minimum(best, min_vert_seg(pbx, pby, vb, pax, pay, va))
        # both degenerate (single-point lines): point-point distance
        deg = ~np.isfinite(best)
        if deg.any():
            best[deg] = ((pax[deg, 0] - pbx[deg, 0]) ** 2
                         + (pay[deg, 0] - pby[deg, 0]) ** 2)
        out[lo:hi] = np.sqrt(best)
    return out


def batch_slope_angle_offset2(axs, ays, la, bxs, bys, lb) -> tuple[np.ndarray, np.ndarray]:
    """Reference-parity slope/angle over packed polyline pairs.

    Mirrors ``getSlope`` (conflator.py:361-454): direction endpoints are
    the vertices at OFFSET 2 from each end (index 2 and index n-2,
    0-based), not the first/last vertex; too-short lines (no index-2
    vertex), coincident offset endpoints, or a vertical old-line
    direction all force (0, 0). Divergence (documented): the reference
    CRASHES on a vertical new-line direction (unguarded division,
    conflator.py:406) — we return (0, 0) for that too. Slopes are taken
    on the local planar projection, which locally matches the
    reference's EPSG:3857 slopes up to a common sec(lat) factor that
    cancels in the angle."""
    n = len(la)
    if n == 0:
        return np.empty(0), np.empty(0)
    lat0 = ays.sum(axis=1) / np.maximum(la, 1)
    kx = 111320.0 * np.cos(np.radians(lat0))
    ky = 110540.0

    def endpoints(xs, ys, lens):
        i0 = np.full(n, 2, dtype=np.int64)
        i1 = np.maximum(lens - 2, 0)
        short = lens <= 2  # no index-2 vertex → forced (0,0)
        i0c = np.minimum(i0, np.maximum(lens - 1, 0))
        i1c = np.minimum(i1, np.maximum(lens - 1, 0))
        r = np.arange(n)
        return xs[r, i0c], ys[r, i0c], xs[r, i1c], ys[r, i1c], short

    ax1, ay1, ax2, ay2, a_short = endpoints(axs, ays, la)
    bx1, by1, bx2, by2, b_short = endpoints(bxs, bys, lb)
    same_a = (ax1 == ax2) & (ay1 == ay2)
    same_b = (bx1 == bx2) & (by1 == by2)
    forced = a_short | b_short | same_a | same_b
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = ((ay2 - ay1) * ky) / ((ax2 - ax1) * kx)
        s2 = ((by2 - by1) * ky) / ((bx2 - bx1) * kx)
        slope = s1 - s2
        angle = np.degrees(np.arctan((s2 - s1) / (1.0 + s2 * s1)))
    vertical = ~np.isfinite(s1) | ~np.isfinite(s2)
    forced |= vertical
    slope = np.where(forced, 0.0, np.nan_to_num(slope, nan=0.0, posinf=0.0, neginf=0.0))
    angle = np.where(forced, 0.0, np.nan_to_num(angle, nan=0.0, posinf=0.0, neginf=0.0))
    return slope, angle


def slope_angle(a_start: np.ndarray, a_end: np.ndarray, b_start: np.ndarray, b_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope difference and intersection angle between direction vectors.

    Vectorized analog of ``Conflator.getSlope`` (conflator.py:361-454):
    ``slope = slope1 - slope2``; ``angle = atan((s2-s1)/(1+s2*s1))`` in
    degrees; NaN → 0; identical endpoints → (0, 0).
    Inputs are (n, 2) arrays of planar (x, y) endpoint coordinates.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = (a_end[:, 1] - a_start[:, 1]) / (a_end[:, 0] - a_start[:, 0])
        s2 = (b_end[:, 1] - b_start[:, 1]) / (b_end[:, 0] - b_start[:, 0])
        slope = s1 - s2
        angle = np.degrees(np.arctan((s2 - s1) / (1.0 + s2 * s1)))
    slope = np.nan_to_num(slope, nan=0.0, posinf=0.0, neginf=0.0)
    angle = np.nan_to_num(angle, nan=0.0, posinf=0.0, neginf=0.0)
    same = np.all(a_start == b_start, axis=1) & np.all(a_end == b_end, axis=1)
    slope = np.where(same, 0.0, slope)
    angle = np.where(same, 0.0, angle)
    return slope, angle
