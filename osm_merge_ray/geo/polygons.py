"""Polygon kernels, from scratch (no GEOS): intersection area and
point-in-polygon.

Implements the geometry behind the reference's duplicate-building join
(``conflateBuildings.overlapDB`` conflateBuildings.py:106-112:
``ST_INTERSECTS`` + ``ST_Area(ST_INTERSECTION)``): convex polygon
clipping via Sutherland–Hodgman (public algorithm, 1974) and shoelace
area. Sufficient for building-footprint work where footprints are
convex or near-convex; a general polygon engine would swap in a
Weiler–Atherton / Vatti clipper behind the same API.
"""

from __future__ import annotations

import numpy as np


def shoelace_area(poly: np.ndarray) -> float:
    """Signed area (positive = CCW) of a ring (n, 2)."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def ensure_ccw(poly: np.ndarray) -> np.ndarray:
    return poly if shoelace_area(poly) >= 0 else poly[::-1]


def convex_clip(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland–Hodgman: subject polygon clipped by CONVEX ``clip``.
    Both (n, 2) arrays; returns the intersection ring (possibly empty)."""
    clip = ensure_ccw(np.asarray(clip, dtype=np.float64))
    output = list(np.asarray(subject, dtype=np.float64))
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        input_pts = output
        output = []
        prev = input_pts[-1]
        prev_in = ex * (prev[1] - a[1]) - ey * (prev[0] - a[0]) >= 0
        for cur in input_pts:
            cur_in = ex * (cur[1] - a[1]) - ey * (cur[0] - a[0]) >= 0
            if cur_in != prev_in:
                # edge crossing: solve intersection with clip edge
                dx, dy = cur[0] - prev[0], cur[1] - prev[1]
                denom = ex * dy - ey * dx
                if denom != 0:
                    t = (ex * (a[1] - prev[1]) - ey * (a[0] - prev[0])) / denom
                    output.append(np.array([prev[0] + t * dx, prev[1] + t * dy]))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return np.asarray(output) if output else np.empty((0, 2))


def intersection_area(a: np.ndarray, b: np.ndarray) -> float:
    """|A ∩ B| for convex a, b — the ST_Area(ST_INTERSECTION) analog."""
    inter = convex_clip(ensure_ccw(np.asarray(a, dtype=np.float64)), b)
    return abs(shoelace_area(inter))


def is_convex(ring: np.ndarray) -> bool:
    """Convexity check via a cross-product sign sweep over consecutive
    edges (collinear vertices allowed). O(n)."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) < 3:
        return True
    a = np.diff(np.vstack([r, r[:1]]), axis=0)          # edge vectors
    cross = a[:-1, 0] * a[1:, 1] - a[:-1, 1] * a[1:, 0]
    # wrap-around corner (last edge x first edge)
    wrap = a[-1, 0] * a[0, 1] - a[-1, 1] * a[0, 0]
    cross = np.append(cross, wrap)
    pos = cross > 1e-30
    neg = cross < -1e-30
    return not (pos.any() and neg.any())


#: max grid pieces one ring may split into — beyond this the pre-r5
#: raise fires (the AXIS_CAP philosophy: a ~360-degree corrupt bbox at
#: fine resolutions would otherwise mean millions-to-trillions of
#: Sutherland-Hodgman clips inside one map task, a silent near-hang)
MAX_SPLIT_PIECES = 4096


def split_polygon_span(ring: np.ndarray,
                       max_span_deg: float) -> list[np.ndarray]:
    """Slice a CONVEX ring into convex pieces whose bboxes span at most
    ``max_span_deg`` per axis, by clipping against an axis-aligned grid
    of boxes (Sutherland–Hodgman with a rectangle clip window — each
    piece stays convex). Pieces PARTITION the polygon (disjoint
    interiors, union = original), so intersection areas over the
    pieces SUM exactly to the whole-polygon intersection area — the
    invariant the oversized-polygon conflation path relies on
    (stages/overlap.py, r5). Within-span inputs return ``[ring]``
    unchanged; a degenerate (zero-area) oversized ring also returns
    ``[ring]`` so the caller's raise-not-truncate contract still
    fires."""
    ring = ensure_ccw(np.asarray(ring, dtype=np.float64))
    if max_span_deg <= 0:
        raise ValueError("max_span_deg must be positive")
    (x0, y0), (x1, y1) = ring.min(axis=0), ring.max(axis=0)
    if (x1 - x0) <= max_span_deg and (y1 - y0) <= max_span_deg:
        return [ring]
    if not is_convex(ring):
        # S-H pieces only PARTITION convex rings — a non-convex
        # oversized ring must keep the pre-r5 raise contract instead
        # of silently drifting the piece-area sum (review r5)
        raise ValueError(
            "split_polygon_span: oversized NON-convex ring (bbox "
            f"{x1 - x0:.3f} x {y1 - y0:.3f} deg > {max_span_deg:.3f}); "
            "convex decomposition is not supported — split the geometry "
            "upstream or use a coarser cell_res")
    nx = int(np.ceil((x1 - x0) / max_span_deg))
    ny = int(np.ceil((y1 - y0) / max_span_deg))
    if nx * ny > MAX_SPLIT_PIECES:
        raise ValueError(
            f"split_polygon_span: ring would split into {nx}x{ny} "
            f"pieces (> {MAX_SPLIT_PIECES}) at span {max_span_deg:.4f} "
            "deg — likely a corrupt bbox or a too-fine cell_res; "
            "raise-not-hang (the pre-r5 cover contract)")
    out: list[np.ndarray] = []
    for i in range(nx):
        bx0 = x0 + i * max_span_deg
        bx1 = min(bx0 + max_span_deg, x1)
        for j in range(ny):
            by0 = y0 + j * max_span_deg
            by1 = min(by0 + max_span_deg, y1)
            box = np.array([[bx0, by0], [bx1, by0], [bx1, by1], [bx0, by1]])
            piece = convex_clip(ring, box)
            if len(piece) >= 3 and abs(shoelace_area(piece)) > 0.0:
                out.append(piece)
    return out if out else [ring]


def point_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray casting: points (n,) vs one polygon ring
    (m, 2). Engine analog of ``shapely.contains`` gating at
    conflatePOI.py:406 / clip at osmhighways.py:243-252.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    poly = np.asarray(poly, dtype=np.float64)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(len(px), dtype=bool)
    for i in range(len(poly)):
        cond = ((y0[i] > py) != (y1[i] > py))
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0[i] + (py - y0[i]) / (y1[i] - y0[i] + 1e-300) * (x1[i] - x0[i])
        inside ^= cond & (px < xint)
    return inside
