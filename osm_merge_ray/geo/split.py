"""Bbox-span splitting for oversized polylines.

Generalizes the antimeridian split (geo/antimeridian.py) to ANY line
whose lon/lat bbox exceeds the partition machinery's replicate cover
(stages/partition.py AXIS_CAP): a continent-scale line is cut into
contiguous parts whose bboxes each fit a target span, so the cell-cover
replication stays bounded without a manual ``cell_res`` retune
(r4 VERDICT task #7 — previously such inputs RAISED with guidance).

Correctness: parts share their boundary vertex, and over-long segments
are subdivided at COLLINEAR interpolated points, so the union of part
point-sets is exactly the original polyline — min-over-parts distance
equals distance to the whole line, the same invariant the antimeridian
split relies on (pinned against the brute-force oracle in
tests/test_antimeridian.py).

The reference (hotosm/osm-merge) never handles this case — its AOIs are
US forests — so the semantics are ours.
"""

from __future__ import annotations

import numpy as np

#: max parts one polyline may split into — beyond this the splitter
#: RAISES (same philosophy as polygons.MAX_SPLIT_PIECES). The same cap
#: bounds the longest single segment at MAX_SPLIT_PARTS spans per axis,
#: so a fresh part's cut parameter t >= 1/MAX_SPLIT_PARTS > the 1e-9
#: progress epsilon and the cut loop provably terminates
MAX_SPLIT_PARTS = 4096


def _check_parts(n: float, max_span_deg: float) -> None:
    if n > MAX_SPLIT_PARTS:
        raise ValueError(
            f"split_long_line: polyline needs > {MAX_SPLIT_PARTS} parts "
            f"(~{n:.0f}) at span {max_span_deg:.4f} deg — likely a corrupt "
            "coordinate or a too-fine cell_res; raise-not-hang (the pre-r5 "
            "cover contract)")


def split_long_line(coords: np.ndarray,
                    max_span_deg: float) -> list[np.ndarray]:
    """Split a (n, 2) lon/lat polyline into contiguous parts whose
    bboxes span at most ``max_span_deg`` degrees per axis.

    Within-span inputs are returned as ``[coords]`` unchanged.
    Consecutive parts share their boundary point; a single segment
    longer than the span is subdivided at interpolated (collinear)
    points, so no part ever exceeds the span and the combined geometry
    is point-for-point the original.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    if max_span_deg <= 0:
        raise ValueError("max_span_deg must be positive")
    if len(coords) < 2:
        return [coords]
    x, y = coords[:, 0], coords[:, 1]
    if (x.max() - x.min()) <= max_span_deg and \
            (y.max() - y.min()) <= max_span_deg:
        return [coords]
    # part-count cap (review r5, mirrors polygons.MAX_SPLIT_PIECES): a
    # corrupt coordinate (e.g. a 4e8-degree jump) would otherwise emit
    # millions of parts — or, past float resolution, spin the cut loop
    # forever. One segment alone needs >= its longest axis / span parts;
    # the loop counts the rest as it emits them.
    seg = float(np.maximum(np.abs(np.diff(x)), np.abs(np.diff(y))).max())
    _check_parts(seg / max_span_deg, max_span_deg)

    parts: list[np.ndarray] = []
    cur: list[list[float]] = [[float(x[0]), float(y[0])]]
    minx = maxx = float(x[0])
    miny = maxy = float(y[0])
    px, py = float(x[0]), float(y[0])
    i = 1
    n = len(coords)
    while i < n:
        _check_parts(len(parts), max_span_deg)
        vx, vy = float(x[i]), float(y[i])
        nminx, nmaxx = min(minx, vx), max(maxx, vx)
        nminy, nmaxy = min(miny, vy), max(maxy, vy)
        if (nmaxx - nminx) <= max_span_deg and \
                (nmaxy - nminy) <= max_span_deg:
            cur.append([vx, vy])
            minx, maxx, miny, maxy = nminx, nmaxx, nminy, nmaxy
            px, py = vx, vy
            i += 1
            continue
        # largest t in (0, 1]: part + (p + t*(v-p)) stays within span.
        # The bbox grows monotonically along the segment, so each axis
        # contributes one linear boundary.
        dx, dy = vx - px, vy - py
        t = 1.0
        if dx > 0:
            t = min(t, ((minx + max_span_deg) - px) / dx)
        elif dx < 0:
            t = min(t, ((maxx - max_span_deg) - px) / dx)
        if dy > 0:
            t = min(t, ((miny + max_span_deg) - py) / dy)
        elif dy < 0:
            t = min(t, ((maxy - max_span_deg) - py) / dy)
        if t <= 1e-9:
            # the current part is already AT the limit in this
            # segment's direction: close it and restart from the
            # shared vertex (fresh bbox guarantees progress next pass)
            if len(cur) >= 2:
                parts.append(np.asarray(cur, dtype=np.float64))
            cur = [[px, py]]
            minx = maxx = px
            miny = maxy = py
            continue
        if t >= 1.0:
            cx, cy = vx, vy
            i += 1  # cut lands exactly on the vertex
        else:
            cx, cy = px + t * dx, py + t * dy  # collinear cut point
        cur.append([cx, cy])
        parts.append(np.asarray(cur, dtype=np.float64))
        cur = [[cx, cy]]
        minx = maxx = cx
        miny = maxy = cy
        px, py = cx, cy
    if len(cur) >= 2:
        parts.append(np.asarray(cur, dtype=np.float64))
    _check_parts(len(parts), max_span_deg)
    return parts
