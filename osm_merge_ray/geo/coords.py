"""Geometry codec: the one owner of how a light row stores geometry.

``coords_json`` holds nested JSON arrays with ``[lon, lat]`` leaves
(Point, LineString, ring, Multi*); a row's vertices are its leaves in
order, as ``np.asarray(json.loads(s)).reshape(-1, 2)`` gives them.
``parse`` reads a whole batch with Arrow string kernels (a correctly
rounded decimal parser, so bit-equal to ``json.loads``) into flat
vertices + row offsets. Null or empty geometry raises ``ValueError``
naming the column and up to 3 feature ids.

The light-row geometry columns (stages/partition.py contract) come from
here: ``lon, lat`` is the SEQUENTIAL vertex mean (``c.mean(axis=0)``,
the engine's one centroid rule; POI ``dist_mm`` parity with DuckDB
rests on it), ``x0, y0, x1, y1`` the bbox, and ``part_json`` is set on
the parts of a date-line crosser or an oversized geometry (``explode``).
Sinks match on ``part_json`` where set, else ``coords_json``
(``match_geometry``).
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osm_merge_ray.geo import cells as C
from osm_merge_ray.geo.antimeridian import split_antimeridian
from osm_merge_ray.geo.polygons import split_polygon_span
from osm_merge_ray.geo.split import split_long_line


class Geoms(NamedTuple):
    """Row ``i``'s vertices are ``xy[off[i]:off[i + 1]]``."""

    xy: np.ndarray   # (V, 2) float64 lon/lat
    off: np.ndarray  # (n + 1,) int64

    def row(self, i: int) -> np.ndarray:
        return self.xy[self.off[i]:self.off[i + 1]]

    def rows(self) -> list[np.ndarray]:
        return np.split(self.xy, self.off[1:-1]) if len(self.off) > 1 else []


def ids_of(t: pa.Table):
    """The id column: ``feature_id``, else the OSM reader's ``osm_id``."""
    return t.column("feature_id" if "feature_id" in t.column_names else "osm_id")


def _strings(col):
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        return col
    return pa.array(np.asarray(col, dtype=object), pa.string())


def _check(bad: np.ndarray, what: str, column: str, ids) -> None:
    bad = np.flatnonzero(bad)
    if len(bad):
        named = (f"rows {bad[:3].tolist()}" if ids is None else
                 f"feature ids {np.asarray(ids)[bad[:3]].tolist()}")
        raise ValueError(f"{column}: {what} in {len(bad)} row(s); {named}")


def parse(col, ids=None, column: str = "coords_json") -> Geoms:
    """Parse a batch of geometry JSON strings (Arrow, or a sequence of
    str); ``ids`` only name failing rows (row numbers when None)."""
    s = pc.replace_substring(pc.replace_substring(_strings(col), "[", ""), "]", "")
    empty = pc.fill_null(pc.equal(pc.utf8_trim_whitespace(s), ""), True)
    _check(np.asarray(empty), "null or empty geometry", column, ids)
    vals = pc.split_pattern(s, ",")
    counts = np.asarray(pc.list_value_length(vals), dtype=np.int64)
    _check(counts % 2, "coordinates that are not lon/lat pairs", column, ids)
    flat = pc.cast(pc.utf8_trim_whitespace(pc.list_flatten(vals)), pa.float64())
    xy = np.asarray(flat, dtype=np.float64).reshape(-1, 2)
    return Geoms(xy, np.concatenate(([0], np.cumsum(counts // 2))))


def from_arrays(parts: list[np.ndarray]) -> Geoms:
    """Geoms of a list of (n_i, 2) vertex arrays."""
    xy = np.concatenate([np.reshape(p, (-1, 2)) for p in parts] or [np.empty((0, 2))],
                        dtype=np.float64)
    lens = np.fromiter((len(p) for p in parts), dtype=np.int64, count=len(parts))
    return Geoms(xy, np.concatenate(([0], np.cumsum(lens))))


def centroids(g: Geoms) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``c.mean(axis=0)``, bit for bit: one vector add per vertex
    index, over the rows that have it (a prefix once sorted by length)."""
    lens = np.diff(g.off)
    order = np.argsort(-lens, kind="stable")
    neg = -lens[order]  # ascending
    start = g.off[:-1][order]
    acc = g.xy[start]
    for k in range(1, int(lens.max(initial=0))):
        m = int(np.searchsorted(neg, -k))  # rows with more than k vertices
        acc[:m] += g.xy[start[:m] + k]
    c = np.empty_like(acc)
    c[order] = acc / -neg[:, None]
    return c[:, 0], c[:, 1]


def bboxes(g: Geoms) -> np.ndarray:
    """(n, 4) ``x0, y0, x1, y1``."""
    if len(g.off) == 1:
        return np.empty((0, 4))
    s = g.off[:-1]
    x, y = g.xy[:, 0], g.xy[:, 1]
    return np.column_stack([np.minimum.reduceat(x, s), np.minimum.reduceat(y, s),
                            np.maximum.reduceat(x, s), np.maximum.reduceat(y, s)])


def light_columns(lon: np.ndarray, lat: np.ndarray, cell_res: int,
                  bbox: np.ndarray | None = None) -> dict:
    """The light-row geometry columns, in contract order: ``lon, lat``,
    the bbox ``x0, y0, x1, y1`` when given, and the centroid ``cell``."""
    cols = {"lon": pa.array(lon, pa.float64()), "lat": pa.array(lat, pa.float64())}
    if bbox is not None:
        cols.update({k: pa.array(bbox[:, i], pa.float64())
                     for i, k in enumerate(("x0", "y0", "x1", "y1"))})
    cols["cell"] = pa.array(C.lonlat_to_cell(lon, lat, cell_res), pa.int64())
    return cols


def pad(g: Geoms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-padded (n, maxlen) x/y arrays + lengths, the packed form the
    batched kernels of geo/distance.py take."""
    lens = np.diff(g.off)
    shape = (len(lens), max(int(lens.max()) if len(lens) else 1, 1))
    xs, ys = np.zeros(shape), np.zeros(shape)
    r = np.repeat(np.arange(len(lens)), lens)
    k = np.arange(len(g.xy)) - np.repeat(g.off[:-1], lens)
    xs[r, k], ys[r, k] = g.xy[:, 0], g.xy[:, 1]
    return xs, ys, lens


def match_geometry(df) -> Geoms:
    """A sink's light rows' match geometry: the part where set, else the
    whole feature."""
    part = _strings(df["part_json"])
    geom = pc.if_else(pc.equal(part, ""), _strings(df["coords_json"]), part)
    return parse(geom, df["feature_id"])


def _split_line(c: np.ndarray, span_limit: float) -> list[np.ndarray]:
    return [q for p in split_antimeridian(c) for q in split_long_line(p, span_limit)]


class Exploded(NamedTuple):
    """Output row ``k`` is input row ``take[k]`` (one row per part);
    ``g`` holds the input rows' whole geometries."""

    g: Geoms
    take: np.ndarray
    part_json: pa.Array
    lon: np.ndarray
    lat: np.ndarray
    bbox: np.ndarray  # (len(take), 4)


def explode(t: pa.Table, span_limit: float, ring: bool = False) -> Exploded:
    """Parse ``t``'s ``coords_json`` once; centroid + bbox per row. Only
    the rows the splitters would cut (a lon jump > 180 deg, or a bbox
    span over ``span_limit``) go through them — the line splitters, or
    with ``ring`` the polygon one — and emit one row per part with the
    part's own centroid, bbox and ``part_json``."""
    g = parse(t.column("coords_json"), ids_of(t))
    bbox = bboxes(g)
    # the splitters' own <= tests (NaN spans included); jumps only
    # between vertices of one row
    flag = ~((bbox[:, 2] - bbox[:, 0] <= span_limit)
             & (bbox[:, 3] - bbox[:, 1] <= span_limit))
    jump = np.abs(np.diff(g.xy[:, 0])) > 180.0
    jump[g.off[1:-1] - 1] = False
    flag[np.searchsorted(g.off, np.flatnonzero(jump), side="right") - 1] = True
    split = split_polygon_span if ring else _split_line
    pieces = [split(g.row(i), span_limit) for i in np.flatnonzero(flag)]
    counts = np.ones(len(flag), dtype=np.int64)
    counts[flag] = [len(ps) for ps in pieces]
    take = np.repeat(np.arange(len(flag)), counts)
    # a flagged row takes centroid + bbox from its part(s) even when it
    # stays whole, and carries the part whenever it differs from the
    # row: a crosser ending on the meridian comes back as one part with
    # that vertex at the other sign, which the sinks must match too
    slots = np.flatnonzero(flag[take])
    parts = from_arrays([p for ps in pieces for p in ps])
    lon, lat = (c[take] for c in centroids(g))
    lon[slots], lat[slots] = centroids(parts)
    bbox = bbox[take]
    bbox[slots] = bboxes(parts)
    part_json = np.full(len(take), "", dtype=object)
    part_json[slots] = [
        "" if len(ps) == 1 and np.array_equal(p, g.row(i), equal_nan=True)
        else json.dumps(p.tolist())
        for i, ps in zip(np.flatnonzero(flag), pieces) for p in ps]
    return Exploded(g, take, pa.array(part_json, pa.string()), lon, lat, bbox)
