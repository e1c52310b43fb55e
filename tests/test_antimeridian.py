"""Antimeridian (±180°) handling (VERDICT r2 #8): date-line-crossing
lines are SPLIT upstream into per-side parts instead of being trimmed
by the AXIS_CAP cover clamp, cross-meridian candidate pairs survive the
cell shuffle (the lon cover wraps mod the grid), and the line distance
kernel is wrap-aware. Matching is pinned by a brute-force min-over-
parts distance oracle; oversized non-crossing geometries now fail
loudly instead of silently losing far-end pairs."""

import json

import numpy as np
import pytest
import ray.data as rd

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo.antimeridian import crosses_antimeridian, split_antimeridian
from osm_merge_ray.geo.distance import polyline_min_dist_m
from osm_merge_ray.sources.geojson import features_to_table
from osm_merge_ray.stages.lines import conflate_lines

CFG = ConflationConfig(cell_res=12, num_buckets=8)
LAT = -16.2  # Taveuni-ish: the 180° meridian crosses land here


# ---------- pure split-function semantics ----------

def test_split_passthrough():
    c = np.array([[10.0, 1.0], [10.001, 1.0], [10.002, 1.1]])
    assert not crosses_antimeridian(c[:, 0])
    parts = split_antimeridian(c)
    assert len(parts) == 1 and np.array_equal(parts[0], c)


def test_split_eastbound():
    c = np.array([[179.999, LAT], [-179.999, LAT + 0.001]])
    assert crosses_antimeridian(c[:, 0])
    a, b = split_antimeridian(c)
    # part 1 ends AT +180, part 2 starts at -180, same interpolated lat
    assert a[-1, 0] == 180.0 and b[0, 0] == -180.0
    assert a[-1, 1] == pytest.approx(b[0, 1])
    assert a[-1, 1] == pytest.approx(LAT + 0.0005)
    assert np.all(np.abs(np.diff(a[:, 0])) <= 180.0)
    assert np.all(np.abs(np.diff(b[:, 0])) <= 180.0)


def test_split_westbound():
    c = np.array([[-179.9995, LAT], [-179.9999, LAT], [179.9997, LAT]])
    a, b = split_antimeridian(c)
    assert a[-1, 0] == -180.0 and b[0, 0] == 180.0
    assert len(a) == 3 and len(b) == 2


def test_split_preserves_length():
    """Sum of part ground lengths == unwrapped geometry length."""
    c = np.array([[179.998, LAT], [179.9995, LAT + 2e-4],
                  [-179.9991, LAT + 4e-4], [-179.998, LAT + 1e-4]])
    kx = 111320.0 * np.cos(np.radians(LAT))

    def length(p):
        x = p[:, 0].copy()
        d = np.diff(x)
        x[1:] -= np.cumsum(np.where(d > 180, 360.0, np.where(d < -180, -360.0, 0.0)))
        return float(np.hypot(np.diff(x) * kx, np.diff(p[:, 1]) * 110540.0).sum())

    total = sum(length(p) for p in split_antimeridian(c))
    assert total == pytest.approx(length(c), rel=1e-9)


# ---------- engine fixture across the date line ----------

def _hline(lon0, lat, n=5, step=1e-4):
    """West→east horizontal polyline starting at lon0 (wraps at ±180)."""
    pts = []
    for k in range(n):
        lon = lon0 + k * step
        pts.append([((lon + 180.0) % 360.0) - 180.0, lat])
    return pts


@pytest.fixture(scope="module")
def meridian_sets(ray_session):
    """Primaries 0-3 exercise the four crossing shapes:
    0: crossing primary, identical crossing secondary (id 5000)
       → merged, hits>=2, dist 0
    1: crossing primary, one-sided WEST secondary (id 5001) offset 3 m
       in lat with same name+ref → merged via the west part
    2: crossing primary, no secondary → new
    3: NON-crossing east-side primary vs non-crossing west-side
       secondary (id 5002) 3 m away across the meridian → merged
       (cover wrap + wrap-aware distance)
    Decoy secondaries (ids 5003+) carry the same names near lon 0 —
    unreachable by distance, must never match."""
    OFF = 3.0 / 110540.0
    prim, sec = [], []

    def props(i, name_suffix=""):
        return {"name": f"Meridian Road {i}{name_suffix}",
                "ref:usfs": f"FR {300 + i}.1", "highway": "unclassified"}

    # 0: identical crossing pair
    c0 = _hline(179.9998, LAT)
    prim.append({"geometry": {"type": "LineString", "coordinates": c0},
                 "properties": props(0)})
    sec.append({"geometry": {"type": "LineString", "coordinates": c0},
                "properties": {**props(0), "highway": "track", "version": 3}})
    # 1: crossing primary, west-side-only secondary (covers the part
    # beyond the meridian), fuzzed name
    c1 = _hline(179.9997, LAT + 0.01)
    prim.append({"geometry": {"type": "LineString", "coordinates": c1},
                 "properties": props(1)})
    west = [[x, y + OFF] for x, y in c1 if x < 0]
    sec.append({"geometry": {"type": "LineString", "coordinates": west},
                "properties": {**props(1, ""), "highway": "track"}})
    # 2: crossing primary, no secondary
    c2 = _hline(179.9996, LAT + 0.02)
    prim.append({"geometry": {"type": "LineString", "coordinates": c2},
                 "properties": props(2)})
    # 3: non-crossing features facing each other across the meridian —
    # lon gap 2e-5° (~2.1 m) + 3 m lat offset → ~3.7 m, inside the 7 m
    # band only when the cover wraps and the distance kernel shifts ±360
    c3 = _hline(179.99993, LAT + 0.03, n=4, step=2e-5)    # ends 179.99999
    c3s = _hline(-179.99999, LAT + 0.03 + OFF, n=4, step=2e-5)
    prim.append({"geometry": {"type": "LineString", "coordinates": c3},
                 "properties": props(3)})
    sec.append({"geometry": {"type": "LineString", "coordinates": c3s},
                "properties": {**props(3), "highway": "track"}})
    # decoys near lon 0 with identical names
    for i in range(4):
        cd = _hline(0.01 * (i + 1), LAT)
        sec.append({"geometry": {"type": "LineString", "coordinates": cd},
                    "properties": props(i)})
    return features_to_table(prim), features_to_table(sec, start_id=5000)


def _brute_best(prim_tbl, sec_tbl):
    """Independent O(N*M) oracle: nearest secondary by min-over-split-
    parts wrap-aware distance (partition-blind)."""
    best = {}
    p_rows = prim_tbl.to_pylist()
    s_rows = sec_tbl.to_pylist()
    for p in p_rows:
        pp = split_antimeridian(
            np.asarray(json.loads(p["coords_json"]), dtype=np.float64))
        bd, bid = np.inf, None
        for s in s_rows:
            sp = split_antimeridian(
                np.asarray(json.loads(s["coords_json"]), dtype=np.float64))
            d = min(polyline_min_dist_m(a, b) for a in pp for b in sp)
            if d < bd:
                bd, bid = d, s["feature_id"]
        best[p["feature_id"]] = (bd, bid)
    return best


def test_meridian_conflation_decisions(meridian_sets):
    tp, ts = meridian_sets
    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts),
                         CFG).to_pandas().sort_values("feature_id")
    # one decision per ORIGINAL primary (the per-part reduce collapses
    # split rows)
    assert list(out["feature_id"]) == [0, 1, 2, 3]
    d = dict(zip(out["feature_id"], out["decision"]))
    m = dict(zip(out["feature_id"], out["matched_id"]))
    assert d[0] == "merged" and m[0] == 5000
    assert out.set_index("feature_id").loc[0, "dist_m"] == 0.0
    assert out.set_index("feature_id").loc[0, "hits"] >= 2
    assert out.set_index("feature_id").loc[0, "version"] >= 2
    assert d[1] == "merged" and m[1] == 5001
    assert d[2] == "new"
    assert d[3] == "merged" and m[3] == 5002
    # output geometry is the ORIGINAL (unsplit) feature
    got0 = json.loads(out.set_index("feature_id").loc[0, "coords_json"])
    assert got0 == json.loads(tp.column("coords_json")[0].as_py())


def test_meridian_endpoint_crosser_light_row_carries_part(meridian_sets):
    """Primary 2 crosses and ends exactly on the meridian, so the
    splitter returns ONE part with that vertex at +180. Its light row
    carries the part in ``part_json``, so the sinks match the geometry
    its bbox describes, not the raw vertices with their 360 deg jump."""
    from osm_merge_ray.stages.lines import _line_prepare

    tp, _ = meridian_sets
    light = _line_prepare(tp, CFG, 0).to_pandas()
    row = light[light["feature_id"] == 2]
    assert len(row) == 1
    raw = np.asarray(json.loads(tp.column("coords_json")[2].as_py()))
    (part,) = split_antimeridian(raw)
    assert not np.array_equal(part, raw)
    got = np.asarray(json.loads(row["part_json"].iloc[0]))
    assert np.array_equal(got, part)
    assert row[["x0", "y0", "x1", "y1"]].to_numpy()[0].tolist() == [
        part[:, 0].min(), part[:, 1].min(), part[:, 0].max(), part[:, 1].max()]


def test_meridian_matches_bruteforce_distances(meridian_sets):
    """Engine matched_id/dist == the partition-blind brute-force oracle
    for every primary that has an in-band secondary."""
    tp, ts = meridian_sets
    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts),
                         CFG).to_pandas().set_index("feature_id")
    oracle = _brute_best(tp, ts)
    for fid, (bd, bid) in oracle.items():
        if bd <= CFG.distance_m:
            assert out.loc[fid, "matched_id"] == bid, fid
            assert out.loc[fid, "dist_m"] == pytest.approx(bd, abs=1e-6)
        else:
            assert out.loc[fid, "decision"] == "new", fid


def test_split_long_line_semantics():
    """r5: the bbox-span splitter — passthrough, span bound, shared
    boundary vertices, collinear subdivision of over-long segments."""
    from osm_merge_ray.geo.split import split_long_line

    small = np.array([[10.0, 1.0], [10.01, 1.01]])
    sp = split_long_line(small, 0.1)
    assert len(sp) == 1 and np.array_equal(sp[0], small)

    # single 3° segment: must subdivide at collinear points
    seg = np.array([[-106.0, 38.0], [-103.0, 38.0]])
    parts = split_long_line(seg, 0.35)
    assert len(parts) >= 9
    for p in parts:
        assert p[:, 0].max() - p[:, 0].min() <= 0.35 + 1e-9
        assert np.allclose(p[:, 1], 38.0)       # collinear cuts
    # contiguous: each part starts where the previous ended
    for a, b in zip(parts, parts[1:]):
        assert np.allclose(a[-1], b[0])
    assert np.allclose(parts[0][0], seg[0])
    assert np.allclose(parts[-1][-1], seg[1])

    # multi-vertex diagonal with both axes active
    diag = np.array([[0.0, 0.0], [0.2, 0.15], [0.5, 0.55], [1.2, 0.6]])
    parts = split_long_line(diag, 0.3)
    for p in parts:
        assert p[:, 0].max() - p[:, 0].min() <= 0.3 + 1e-9
        assert p[:, 1].max() - p[:, 1].min() <= 0.3 + 1e-9
    # every original vertex survives in order across the parts
    chain = np.vstack([parts[0]] + [p[1:] for p in parts[1:]])
    vi = 0
    for v in diag:
        while vi < len(chain) and not np.allclose(chain[vi], v):
            vi += 1
        assert vi < len(chain), f"vertex {v} lost"


def test_oversized_geometry_self_splits_and_matches_oracle(ray_session):
    """r4 VERDICT task #7: a non-crossing line spanning >17 base cells
    used to RAISE in the replication stage; it now self-splits into
    span-bounded parts (one row per part, best-part reduce) and the
    decisions match the partition-blind brute-force oracle — including
    a primary near the FAR end of the giant (the pair the old trim
    would have lost)."""
    giant = [[-106.0 + 0.1 * k, 39.0] for k in range(31)]      # 3° span
    giant_seg = [[-106.0, 38.0], [-103.0, 38.0]]  # single 3° segment
    pr = {"name": "A Road", "highway": "track"}
    tp = features_to_table([
        # near the EAST end of giant, ~3.3 m south
        {"geometry": {"type": "LineString",
                      "coordinates": [[-103.0006, 38.99997],
                                      [-103.0001, 38.99997]]},
         "properties": pr},
        # near the WEST end of giant_seg
        {"geometry": {"type": "LineString",
                      "coordinates": [[-105.99995, 38.00003],
                                      [-105.9995, 38.00003]]},
         "properties": pr},
        # isolated: no secondary within band
        {"geometry": {"type": "LineString",
                      "coordinates": [[-104.5, 39.5], [-104.499, 39.5]]},
         "properties": pr},
    ])
    ts = features_to_table([
        {"geometry": {"type": "LineString", "coordinates": giant},
         "properties": {**pr, "version": 2}},
        {"geometry": {"type": "LineString", "coordinates": giant_seg},
         "properties": {**pr, "version": 2}},
    ], start_id=5000)

    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts),
                         CFG).to_pandas().set_index("feature_id")
    assert sorted(out.index) == [0, 1, 2]  # one row per ORIGINAL primary

    # partition-blind oracle: nearest secondary by whole-line distance
    p_rows = tp.to_pylist()
    s_rows = ts.to_pylist()
    for p in p_rows:
        pc_ = np.asarray(json.loads(p["coords_json"]), dtype=np.float64)
        bd, bid = np.inf, None
        for s in s_rows:
            sc_ = np.asarray(json.loads(s["coords_json"]), dtype=np.float64)
            d = polyline_min_dist_m(pc_, sc_)
            if d < bd:
                bd, bid = d, s["feature_id"]
        fid = p["feature_id"]
        if bd <= CFG.distance_m:
            assert out.loc[fid, "matched_id"] == bid, fid
            assert out.loc[fid, "dist_m"] == pytest.approx(bd, abs=1e-6)
            assert out.loc[fid, "decision"] != "new"
        else:
            assert out.loc[fid, "decision"] == "new", fid
    # output geometry stays the ORIGINAL (unsplit) primary
    got = json.loads(out.loc[0, "coords_json"])
    assert got == json.loads(tp.column("coords_json")[0].as_py())


def test_oversized_secondary_as_primary_side_splits(ray_session):
    """The giant line on the PRIMARY side also self-splits: each part
    seeks its own candidates and the best-part reduce returns one
    decision for the original feature."""
    giant = [[-106.0 + 0.1 * k, 39.0] for k in range(31)]
    pr = {"name": "A Road", "highway": "track"}
    tp = features_to_table([
        {"geometry": {"type": "LineString", "coordinates": giant},
         "properties": pr},
    ])
    # secondary hugging the middle of the giant
    ts = features_to_table([
        {"geometry": {"type": "LineString",
                      "coordinates": [[-104.60, 39.00003],
                                      [-104.40, 39.00003]]},
         "properties": {**pr, "version": 2}},
    ], start_id=5000)
    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts),
                         CFG).to_pandas()
    assert list(out["feature_id"]) == [0]
    assert out.iloc[0]["matched_id"] == 5000
    want = polyline_min_dist_m(
        np.asarray(giant, dtype=np.float64),
        np.asarray([[-104.60, 39.00003], [-104.40, 39.00003]]))
    assert out.iloc[0]["dist_m"] == pytest.approx(want, abs=1e-6)


def test_split_long_line_properties_random():
    """Property sweep (deterministic rng): span bound holds, parts are
    contiguous (shared boundary points), every original vertex appears
    in order, and all cut points are collinear with some original
    segment."""
    from osm_merge_ray.geo.split import split_long_line

    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(2, 20))
        # random walk with occasionally huge steps
        steps = rng.normal(0, 0.2, size=(n - 1, 2))
        big = rng.random(n - 1) < 0.2
        steps[big] *= 30.0
        coords = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        lim = float(rng.uniform(0.05, 2.0))
        parts = split_long_line(coords, lim)
        assert np.allclose(parts[0][0], coords[0])
        assert np.allclose(parts[-1][-1], coords[-1])
        for p in parts:
            assert len(p) >= 2
            assert p[:, 0].max() - p[:, 0].min() <= lim + 1e-6
            assert p[:, 1].max() - p[:, 1].min() <= lim + 1e-6
        for a, b in zip(parts, parts[1:]):
            assert np.allclose(a[-1], b[0])
        # original vertices survive in order
        chain = np.vstack([parts[0]] + [p[1:] for p in parts[1:]])
        vi = 0
        for v in coords:
            while vi < len(chain) and not np.allclose(chain[vi], v,
                                                      atol=1e-9):
                vi += 1
            assert vi < len(chain), f"trial {trial}: vertex lost"
        # total ground length preserved (collinear subdivision only)
        def ln(p):
            return float(np.hypot(*np.diff(p, axis=0).T).sum())
        assert sum(ln(p) for p in parts) == pytest.approx(ln(coords),
                                                          rel=1e-9)


def test_split_long_line_dense_zigzag_splits_into_few_parts():
    """A dense zigzag whose path length is thousands of spans but whose
    bbox is 1.5 x 0.5 spans needs only a few parts; the part-count cap
    counts emitted parts instead of estimating them from path length."""
    from osm_merge_ray.geo.split import split_long_line

    span = 0.35
    n = 10_000
    coords = np.column_stack([np.linspace(0.0, 1.5 * span, n),
                              np.where(np.arange(n) % 2 == 0, 0.0, 0.5 * span)])
    parts = split_long_line(coords, span)
    assert 2 <= len(parts) <= 4
    for p in parts:
        assert p[:, 0].max() - p[:, 0].min() <= span + 1e-9
        assert p[:, 1].max() - p[:, 1].min() <= span + 1e-9
    # the parts' points are the original vertices, in order, plus the
    # collinear cut points each part boundary adds
    chain = np.vstack([parts[0]] + [p[1:] for p in parts[1:]])
    orig = {tuple(v) for v in coords}
    is_orig = np.array([tuple(v) in orig for v in chain])
    assert np.array_equal(chain[is_orig], coords)
    assert (~is_orig).sum() <= len(parts) - 1


def test_split_long_line_corrupt_span_raises():
    """r5 review: absurd spans RAISE (part-count cap) instead of
    hanging the cut loop or emitting millions of parts."""
    from osm_merge_ray.geo.split import split_long_line

    with pytest.raises(ValueError, match="parts"):
        split_long_line(np.array([[0.0, 0.0], [4.0e8, 0.0]]), 0.35)
    with pytest.raises(ValueError, match="parts"):
        split_long_line(np.array([[0.0, 0.0], [1.0e6, 0.0]]), 0.35)
    # just-under-cap inputs still split fine
    parts = split_long_line(np.array([[0.0, 0.0], [100.0, 0.0]]), 0.35)
    assert 280 <= len(parts) <= 300
