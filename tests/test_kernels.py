"""Unit tests for the numpy kernels: fuzz, cells, point-in-polygon, distance, image."""

import numpy as np
import pytest

from osm_merge_ray.geo import cells as C
from osm_merge_ray.geo.distance import haversine_m, polyline_min_dist_m, slope_angle
from osm_merge_ray.geo.polygons import point_in_polygon
from osm_merge_ray.image import phash as P
from osm_merge_ray.image.codec import (decode, encode, on_quant_grid, psnr, quantize,
                                       resize_box, synth_pixels)
from osm_merge_ray.image.phash import hamming64, phash64
from osm_merge_ray.text import fuzz as F


def _lcs_ref(a, b):
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = dp[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1] else max(dp[i - 1][j], dp[i][j - 1])
    return dp[-1][-1]


def test_fuzz_against_independent_dp():
    import random

    random.seed(7)
    words = "forest road creek trail loop ridge fs fr 123 505.1A x".split()
    pairs = [
        (" ".join(random.choices(words, k=random.randint(0, 6))),
         " ".join(random.choices(words, k=random.randint(0, 6))))
        for _ in range(200)
    ] + [("", ""), ("a", ""), ("", "a"), ("same", "same")]
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    bl = F.batch_levenshtein(a, b)
    bi = F.batch_indel_ratio(a, b)
    br = F.batch_lev_ratio(a, b)
    for (x, y), dl, ri, rl in zip(pairs, bl, bi, br):
        assert F.levenshtein(x, y) == dl
        ind = len(x) + len(y) - 2 * _lcs_ref(x, y)
        assert F.indel_distance(x, y) == ind
        exp = 100.0 if not (x or y) else 100 * (1 - ind / (len(x) + len(y)))
        assert abs(ri - exp) < 1e-9
        assert abs(F.lev_ratio(x, y) - rl) < 1e-9


def test_fuzz_reference_thresholds():
    # the conflator.py:596-598 rule: typo'd caption matches, unrelated doesn't
    assert F.indel_ratio("Badger Maple Loop Road", "Badgxr Maple Loop Road") > 85
    assert F.indel_ratio("Badger Maple Loop Road", "Crystal Elk Trail") < 85
    assert F.token_set_ratio("Loop Road Badger Maple", "Badger Maple Loop Road") == 100.0


def test_cells_roundtrip_and_kring():
    rng = np.random.default_rng(0)
    lon = rng.uniform(-179.9, 179.9, 2000)
    lat = rng.uniform(-89.0, 89.0, 2000)
    res = 12
    c = C.lonlat_to_cell(lon, lat, res)
    clon, clat = C.cell_center(c)
    s = C.cell_edge_deg(res)
    assert np.all(np.abs(clon - lon) <= s)
    assert np.all(np.abs(clat - lat) <= s)
    # k-ring completeness: a point d meters away (d < cell edge) is always
    # in the k-ring(1) of the home cell
    res = C.res_for_distance(7.0)
    lon0, lat0 = -106.5, 39.5
    home = C.lonlat_to_cell(np.array([lon0]), np.array([lat0]), res)
    ring = set(C.k_ring(home)[0].tolist())
    for ang in np.linspace(0, 2 * np.pi, 33):
        d = 6.9
        lat1 = lat0 + d * np.cos(ang) / 111194.92664455873
        lon1 = lon0 + d * np.sin(ang) / (111320.0 * np.cos(np.radians(lat0)))
        c1 = int(C.lonlat_to_cell(np.array([lon1]), np.array([lat1]), res)[0])
        assert c1 in ring


def test_cells_parent_and_bucket():
    c = C.lonlat_to_cell(np.array([-106.0]), np.array([39.0]), 15)
    p = C.parent(c, 10)
    _, _, res = C.cell_to_xy(p)
    assert int(res[0]) == 10
    b = C.bucket_of(c, 64)
    assert 0 <= int(b[0]) < 64


def test_point_in_polygon():
    poly = np.array([[0, 0], [4, 0], [4, 4], [2, 6], [0, 4]], dtype=float)
    px = np.array([2.0, 2.0, 5.0, -0.1, 2.0])
    py = np.array([2.0, 5.0, 2.0, 2.0, 6.5])
    assert point_in_polygon(px, py, poly).tolist() == [True, True, False, False, False]


def test_haversine_known_value():
    # one degree of latitude ~ 111.19 km on the sphere
    d = float(haversine_m(-105.0, 40.0, -105.0, 41.0))
    assert abs(d - 111194.9) < 20


def test_polyline_distance_and_slope():
    la = np.array([[-105.0, 40.0], [-105.0, 40.01]])
    lb = np.array([[-105.0001, 40.0], [-105.0001, 40.01]])
    d = polyline_min_dist_m(la, lb)
    assert abs(d - 8.52) < 0.1
    # identical geometry → slope 0 / angle 0 (conflator.py:403-405)
    s, a = slope_angle(np.array([[0.0, 0]]), np.array([[1.0, 1]]),
                       np.array([[0.0, 0]]), np.array([[1.0, 1]]))
    assert s[0] == 0 and a[0] == 0
    s, a = slope_angle(np.array([[0.0, 0]]), np.array([[1.0, 0]]),
                       np.array([[0.0, 0]]), np.array([[1.0, 1]]))
    assert abs(a[0] - 45.0) < 1e-9


def test_codec_roundtrip_psnr_gate():
    px = synth_pixels(42, 64, 48)
    assert np.array_equal(decode(encode(px, "png")), px)  # lossless
    out = decode(encode(px, "jpeg"))
    assert psnr(px, out) >= 40.0  # the BASELINE.json lossy gate
    # idempotent lossy re-encode
    assert np.array_equal(decode(encode(out, "jpeg")), out)
    with pytest.raises(NotImplementedError):
        encode(px, "webp")


def test_phash_properties():
    a = synth_pixels(1, 64, 64)
    b = synth_pixels(2, 64, 64)
    ha, hb = phash64(a), phash64(b)
    assert int(hamming64(ha, ha)) == 0
    assert int(hamming64(ha, hb)) > 10  # distinct content → distant hashes
    hj = phash64(decode(encode(a, "jpeg")))
    assert int(hamming64(ha, hj)) <= 6  # lossy re-encode → near hash


def test_resize_box_means():
    px = np.full((8, 8, 3), 100, dtype=np.uint8)
    px[:4] = 200
    out = resize_box(px, 1, 1)
    assert out.shape == (1, 1, 3)
    assert abs(int(out[0, 0, 0]) - 150) <= 1


@pytest.mark.parametrize("h,w", [(32, 32), (64, 64), (128, 128), (32, 128),
                                 (128, 64), (256, 96), (1024, 512)])
def test_box32_equals_blocks_mean(h, w):
    """Strided integer box sums, rounded, equal the float64 reshape-mean
    the per-image front-end used, on random gray stacks (the last shape's
    blocks overflow uint16 sums)."""
    g8 = np.random.default_rng(h * 1000 + w).integers(0, 256, (8, h, w), dtype=np.uint8)
    g8[0] = 255  # the largest block sums
    blocks = g8.reshape(8, 32, h // 32, 32, w // 32).astype(np.float64)
    want = np.clip(np.rint(blocks.mean(axis=(2, 4))), 0, 255)
    assert np.array_equal(P._box32(g8), want)


def test_quant_grid_predicate_over_all_bytes():
    v = np.arange(256, dtype=np.uint8)
    assert np.array_equal(on_quant_grid(v[:, None]), v == quantize(v))
    stack = quantize(np.random.default_rng(3).integers(0, 256, (6, 8, 8, 3), dtype=np.uint8))
    stack[2, 3, 4, 1] = 5
    assert on_quant_grid(stack).tolist() == [True, True, False, True, True, True]


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_eight_row_dct_bit_equal_to_full_einsum(n):
    """The hash reads the 8x8 corner only; transforming just that corner
    gives bit-equal coefficients to the full 32x32 einsum."""
    g32 = np.random.default_rng(n).integers(0, 256, (n, 32, 32)).astype(np.float64)
    m = P._dct_matrix(32)
    full = np.einsum("ij,njk,lk->nil", m, g32, m, optimize=True)[:, :8, :8]
    assert np.array_equal(m[:8] @ g32 @ m[:8].T, full)


def test_phash64_alone_equals_mixed_shape_batch():
    sizes = [(32, 32), (64, 128), (48, 40), (128, 32), (32, 32), (40, 48), (128, 128)]
    imgs = [synth_pixels(10 + i, w, h) for i, (w, h) in enumerate(sizes)]
    got = P.phash64_batch(imgs).view(np.uint64)
    assert [int(x) for x in got] == [phash64(px) for px in imgs]
    assert P.phash64_batch([]).dtype == np.int64


def test_fuzz_batch_exact_beyond_width_cap():
    """ADVICE r1: batched DPs must not silently truncate long strings —
    over-cap pairs fall back to the exact scalar DP."""
    long_a = "forest road " * 60          # 720 chars, > DP_WIDTH_CAP
    long_b = "forest roud " * 60
    short_a, short_b = "trail 12", "trail 13"
    a = [long_a, short_a, long_a]
    b = [long_b, short_b, short_b]
    bl = F.batch_levenshtein(a, b)
    bi = F.batch_indel_ratio(a, b)
    br = F.batch_lev_ratio(a, b)
    for i, (x, y) in enumerate(zip(a, b)):
        assert bl[i] == F.levenshtein(x, y)
        assert abs(bi[i] - F.indel_ratio(x, y)) < 1e-9
        assert abs(br[i] - F.lev_ratio(x, y)) < 1e-9
    # explicit small cap: still exact via fallback, never truncated
    bl2 = F.batch_levenshtein(a, b, maxlen=16)
    assert list(bl2) == list(bl)


# ---- the light-row geometry codec (geo/coords.py) -------------------------

def _leaves(v):
    """Per-row reference parse: json.loads, then the numeric leaves in order."""
    if isinstance(v, list):
        for x in v:
            yield from _leaves(x)
    else:
        yield float(v)


def _ref_xy(s: str) -> np.ndarray:
    import json

    return np.asarray(list(_leaves(json.loads(s))), dtype=np.float64).reshape(-1, 2)


def _rand_line(rng, n, x0=-105.0, y0=39.0, step=1e-3):
    return np.column_stack([x0 + np.cumsum(rng.normal(0, step, n)),
                            y0 + np.cumsum(rng.normal(0, step, n))])


def _codec_cases():
    import json

    rng = np.random.default_rng(11)
    ring = _rand_line(rng, 6).tolist()
    return {
        "point": json.dumps(_rand_line(rng, 1)[0].tolist()),
        "linestring": json.dumps(_rand_line(rng, 9).tolist()),
        "multilinestring": json.dumps([_rand_line(rng, 3).tolist(),
                                       _rand_line(rng, 5).tolist()]),
        "polygon_ring": json.dumps([ring + ring[:1]]),
        "antimeridian": json.dumps([[179.9871236, -16.21], [-179.93, -16.105],
                                    [-179.5000001, -16.0]]),
        "continent": json.dumps(_rand_line(rng, 40, -120.0, 45.0, 1.5).tolist()),
    }


@pytest.mark.parametrize("case", sorted(_codec_cases()))
def test_coords_parse_bit_equal_to_json_loads(case):
    import pyarrow as pa

    from osm_merge_ray.geo import coords as G

    cases = _codec_cases()
    s = cases[case]
    g = G.parse(pa.array([s]), [0])
    ref = _ref_xy(s)
    assert g.off.tolist() == [0, len(ref)]
    assert np.array_equal(g.xy.view(np.int64), ref.view(np.int64))
    # and inside a mixed batch (offsets line up row by row)
    batch = list(cases.values())
    gb = G.parse(pa.array(batch), list(range(len(batch))))
    k = batch.index(s)
    assert np.array_equal(gb.row(k).view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("n", [1, 7, 8, 50])
def test_coords_centroid_is_sequential_vertex_mean(n):
    """The one centroid rule: bit-equal to ``c.mean(axis=0)`` (sequential
    over vertices), also in a batch of mixed lengths; the pairwise
    ``c[:, 0].mean()`` is not (from 8 vertices on)."""
    from osm_merge_ray.geo import coords as G

    rng = np.random.default_rng(n)
    lines = [_rand_line(rng, n, *rng.uniform(-170, 170, 2), 0.7) for _ in range(300)]
    lines += [_rand_line(rng, m) for m in (1, 3, 60, 2)]
    lon, lat = G.centroids(G.from_arrays(lines))
    ref = np.array([c.mean(axis=0) for c in lines])
    assert np.array_equal(lon.view(np.int64), ref[:, 0].view(np.int64))
    assert np.array_equal(lat.view(np.int64), ref[:, 1].view(np.int64))
    if n >= 8:
        pairwise = np.array([c[:, 0].mean() for c in lines[:300]])
        assert not np.array_equal(pairwise, lon[:300])


@pytest.mark.parametrize("ring", [False, True], ids=["lines", "rings"])
def test_coords_explode_parts_equal_splitters(ring):
    """Only rows the splitters cut emit parts; each part row carries the
    splitter's ``part_json`` byte for byte and the part's own centroid
    and bbox; rows the splitters leave unchanged keep ``part_json``
    empty."""
    import json

    import pyarrow as pa

    from osm_merge_ray.geo import coords as G
    from osm_merge_ray.geo.antimeridian import split_antimeridian
    from osm_merge_ray.geo.polygons import split_polygon_span
    from osm_merge_ray.geo.split import split_long_line

    lim = 0.35
    rng = np.random.default_rng(5)
    if ring:
        def box(x, y, w):
            return [[x, y], [x + w, y], [x + w, y + w], [x, y + w], [x, y]]
        geoms = [box(-105.0, 39.0, 1e-3), box(10.0, 50.0, 1.2),
                 box(-60.0, -20.0, 0.2), box(100.0, 1.0, 0.9)[::-1]]

        def split(c):
            return split_polygon_span(c, lim)
    else:
        geoms = [_rand_line(rng, 5).tolist(),
                 [[179.9, -16.2], [-179.9, -16.1], [-179.8, -16.0]],
                 _rand_line(rng, 30, -120.0, 45.0, 0.3).tolist(),
                 [[0.0, 0.0], [2.0, 0.0]], _rand_line(rng, 12).tolist(),
                 [[179.9996, -16.18], [179.9999, -16.18], [-180.0, -16.18]]]

        def split(c):
            return [q for p in split_antimeridian(c) for q in split_long_line(p, lim)]
    t = pa.table({"feature_id": np.arange(len(geoms)),
                  "coords_json": [json.dumps(c) for c in geoms]})
    e = G.explode(t, lim, ring=ring)
    want_take, want_json, want_c, want_bb = [], [], [], []
    for i, c in enumerate(geoms):
        c = np.asarray(c, dtype=np.float64)
        parts = split(c)
        for p in parts:
            want_take.append(i)
            # a row that stays whole carries its part only when the
            # splitter changed it (the last line ends on the meridian)
            whole = len(parts) == 1 and np.array_equal(p, c)
            want_json.append("" if whole else json.dumps(p.tolist()))
            want_c.append(p.mean(axis=0))
            want_bb.append([p[:, 0].min(), p[:, 1].min(), p[:, 0].max(), p[:, 1].max()])
    assert len(set(want_take)) < len(want_take)  # some rows did split
    assert e.take.tolist() == want_take
    assert e.part_json.to_pylist() == want_json
    assert np.array_equal(np.column_stack([e.lon, e.lat]), np.array(want_c))
    assert np.array_equal(e.bbox, np.array(want_bb))


def test_coords_pad_equals_list_pack():
    """``pad`` equals the padded arrays the old per-line loop built."""
    import json

    import pyarrow as pa

    from osm_merge_ray.geo import coords as G

    rng = np.random.default_rng(2)
    lines = [_rand_line(rng, m) for m in (5, 1, 17, 2, 5)]
    xs, ys, lens = G.pad(G.parse(pa.array([json.dumps(c.tolist()) for c in lines])))
    m = max(len(c) for c in lines)
    ref_x = np.zeros((len(lines), m))
    ref_y = np.zeros((len(lines), m))
    for i, c in enumerate(lines):
        ref_x[i, :len(c)] = c[:, 0]
        ref_y[i, :len(c)] = c[:, 1]
    assert lens.tolist() == [len(c) for c in lines]
    assert np.array_equal(xs, ref_x) and np.array_equal(ys, ref_y)


@pytest.mark.parametrize("geom", [None, "[]"], ids=["null", "empty"])
@pytest.mark.parametrize("prepare", ["lines", "polygons", "pois"])
def test_prepares_reject_null_or_empty_geometry(prepare, geom):
    """A null ``coords_json`` or ``[]`` (a GeoJSON ``"geometry": null``)
    fails with a ValueError naming the column and the feature ids —
    not a TypeError, a zero-size reduction, or a silent NaN centroid."""
    import pyarrow as pa

    from osm_merge_ray.config import ConflationConfig
    from osm_merge_ray.stages.lines import _line_prepare
    from osm_merge_ray.stages.overlap import _prep_polygons
    from osm_merge_ray.stages.poi import _poi_prepare

    fn = {"lines": _line_prepare, "polygons": _prep_polygons,
          "pois": _poi_prepare}[prepare]
    ok = "[[-105.0, 39.0], [-105.001, 39.0], [-105.001, 39.001], [-105.0, 39.0]]"
    t = pa.table({
        "feature_id": pa.array([3, 7, 11, 12], pa.int64()),
        "geom_type": ["LineString"] * 4,
        "coords_json": pa.array([ok, geom, ok, geom], pa.string()),
        "props_json": ["{}"] * 4,
    })
    with pytest.raises(ValueError, match=r"coords_json: null or empty geometry "
                                         r"in 2 row\(s\); feature ids \[7, 12\]"):
        fn(t, ConflationConfig(cell_res=12), 0)
