"""Property-based tests (hypothesis) for the foundational kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from osm_merge_ray.geo import cells as C
from osm_merge_ray.geo.distance import haversine_m
from osm_merge_ray.stages.partition import bbox_band_targets
from osm_merge_ray.text import fuzz as F

lons = st.floats(min_value=-179.99, max_value=179.99, allow_nan=False)
lats = st.floats(min_value=-84.0, max_value=84.0, allow_nan=False)
words = st.text(alphabet="abcdefg .-0123456789", min_size=0, max_size=24)


@settings(max_examples=200, deadline=None)
@given(lons, lats, st.integers(min_value=6, max_value=20))
def test_cell_roundtrip_property(lon, lat, res):
    c = C.lonlat_to_cell(np.array([lon]), np.array([lat]), res)
    clon, clat = C.cell_center(c)
    s = C.cell_edge_deg(res)
    assert abs(clon[0] - lon) <= s
    assert abs(clat[0] - lat) <= s
    ring = C.k_ring(c)
    assert int(c[0]) in set(ring[0].tolist())


@settings(max_examples=150, deadline=None)
@given(lons, lats, st.floats(min_value=0.1, max_value=0.999),
       st.floats(min_value=0, max_value=2 * np.pi))
def test_border_band_covers_nearby_points(lon, lat, frac, ang):
    """Any point within distance_m of p must share a target cell with
    p's own cell — the correctness invariant of band replication, for
    points as zero-extent boxes."""
    res = C.res_for_distance(7.0)
    d = 7.0 * frac
    lat2 = lat + d * np.cos(ang) / C.M_PER_DEG_LAT
    lon2 = lon + d * np.sin(ang) / (111320.0 * max(np.cos(np.radians(lat)), 1e-6))
    home = int(C.lonlat_to_cell(np.array([lon]), np.array([lat]), res)[0])
    lon2, lat2 = np.array([lon2]), np.array([lat2])
    _, targets = bbox_band_targets(lon2, lat2, lon2, lat2, res, 7.0)
    # the neighbor either lives in p's cell or replicates into it
    assert home in set(targets.tolist())


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_fuzz_metric_properties(a, b):
    d = F.levenshtein(a, b)
    assert d == F.levenshtein(b, a)
    assert d <= max(len(a), len(b))
    assert (d == 0) == (a == b)
    ind = F.indel_distance(a, b)
    assert d <= ind <= 2 * d or (a == b and ind == 0)
    r = F.indel_ratio(a, b)
    assert 0.0 <= r <= 100.0
    assert F.batch_levenshtein([a], [b])[0] == d


@settings(max_examples=100, deadline=None)
@given(lons, lats, lons, lats)
def test_haversine_properties(lon1, lat1, lon2, lat2):
    d = float(haversine_m(lon1, lat1, lon2, lat2))
    assert d >= 0
    assert abs(d - float(haversine_m(lon2, lat2, lon1, lat1))) < 1e-6
    if (lon1, lat1) == (lon2, lat2):
        assert d == 0.0


def test_poly41_matches_duckdb_on_unicode():
    """Property: poly41 (numpy + scalar) equals the DuckDB fold for
    arbitrary unicode strings — the foundation every SQL-parity twin
    rests on."""
    import duckdb

    from osm_merge_ray.util import poly41, poly41_str

    con = duckdb.connect()
    samples = ["", "a", "hello world", "Grüße aus Köln", "naïve café",
               "日本語のテキスト", "мир", "🙂 emoji", "tab\tsep", "ünïcödé mix 123",
               "x" * 200]
    for s in samples:
        got = poly41(s)
        vec = int(poly41_str([s])[0])
        sql = con.execute(
            """SELECT CASE WHEN ? = '' THEN 0 ELSE list_reduce(
                 list_prepend(CAST(0 AS BIGINT),
                   list_transform(string_split(?, ''),
                                  c -> CAST(unicode(c) AS BIGINT))),
                 (a, b) -> (a * 1000003 + b) % 2199023255551) END""",
            [s, s]).fetchone()[0]
        assert got == vec == sql, (s, got, vec, sql)


def test_batch_fuzz_property_unicode():
    """Batched DP kernels equal the scalar DPs on random unicode pairs."""
    import random

    from osm_merge_ray.text import fuzz as F

    rng = random.Random(5)
    alphabet = "abXY äöü 東京 πφ 🙂"
    pairs = [("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))),
              "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))))
             for _ in range(80)]
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    bl = F.batch_levenshtein(a, b)
    bi = F.batch_indel_ratio(a, b)
    for (x, y), d, r in zip(pairs, bl, bi):
        assert d == F.levenshtein(x, y)
        assert abs(r - F.indel_ratio(x, y)) < 1e-9
