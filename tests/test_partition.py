"""Shared partition machinery (stages/partition.py): band-cover
replication factor, hot-cell refinement correctness, and the scale-path
anti-join/Bloom builds that replaced round-1 driver materializations."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.stages import partition as P


def test_band_cover_replication_factor_is_near_one():
    """The point of replacing blanket 9x k-ring: typical features small
    vs the cell edge replicate ~1x, not 9x."""
    rng = np.random.default_rng(5)
    n = 2000
    lon = rng.uniform(-106, -105.6, n)
    lat = rng.uniform(39, 39.4, n)
    ext = 0.0002  # ~20 m features at res 12 (~8.8 km edge)
    rows, cells = P.bbox_band_targets(lon, lat, lon + ext, lat + ext, 12, 7.0)
    factor = len(rows) / n
    assert factor < 1.2, factor  # was exactly 9.0 with k_ring


def test_band_cover_straddling_features_replicate():
    """A bbox crossing a cell boundary must land in both cells."""
    res = 12
    edge = 360.0 / (1 << res)
    x_edge = -180.0 + 1000 * edge  # a cell boundary longitude
    lon0 = np.array([x_edge - edge * 0.01])
    lon1 = np.array([x_edge + edge * 0.01])
    lat = np.array([10.0])
    rows, cells = P.bbox_band_targets(lon0, lat, lon1, lat, res, 0.0)
    assert len(np.unique(cells)) == 2


def test_lines_hot_cell_refinement_matches_unsalted(ray_session):
    """Planted dense cluster: every feature in ONE cell with a tiny hot
    threshold → the refined+salted run must produce identical decisions
    to the plain run."""
    import json

    from osm_merge_ray.stages.lines import conflate_lines

    rng = np.random.default_rng(11)
    n = 120
    prim_rows, sec_rows = [], []
    base_lon, base_lat = -105.95, 39.05  # one res-12 cell
    for i in range(n):
        lon = base_lon + rng.uniform(0, 0.003)
        lat = base_lat + rng.uniform(0, 0.003)
        coords = [[lon + k * 1e-4, lat] for k in range(5)]
        prim_rows.append({
            "feature_id": i, "geom_type": "LineString",
            "coords_json": json.dumps(coords),
            "props_json": json.dumps({"name": f"Road {i}", "ref": f"FR {i}"}),
        })
        off = 3.0 / 111194.9
        sec_rows.append({
            "feature_id": 10_000 + i, "geom_type": "LineString",
            "coords_json": json.dumps([[x, y + off] for x, y in coords]),
            "props_json": json.dumps({"name": f"Road {i}", "ref": f"FR {i}"}),
        })
    tp = pa.Table.from_pylist(prim_rows)
    ts = pa.Table.from_pylist(sec_rows)
    cfg = ConflationConfig(cell_res=12, num_buckets=8, hot_cell_rows=20)
    plain = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts),
                           ConflationConfig(cell_res=12, num_buckets=8)).to_pandas()
    salted = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts), cfg).to_pandas()
    cols = ["feature_id", "matched_id", "decision", "hits"]
    a = plain[cols].sort_values("feature_id").reset_index(drop=True)
    b = salted[cols].sort_values("feature_id").reset_index(drop=True)
    assert a.equals(b)
    assert (a["decision"] == "merged").all()


def test_new_buildings_bucketed_anti_join_matches_broadcast(ray_session):
    from osm_merge_ray.stages.overlap import new_buildings

    prim = pa.table({"feature_id": pa.array(np.arange(50), pa.int64()),
                     "payload": pa.array([f"p{i}" for i in range(50)])})
    pairs = pa.table({"id_a": pa.array([3, 7, 7, 20, 41], pa.int64()),
                      "id_b": pa.array([1, 2, 3, 4, 5], pa.int64())})
    broad = new_buildings(rd.from_arrow(prim), rd.from_arrow(pairs)).to_pandas()
    antij = new_buildings(rd.from_arrow(prim), rd.from_arrow(pairs),
                          broadcast_limit=0).to_pandas()
    want = sorted(set(range(50)) - {3, 7, 20, 41})
    assert sorted(broad["feature_id"]) == want
    assert sorted(antij["feature_id"]) == want


def test_build_bloom_distributed_equals_local(ray_session):
    from osm_merge_ray.ops import BloomFilter, build_bloom_distributed
    from osm_merge_ray.util import hash64_str

    ids = [f"img_{i}" for i in range(5000)]
    t = pa.table({"image_id": pa.array(ids)})
    ds = rd.from_arrow(t).repartition(8)
    dist = build_bloom_distributed(
        ds, lambda b: hash64_str(b.column("image_id").to_pylist()),
        capacity=len(ids), fp_rate=1e-4)
    local = BloomFilter(capacity=len(ids), fp_rate=1e-4)
    local.add_hashes(hash64_str(ids))
    assert np.array_equal(dist.bits, local.bits)
    assert dist.contains_hashes(hash64_str(ids[:100])).all()
    misses = dist.contains_hashes(hash64_str([f"zz_{i}" for i in range(2000)]))
    assert misses.mean() < 0.01


def _dense_blob_frames(kind: str, n: int = 400):
    """Bucket frames of an n x n dense cluster (~100 m, one base cell),
    built in-process as perfbench/replay.py builds them: prepare → tag /
    replicate (no hot cells, so the blob stays ONE (cell, salt) group) →
    group by bucket. Returns (frames, cfg, the two input tables)."""
    import json

    import pyarrow.compute as pc

    rng = np.random.default_rng(3)
    lon = -105.0005 + rng.uniform(0, 0.001, n)
    lat = 39.0005 + rng.uniform(0, 0.001, n)
    if kind == "lines":
        from osm_merge_ray.stages.lines import _line_prepare

        cfg = ConflationConfig(cell_res=12, num_buckets=4)
        off = 2.0 / 111194.9
        sides = []
        for side, dy, id0 in ((0, 0.0, 0), (1, off, 10_000)):
            sides.append(pa.Table.from_pylist([
                {"feature_id": id0 + i, "geom_type": "LineString",
                 "coords_json": json.dumps([[lon[i] + k * 1e-5, lat[i] + dy]
                                            for k in range(5)]),
                 "props_json": json.dumps({"name": f"R {i}", "ref": f"F {i}"})}
                for i in range(n)]))
        light = pa.concat_tables([_line_prepare(t, cfg, side)
                                  for side, t in enumerate(sides)])
        prim = light.filter(pc.equal(light.column("side"), 0))
        reach = P.reach_m(*(prim.column(k).to_numpy()
                            for k in ("lon", "lat", "x0", "y0", "x1", "y1")))
        band = cfg.distance_m + float(reach.max())
    else:
        from osm_merge_ray.stages import conflate as CF
        from osm_merge_ray.synth import synth_table

        cfg = ConflationConfig(cell_res=15, num_buckets=4)
        tp = synth_table(n, "primary", with_bytes=False)
        ts = synth_table(n, "secondary", with_bytes=False)
        # keep each side's planted offset, move the primaries into the blob
        dlon = ts.column("lon").to_numpy() - tp.column("lon").to_numpy()
        dlat = ts.column("lat").to_numpy() - tp.column("lat").to_numpy()
        sides = []
        for side, t, x, y in ((0, tp, lon, lat), (1, ts, lon + dlon, lat + dlat)):
            t = t.set_column(t.schema.get_field_index("lon"), "lon", pa.array(x))
            t = t.set_column(t.schema.get_field_index("lat"), "lat", pa.array(y))
            sides.append(t.append_column(
                "side", pa.array(np.full(n, side, np.int8), pa.int8())))
        light = CF.prepare(pa.concat_tables(sides), cfg)
        band = cfg.distance_m
    p = P.make_tag_primary(cfg, {})(light)
    s = P.make_replicate_secondary(cfg, {}, band)(light)
    both = pa.concat_tables([p, s]).to_pandas()
    return [df for _, df in both.groupby("bucket", sort=True)], cfg, sides


@pytest.mark.parametrize("kind", ["lines", "images"])
def test_local_refined_pairs_dense_cluster(kind, monkeypatch):
    """A dense sub-cell cluster must refine on the in-memory fine grid,
    not enumerate P*S pairs — and every sink must produce the same
    decisions as the unrefined path. Runs in-process: a budget patched
    here would not reach Ray worker processes."""
    import pandas as pd

    from osm_merge_ray.stages.conflate import match_bucket
    from osm_merge_ray.stages.lines import match_lines_group

    n = 400
    frames, cfg, sides = _dense_blob_frames(kind, n)
    sink = match_lines_group if kind == "lines" else match_bucket
    cols = (["feature_id", "matched_id", "decision", "hits"] if kind == "lines"
            else ["image_id", "matched_id", "decision", "hits", "dist_mm"])

    real, calls = P.local_refined_pairs, []

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(P, "local_refined_pairs", spy)

    def run():
        out = pd.concat([sink(df, cfg) for df in frames], ignore_index=True)[cols]
        assert len(calls) == len(frames)  # the sink drew its pairs from bucket_pairs
        calls.clear()
        out = out.astype(object).where(out.notna(), None)
        pairs = sum(len(P.bucket_pairs(df, cfg.distance_m)[2]) for df in frames)
        calls.clear()
        return out.sort_values(cols[0]).reset_index(drop=True), pairs

    base, full_pairs = run()
    monkeypatch.setattr(real, "__defaults__", (1,))
    refined, refined_pairs = run()
    # the budget of 1 took the refined branch: the blob's P*S is cut >10x
    assert full_pairs > 10 * refined_pairs
    assert len(base) == n
    assert base.equals(refined)
    if kind == "lines":
        assert (base["decision"] == "merged").all()
    else:
        from tests.oracle import conflate_oracle

        want = conflate_oracle(sides[0].to_pandas(), sides[1].to_pandas(), cfg)[cols]
        want = want.astype(object).where(want.notna(), None)
        assert base.equals(want.sort_values(cols[0]).reset_index(drop=True))


def _adversarial_lines():
    """(cfg, primary rows, secondary rows): long lines spanning multiple
    cells, boundary straddlers, a dense cluster (hot cell at
    ``hot_cell_rows=40``), short/degenerate lines."""
    import json

    rng = np.random.default_rng(17)
    cfg = ConflationConfig(cell_res=14, num_buckets=8, hot_cell_rows=40)
    edge = 360.0 / (1 << 14)  # ~2.4 km

    def rand_line(lon, lat, n, length_deg, bearing):
        step = length_deg / max(n - 1, 1)
        return [[lon + k * step * np.cos(bearing),
                 lat + k * step * np.sin(bearing)] for k in range(n)]

    prim_rows, sec_rows = [], []
    fid = 0
    for i in range(120):
        kind = i % 4
        if kind == 0:    # dense cluster (hot cell)
            lon = -105.001 + rng.uniform(0, 0.002)
            lat = 39.001 + rng.uniform(0, 0.002)
            length = 3e-4
        elif kind == 1:  # boundary straddler: start just west of a cell edge
            lon = -105.0 - edge * 0.1 + (i // 4) * edge
            lat = 39.3
            length = edge * 0.3
        elif kind == 2:  # LONG line spanning ~3 cells
            lon = -105.5 + rng.uniform(0, 0.3)
            lat = 39.5 + rng.uniform(0, 0.3)
            length = edge * 3.0
        else:            # scattered short
            lon = -106.5 + rng.uniform(0, 1.0)
            lat = 38.5 + rng.uniform(0, 1.0)
            length = 5e-4
        bearing = rng.uniform(0, np.pi)
        nv = int(rng.integers(2, 9))
        coords = rand_line(lon, lat, nv, length, bearing)
        name = f"Road {i}" if i % 3 else f"Trail {i}"
        prim_rows.append({"feature_id": fid, "geom_type": "LineString",
                          "coords_json": json.dumps(coords),
                          "props_json": json.dumps({"name": name, "ref": f"FR {i}"})})
        fid += 1
        if i % 5 != 4:  # most primaries get a nearby secondary
            off = rng.uniform(1.0, 6.0) / 111194.9
            nm = name if i % 7 else f"Other {i}"
            sec_rows.append({"feature_id": 10_000 + i, "geom_type": "LineString",
                             "coords_json": json.dumps(
                                 [[x, y + off] for x, y in coords]),
                             "props_json": json.dumps({"name": nm, "ref": f"FR {i}"})})
    return cfg, prim_rows, sec_rows


def test_lines_engine_matches_bruteforce_oracle(ray_session):
    """Engine line conflation ≡ a literal O(N*M) oracle over adversarial
    geometry: long lines spanning multiple cells, boundary straddlers,
    a dense cluster, short/degenerate lines — partitioning must be
    semantically invisible."""
    import json

    from osm_merge_ray.geo import coords as G
    from osm_merge_ray.geo.distance import batch_slope_angle_offset2, polyline_min_dist_m
    from osm_merge_ray.stages.lines import conflate_lines, score_tags

    cfg, prim_rows, sec_rows = _adversarial_lines()
    tp = pa.Table.from_pylist(prim_rows)
    ts = pa.Table.from_pylist(sec_rows)

    # ---- literal O(N*M) oracle using the scalar kernels ----
    p_lines = [np.asarray(json.loads(r["coords_json"])).reshape(-1, 2)
               for r in prim_rows]
    s_lines = [np.asarray(json.loads(r["coords_json"])).reshape(-1, 2)
               for r in sec_rows]
    p_props = [json.loads(r["props_json"]) for r in prim_rows]
    s_props = [json.loads(r["props_json"]) for r in sec_rows]
    s_ids = np.array([r["feature_id"] for r in sec_rows])

    def slope_angle_1(la, lb):
        ax, ay, ln_a = G.pad(G.from_arrays([la]))
        bx, by, ln_b = G.pad(G.from_arrays([lb]))
        sl, an = batch_slope_angle_offset2(ax, ay, ln_a, bx, by, ln_b)
        return float(sl[0]), float(an[0])

    expected = {}
    for i in range(len(p_lines)):
        cands = []
        for j in range(len(s_lines)):
            d = polyline_min_dist_m(p_lines[i], s_lines[j])
            if d > cfg.distance_m:
                continue
            sl, an = slope_angle_1(p_lines[i], s_lines[j])
            hits, _ = score_tags(p_props[i], s_props[j], cfg)
            identical = d == 0.0 and sl == 0.0 and an == 0.0
            if hits == 0 and not identical and (
                    abs(an) > cfg.angle_max_deg or abs(sl) > cfg.slope_max):
                continue
            cands.append((hits, d, sl, an, j))
        cands.sort(key=lambda c: (c[1], s_ids[c[4]]))
        cands = cands[: cfg.max_candidates]
        if not cands:
            expected[i] = (-1, "new", 0)
            continue
        parallel = any(h == 1 and abs(an) < 15.0 and abs(sl) < 1.0
                       for h, d, sl, an, j in cands)
        best = max(cands, key=lambda c: (c[0], -c[1], -s_ids[c[4]]))
        h, d, sl, an, j = best
        dec = "parallel" if (parallel and h < cfg.min_hits_accept) else "merged"
        expected[i] = (int(s_ids[j]), dec, h)

    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts), cfg).to_pandas()
    out = out.set_index("feature_id")
    assert len(out) == len(p_lines)
    mism = []
    for i, (mid, dec, h) in expected.items():
        got = (int(out.loc[i, "matched_id"]), out.loc[i, "decision"],
               int(out.loc[i, "hits"]))
        if got != (mid, dec, h):
            mism.append((i, (mid, dec, h), got))
    assert not mism, mism[:10]


@pytest.mark.parametrize("kind", ["images", "lines"])
def test_decisions_invariant_to_block_layout(ray_session, kind):
    """The same inputs in 1, 5 or 37 blocks give identical decisions:
    shuffle block order changes the in-bucket row and pair order, and
    no sink may let that order decide a result."""
    from osm_merge_ray.stages.conflate import conflate_datasets
    from osm_merge_ray.stages.lines import conflate_lines

    if kind == "images":
        from osm_merge_ray.synth import synth_table

        cfg = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=5)
        tp = synth_table(600, "primary", with_bytes=False)
        ts = synth_table(600, "secondary", with_bytes=False)
        run, cols = conflate_datasets, ["image_id", "matched_id", "decision",
                                        "hits", "dist_mm", "old_caption"]
    else:
        cfg, prim_rows, sec_rows = _adversarial_lines()
        tp, ts = pa.Table.from_pylist(prim_rows), pa.Table.from_pylist(sec_rows)
        run, cols = conflate_lines, ["feature_id", "matched_id", "version",
                                     "decision", "hits", "dist_m", "angle",
                                     "slope", "merged_json"]
    outs = []
    for k in (1, 5, 37):
        got = run(rd.from_arrow(tp).repartition(k), rd.from_arrow(ts).repartition(k),
                  cfg).to_pandas()[cols]
        got = got.astype(object).where(got.notna(), None)
        outs.append(got.sort_values(cols[0]).reset_index(drop=True))
    assert len(outs[0]) == tp.num_rows
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])


def test_douglas_peucker_properties(ray_session):
    """DP invariants: endpoints kept, deviation bound honored, straight
    collinear runs collapse, sharp corners survive."""
    import json

    import ray.data as rd

    from osm_merge_ray.geo.simplify import simplify_coords, simplify_lines

    # collinear with sub-tolerance jitter -> collapses to endpoints
    n = 50
    lon = -105.0 + np.arange(n) * 1e-4
    lat = np.full(n, 39.0)
    lat[1:-1] += 1e-7  # ~1 cm jitter
    line = np.column_stack([lon, lat])
    out = simplify_coords(line, tolerance_m=1.0)
    assert len(out) == 2 and (out[0] == line[0]).all() and (out[-1] == line[-1]).all()

    # an L-corner far beyond tolerance must survive
    corner = np.array([[-105.0, 39.0], [-104.99, 39.0], [-104.99, 39.01]])
    out = simplify_coords(corner, tolerance_m=5.0)
    assert len(out) == 3

    # deviation bound: every dropped vertex within tolerance of the
    # simplified line (checked in the same planar metric)
    rng = np.random.default_rng(3)
    wob = np.column_stack([
        -105.0 + np.cumsum(rng.random(60)) * 1e-4,
        39.0 + np.sin(np.arange(60) / 5.0) * 2e-5 + rng.random(60) * 5e-6,
    ])
    tol = 2.0
    simple = simplify_coords(wob, tol)
    from osm_merge_ray.geo.distance import point_segment_dist2
    lat0 = float(wob[:, 1].mean())
    kx = 111320.0 * float(np.cos(np.radians(lat0)))
    px, py = wob[:, 0] * kx, wob[:, 1] * 110540.0
    sx, sy = simple[:, 0] * kx, simple[:, 1] * 110540.0
    best = np.full(len(wob), np.inf)
    for i in range(len(simple) - 1):
        best = np.minimum(best, point_segment_dist2(
            px, py, sx[i], sy[i], sx[i + 1], sy[i + 1]))
    assert np.sqrt(best.max()) <= tol + 1e-9

    # dataset stage: counts ride along
    ds = rd.from_items([{"feature_id": 1,
                         "coords_json": json.dumps(line.tolist())}])
    got = simplify_lines(ds, tolerance_m=1.0).to_pandas()
    assert got.iloc[0]["n_points_in"] == 50 and got.iloc[0]["n_points_out"] == 2


def _points_light():
    from osm_merge_ray.stages import conflate as CF
    from osm_merge_ray.synth import synth_table

    cfg = ConflationConfig(cell_res=15, num_buckets=8, hot_cell_rows=3)
    union = CF.tag_side(rd.from_arrow(synth_table(300, "primary", with_bytes=False)), 0
                        ).union(CF.tag_side(rd.from_arrow(
                            synth_table(300, "secondary", with_bytes=False)), 1))
    return CF.light_rows(union, cfg), cfg


def _lines_light():
    import json

    from osm_merge_ray.stages.lines import _line_prepare

    cfg = ConflationConfig(cell_res=12, num_buckets=8, hot_cell_rows=20)
    rng = np.random.default_rng(3)
    rows = []
    for i in range(160):  # a dense cluster in one res-12 cell, both sides
        lon, lat = -105.95 + rng.uniform(0, 0.003), 39.05 + rng.uniform(0, 0.003)
        rows.append({"feature_id": i, "geom_type": "LineString",
                     "coords_json": json.dumps([[lon + k * 1e-4, lat] for k in range(5)]),
                     "props_json": "{}"})
    # an antimeridian crosser: prepared as two split parts
    rows.append({"feature_id": 999, "geom_type": "LineString",
                 "coords_json": json.dumps([[179.9, -16.2], [-179.9, -16.1]]),
                 "props_json": "{}"})
    t = pa.Table.from_pylist(rows)
    light = pa.concat_tables([_line_prepare(t.slice(0, 90), cfg, 0),
                              _line_prepare(t.slice(90), cfg, 1)])
    return rd.from_arrow(light), cfg


def _rects_light():
    import dataclasses

    from osm_merge_ray.pipelines import queries as Q
    from tests.test_operators import SF

    return (Q._spatial_light(SF, rects=True),
            dataclasses.replace(Q.SPATIAL_CFG, hot_cell_rows=2))


@pytest.mark.parametrize("make", [_points_light, _lines_light, _rects_light],
                         ids=["points", "lines", "rects"])
def test_plan_partition_matches_numpy(ray_session, make):
    """The one planning pass equals in-process numpy over the same light
    rows: hot cells and salt counts, primary max reach (0.0 for points),
    the split-part flag and the row count (run.json's input_rows)."""
    light, cfg = make()
    light = light.materialize()
    plan = P.plan_partition(light, cfg)
    t = pa.concat_tables(light.iter_batches(batch_format="pyarrow", batch_size=None))
    u, c = np.unique(t.column("cell").to_numpy(), return_counts=True)
    hot = c > cfg.hot_cell_rows
    want = {int(k): int(min(8, max(1, -(-n // (cfg.hot_cell_rows * 4)))))
            for k, n in zip(u[hot], c[hot])}
    assert plan.salts == want and want
    prim = t.column("side").to_numpy() == 0
    if "x0" in t.column_names:
        cols = [t.column(k).to_numpy()[prim] for k in ("lon", "lat", "x0", "y0", "x1", "y1")]
        assert plan.reach_m == P.reach_m(*cols).max() > 0
    else:
        assert plan.reach_m == 0.0
    parts = ("part_json" in t.column_names
             and bool((t.column("part_json").to_numpy(zero_copy_only=False) != "").any()))
    assert plan.split_parts == parts
    assert plan.split_parts == (make is _lines_light)
    assert plan.rows == light.count() == t.num_rows
