"""CLI argument surface + XML escaping + polygon-clip properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osm_merge_ray.cli import main as cli_main
from osm_merge_ray.geo.polygons import ensure_ccw, intersection_area, shoelace_area
from osm_merge_ray.sources.osm_xml import parse_osm_bytes, render_osm_xml


def test_cli_subcommands_parse():
    for sub in ("convert", "conflate-lines", "conflate-images", "tm-split",
                "pipeline", "dedup", "poly", "pack", "curate", "semdedup",
                "simplify", "graph"):
        with pytest.raises(SystemExit) as exc:
            cli_main([sub, "--help"])
        assert exc.value.code == 0, sub


def test_osm_xml_escaping_roundtrip():
    import json

    import pyarrow as pa

    nasty = 'He said "hi" & <waved> to \'em'
    t = pa.table({
        "osm_id": pa.array([5], pa.int64()),
        "version": pa.array([1], pa.int32()),
        "geom_type": pa.array(["Point"], pa.string()),
        "coords_json": pa.array(["[1.5, 2.5]"], pa.string()),
        "props_json": pa.array([json.dumps({"name": nasty})], pa.string()),
        "refs_json": pa.array(["[]"], pa.string()),
    })
    xml, _ = render_osm_xml(t, bump_version=False)
    back = parse_osm_bytes(xml.encode())
    props = json.loads(back.column("props_json")[0].as_py())
    assert props["name"] == nasty


coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=4, max_size=4, unique=True),
       st.tuples(coords, coords), st.tuples(coords, coords))
def test_clip_area_bounds(quad, c1, c2):
    """Intersection area is bounded by both inputs (convexified quad vs
    an axis-aligned rect)."""
    a = ensure_ccw(np.array(quad, dtype=float))
    x0, x1 = sorted((c1[0], c2[0]))
    y0, y1 = sorted((c1[1], c2[1]))
    if x1 - x0 < 1e-9 or y1 - y0 < 1e-9:
        return
    b = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    area = intersection_area(a, b)
    assert area >= -1e-9
    assert area <= abs(shoelace_area(b)) + 1e-6


def test_end_to_end_reference_user_journey(ray_session, tmp_path):
    """The full workflow a reference user runs (update.sh analog),
    driven through the real CLI: raw MVUM GeoJSON → `convert` → OSM XML
    secondary → `conflate-lines` → merged OSM XML (version+1, tags
    merged) + new-features GeoJSON (informal=yes fixme)."""
    import json

    from osm_merge_ray.sources.osm_xml import parse_osm_bytes

    # --- raw MVUM primary: 2 roads; one will match OSM, one is new ---
    def line(lon, lat):
        return [[lon + k * 1e-4, lat] for k in range(5)]

    mvum = {"type": "FeatureCollection", "features": [
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": line(-105.3, 39.3)},
         "properties": {"ID": "505.1", "NAME": "Bear Cr",
                        "SURFACETYPE": "NAT", "SEASONAL": "yearlong"}},
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": line(-105.8, 39.8)},
         "properties": {"ID": "77", "NAME": "Lost Lk",
                        "SURFACETYPE": "AGG"}},
    ]}
    raw = tmp_path / "mvum.geojson"
    raw.write_text(json.dumps(mvum))

    converted = tmp_path / "converted.geojson"
    assert cli_main(["convert", "--type", "mvum", "-i", str(raw),
                     "-o", str(converted)]) == 0
    conv = json.loads(converted.read_text())
    assert conv["features"][0]["properties"]["name"] == "Bear Creek Road"
    assert conv["features"][0]["properties"]["ref:usfs"] == "FR 505.1"
    assert conv["features"][0]["properties"]["surface"] == "dirt"

    # --- OSM secondary (.osm file, suffix-dispatched like the
    #     reference's parseFile): matches road 1, 3 m offset ---
    off = 3.0 / 111194.9
    osm_xml = ["<?xml version='1.0'?>", "<osm version='0.6'>"]
    for i, (lon, lat) in enumerate(line(-105.3, 39.3 + off), start=1):
        osm_xml.append(f"<node id='{i}' lat='{lat}' lon='{lon}'/>")
    refs = "".join(f"<nd ref='{i}'/>" for i in range(1, 6))
    osm_xml.append("<way id='4242' version='3'>" + refs
                   + "<tag k='name' v='Bear Creek Road'/>"
                   + "<tag k='ref:usfs' v='FS 505.1'/>"
                   + "<tag k='highway' v='track'/></way>")
    osm_xml.append("</osm>")
    osm_path = tmp_path / "secondary.osm"
    osm_path.write_text("\n".join(osm_xml))

    outdir = tmp_path / "decisions"
    osm_out = tmp_path / "merged.osm"
    new_out = tmp_path / "new.geojson"
    assert cli_main(["conflate-lines", "-p", str(converted), "-s", str(osm_path),
                     "-o", str(outdir), "--threshold", "7.0",
                     "--cell-res", "12", "--osm-out", str(osm_out),
                     "--new-out", str(new_out)]) == 0

    # merged way: OSM id kept, version bumped 3→4, tags merged
    merged = parse_osm_bytes(osm_out.read_bytes())
    assert merged.num_rows == 1
    props = json.loads(merged.column("props_json")[0].as_py())
    mid = merged.column("osm_id")[0].as_py()
    assert mid == 4242
    assert merged.column("version")[0].as_py() == 4  # 3 -> +1
    assert props["name"] == "Bear Creek Road"
    assert props["highway"] == "track"      # highway kept from OSM
    assert props["surface"] == "dirt"       # primary tag merged in
    # new feature: informal=yes + fixme import warning
    new = json.loads(new_out.read_text())
    assert len(new["features"]) == 1
    np_ = new["features"][0]["properties"]
    assert np_["informal"] == "yes" and "fixme" in np_
    assert np_["name"] == "Lost Lake Road"



def test_pipeline_matches_conflate_lines(ray_session, tmp_path):
    """`pipeline` over a one-task tree (GeoJSON primary, `.osm`
    secondary of the same stem) writes the same decisions as
    `conflate-lines` on the same two files: one suffix-dispatched
    feature reader serves both commands."""
    import json

    import pandas as pd

    def line(lon, lat):
        return [[lon + k * 1e-4, lat] for k in range(5)]

    prim = tmp_path / "prim"
    sec = tmp_path / "sec"
    prim.mkdir()
    sec.mkdir()
    feats = [{"type": "Feature",
              "geometry": {"type": "LineString", "coordinates": line(-105.3, 39.3 + i * 1e-3)},
              "properties": {"name": f"Bear Creek Road {i}", "ref:usfs": f"FR 50{i}.1",
                             "highway": "track"}}
             for i in range(4)]
    (prim / "task-1.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": feats}))
    off = 3.0 / 111194.9
    osm = ["<?xml version='1.0'?>", "<osm version='0.6'>"]
    nid = 0
    for w in range(3):  # OSM ways under primaries 0-2; primary 3 is new
        refs = []
        for lon, lat in line(-105.3, 39.3 + w * 1e-3 + off):
            nid += 1
            refs.append(nid)
            osm.append(f"<node id='{nid}' lat='{lat}' lon='{lon}'/>")
        osm.append(f"<way id='{4240 + w}' version='2'>"
                   + "".join(f"<nd ref='{r}'/>" for r in refs)
                   + f"<tag k='name' v='Bear Creek Road {w}'/>"
                   + f"<tag k='ref:usfs' v='FS 50{w}.1'/>"
                   + "<tag k='highway' v='track'/></way>")
    osm.append("</osm>")
    (sec / "task-1.osm").write_text("\n".join(osm))

    out_p = tmp_path / "out_pipeline"
    out_c = tmp_path / "out_conflate"
    assert cli_main(["pipeline", "--primary-dir", str(prim), "--secondary-dir", str(sec),
                     "-o", str(out_p), "--type", "none"]) == 0
    assert cli_main(["conflate-lines", "-p", str(prim / "task-1.geojson"),
                     "-s", str(sec / "task-1.osm"), "-o", str(out_c)]) == 0

    def decisions(d):
        df = pd.read_parquet(d).sort_values("feature_id").reset_index(drop=True)
        return df[sorted(df.columns)]

    got, want = decisions(out_p / "task-1"), decisions(out_c)
    assert len(want) == 4
    assert want["decision"].tolist() == ["merged", "merged", "merged", "new"]
    assert want["matched_id"].tolist() == [4240, 4241, 4242, -1]
    pd.testing.assert_frame_equal(got, want)

def test_cli_dedup_cluster_and_pack(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pd.DataFrame({
        "doc_id": range(8),
        "text": ["alpha beta gamma delta epsilon zeta"] * 2
                + ["alpha beta gamma delta epsilon zeta eta theta"] * 2
                + [f"unique words only here {i} {i} {i} pad pad pad {i}"
                   for i in range(4)],
    })
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False), src)

    out = tmp_path / "reps"
    assert cli_main(["dedup", "-i", str(src), "-o", str(out),
                     "--method", "cluster", "--threshold", "0.5",
                     "--max-df", "0"]) == 0
    reps = pq.read_table(out).to_pandas().sort_values("cluster_id")
    # docs 0-3 share high word-3-gram overlap -> one cluster whose
    # representative is the LONGER variant (doc 2, 8 tokens)
    big = reps[reps["cluster_size"] > 1]
    assert len(big) == 1 and big.iloc[0]["rep_id"] == 2
    assert big.iloc[0]["rep_n_tokens"] == 8 and big.iloc[0]["cluster_size"] == 4

    outp = tmp_path / "pack"
    assert cli_main(["pack", "-i", str(src), "-o", str(outp),
                     "--max-len", "8"]) == 0
    plan = pq.read_table(outp).to_pandas().sort_values("doc_id")
    n = docs["text"].map(lambda s: len(s.split(" "))).to_numpy()
    assert (plan["start_tok"].to_numpy()
            == np.concatenate([[0], np.cumsum(n)[:-1]])).all()


def test_cli_incremental_and_semdedup(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = pd.DataFrame({"doc_id": range(6),
                           "text": [f"stored doc {i} body" for i in range(6)]})
    batch = pd.DataFrame({"doc_id": [100, 101, 102],
                          "text": ["stored doc 2 body", "brand new thing",
                                   "stored doc 5 body"]})
    cp, bp = tmp_path / "corpus.parquet", tmp_path / "batch.parquet"
    pq.write_table(pa.Table.from_pandas(corpus, preserve_index=False), cp)
    pq.write_table(pa.Table.from_pandas(batch, preserve_index=False), bp)
    out = tmp_path / "inc"
    assert cli_main(["dedup", "-i", str(bp), "-o", str(out),
                     "--method", "incremental", "--corpus", str(cp)]) == 0
    flags = pq.read_table(out).to_pandas().set_index("doc_id")["is_dup"]
    assert flags.to_dict() == {100: True, 101: False, 102: True}

    outs = tmp_path / "sem"
    assert cli_main(["semdedup", "-i", "/root/testdata/sf0.001/embeddings.parquet",
                     "-o", str(outs), "--centroids", "4",
                     "--threshold", "0.35"]) == 0
    pairs = pq.read_table(outs).to_pandas()
    assert len(pairs) > 0 and (pairs["id_a"] < pairs["id_b"]).all()


def test_cli_graph_methods(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    # K4 + disjoint edge: 2 components, K4 nodes in 3 triangles each
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges = pd.DataFrame(k4 + [(10, 11)], columns=["id_a", "id_b"])
    src = tmp_path / "edges.parquet"
    pq.write_table(pa.Table.from_pandas(edges, preserve_index=False), src)

    out = tmp_path / "cc"
    assert cli_main(["graph", "-i", str(src), "-o", str(out),
                     "--method", "cc"]) == 0
    cc = pq.read_table(out).to_pandas()
    labels = dict(zip(cc["node"], cc["cluster_id"]))
    assert labels[0] == labels[3] == 0 and labels[10] == labels[11] == 10

    out = tmp_path / "tri"
    assert cli_main(["graph", "-i", str(src), "-o", str(out),
                     "--method", "triangles"]) == 0
    tri = pq.read_table(out).to_pandas()
    assert dict(zip(tri["node"], tri["n_triangles"])) == {i: 3 for i in range(4)}

    out = tmp_path / "pr"
    assert cli_main(["graph", "-i", str(src), "-o", str(out),
                     "--method", "pagerank", "--iters", "2"]) == 0
    pr = pq.read_table(out).to_pandas()
    ranks = dict(zip(pr["node"], pr["pagerank_q20"]))
    assert len(ranks) == 6 and ranks[0] == ranks[1]  # K4 symmetric


def test_cli_dedup_phash(ray_session, tmp_path):
    """r4: `dedup --method phash` — banded Hamming near-dup over a
    stored int64 phash column."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = np.arange(20, dtype=np.int64) * 7919 * 65537
    rows = pd.DataFrame({
        "image_id": np.concatenate([np.arange(20), np.arange(20) + 100]),
        "phash": np.concatenate([base, base ^ np.int64(0b101)]),  # ham 2
    })
    src = tmp_path / "ph.parquet"
    pq.write_table(pa.Table.from_pandas(rows, preserve_index=False), src)
    out = tmp_path / "pairs"
    assert cli_main(["dedup", "-i", str(src), "-o", str(out),
                     "--method", "phash", "--id-column", "image_id",
                     "--max-hamming", "4"]) == 0
    pairs = pq.read_table(out).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert {(i, i + 100) for i in range(20)} <= got
    assert (pairs["hamming"] == 2).all()


def test_cli_sample_and_distinct(ray_session, tmp_path):
    """r4: sample / distinct subcommands over a TWO-FILE input (the
    pagerank lesson: single-block fixtures mask cross-block bugs)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    indir = tmp_path / "docs"
    indir.mkdir()
    ids = np.arange(200, dtype=np.int64)
    grp = ["g%d" % (i % 3) for i in ids]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "source": pa.array(grp),
                  "user_id": pa.array(ids % 11, pa.int64())})
    pq.write_table(t.slice(0, 97), str(indir / "a.parquet"))
    pq.write_table(t.slice(97), str(indir / "b.parquet"))

    out = tmp_path / "sampled"
    assert cli_main(["sample", "-i", str(indir), "-o", str(out),
                     "-k", "9", "--group-column", "source"]) == 0
    df = pq.read_table(str(out)).to_pandas()
    assert df.groupby("source")["doc_id"].count().to_dict() == \
        {"g0": 9, "g1": 9, "g2": 9}
    assert df["r"].max() == 9

    # per-group distinct: 11 distinct users overall, fewer per group
    assert cli_main(["distinct", "-i", str(indir), "--column", "user_id",
                     "--group-column", "source", "-k", "8"]) == 0
    assert cli_main(["distinct", "-i", str(indir),
                     "--column", "user_id"]) == 0


def test_cli_bpe_train_and_decontaminate(ray_session, tmp_path):
    """r5: bpe-train / decontaminate subcommands over parquet inputs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    train = tmp_path / "train.parquet"
    evalp = tmp_path / "eval.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["the cat sat on the mat and the cat ran",
                          "xxcret answerkey is fortytwyy",
                          "nothing shared here at all"], pa.string()),
    }), str(train))
    pq.write_table(pa.table({
        "doc_id": pa.array([10], pa.int64()),
        "text": pa.array(["the secret answerkey is fortytwo exactly"],
                         pa.string()),
    }), str(evalp))

    merges_out = tmp_path / "merges.parquet"
    assert cli_main(["bpe-train", "-i", str(train), "-o", str(merges_out),
                     "--merges", "4"]) == 0
    m = pq.read_table(str(merges_out)).to_pandas()
    assert list(m.columns) == ["r", "a", "b", "pair_count"]
    assert len(m) == 4 and m["pair_count"].is_monotonic_decreasing is not None

    rep = tmp_path / "rep"
    assert cli_main(["decontaminate", "-i", str(train), "--eval", str(evalp),
                     "-o", str(rep), "--method", "substring",
                     "--min-len", "24"]) == 0
    df = pq.read_table(str(rep)).to_pandas()
    assert set(df["doc_id"]) == {2}


def test_cli_chunk_and_kgram_decontaminate(ray_session, tmp_path):
    """r5: chunk subcommand writes a correct plan; decontaminate
    default (kgram) method flags word-gram overlap."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([" ".join(f"t{i}" for i in range(50)),
                          "short doc"], pa.string()),
    }), str(corpus))

    plan = tmp_path / "plan"
    assert cli_main(["chunk", "-i", str(corpus), "-o", str(plan),
                     "--window", "32", "--overlap", "8"]) == 0
    df = pq.read_table(str(plan)).to_pandas()
    assert len(df[df["doc_id"] == 0]) == 2   # 50 toks @ W32/S24
    assert len(df[df["doc_id"] == 1]) == 1

    evalp = tmp_path / "eval.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array(["t10 t11 t12 nothing else"], pa.string()),
    }), str(evalp))
    rep = tmp_path / "rep"
    assert cli_main(["decontaminate", "-i", str(corpus), "--eval",
                     str(evalp), "-o", str(rep), "-k", "3"]) == 0
    got = pq.read_table(str(rep)).to_pandas()
    assert set(got["doc_id"]) == {0}          # shares gram t10 t11 t12


def test_cli_aspect_bucket(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({"image_id": pa.array([1, 2], pa.int64()),
                  "w": pa.array([512, 320], pa.int64()),
                  "h": pa.array([512, 900], pa.int64())})
    src = tmp_path / "imgs.parquet"
    pq.write_table(t, str(src))
    out = tmp_path / "buckets"
    assert cli_main(["aspect-bucket", "-i", str(src), "-o", str(out)]) == 0
    df = pq.read_table(str(out)).to_pandas().set_index("image_id")
    assert (df.loc[1, "bucket_w"], df.loc[1, "bucket_h"]) == (512, 512)
    assert df.loc[2, "bucket_h"] > df.loc[2, "bucket_w"]


def test_cli_aspect_batch_plan(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 40
    t = pa.table({"image_id": pa.array(range(n), pa.int64()),
                  "w": pa.array([512] * n, pa.int64()),
                  "h": pa.array([512] * n, pa.int64())})
    src = tmp_path / "imgs.parquet"
    pq.write_table(t, str(src))
    out = tmp_path / "plan"
    assert cli_main(["aspect-bucket", "-i", str(src), "-o", str(out),
                     "--batch-size", "16"]) == 0
    df = pq.read_table(str(out)).to_pandas()
    assert set(df["batch_idx"]) == {0, 1, 2}   # 16+16+8
    assert df["bucket_id"].nunique() == 1


def test_tm_split_writes_one_file_per_tile(ray_session, tmp_path):
    """`tm-split --split` on a 4x3 grid of 10 km tiles: each feature
    lands in the task file of its centroid's tile (outside points clamp
    to the border tile), and empty tiles get no file. Features compare
    as sorted JSON strings, so their order within a file is free."""
    import json

    feats = [
        ("a", "Point", [0.01, 0.01]),
        ("b", "Point", [0.02, 0.02]),
        ("c", "Point", [0.1, 0.01]),
        ("d", "LineString", [[0.19, 0.15], [0.21, 0.15]]),
        ("e", "Point", [0.5, 0.5]),
        ("f", "Point", [0.11, 0.16]),
        ("g", "Polygon", [[[0.005, 0.1], [0.015, 0.1], [0.015, 0.11],
                           [0.005, 0.1]]]),
    ]
    src = tmp_path / "data.geojson"
    src.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": gt, "coordinates": c},
         "properties": {"name": name}} for name, gt, c in feats]}))
    out = tmp_path / "tasks"
    assert cli_main(["tm-split", "--split", str(src), "--bbox", "0", "0",
                     "0.3", "0.2", "--meters", "10000", "-o", str(out)]) == 0

    def canon(fs):
        return sorted(json.dumps(f, sort_keys=True) for f in fs)

    got = {p.name: canon(json.loads(p.read_text())["features"])
           for p in out.iterdir()}
    by_name = {name: {"type": "Feature",
                      "geometry": {"type": gt, "coordinates": c},
                      "properties": {"name": name}}
               for name, gt, c in feats}
    want = {f"task-{tid}.geojson": canon(by_name[n] for n in names)
            for tid, names in {0: "ab", 1: "c", 4: "g", 5: "f", 6: "d",
                               11: "e"}.items()}
    assert got == want
