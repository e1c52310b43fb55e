"""Tests for the training-data operators: dedup, similarity search,
text analysis — including LSH recall against the exact oracle and a
DuckDB parity gate over the sf0.001 tables (a fast local replica of the
driver's correctness check)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_with_dups(ray_session):
    base = [
        "the quick brown fox jumps over the lazy dog every single day",
        "a completely different sentence about ray data streaming engines",
        "big table scans merge sort join aggregate window partition bucket",
        "spark flink ray dask beam arrow parquet orc avro formats galore",
    ]
    rows = []
    for i in range(40):
        b = base[i % 4]
        if i < 8:
            txt = b  # exact dups of base
        elif i < 12:
            txt = b.replace("the", "that") if "the" in b else b + " indeed"
        else:
            txt = f"unique document number {i} with words " + " ".join(
                f"w{i}x{j}" for j in range(10)
            )
        rows.append({"doc_id": i, "text": txt})
    return pd.DataFrame(rows)


def test_dedup_exact(docs_with_dups):
    from osm_merge_ray.dedup.exact import dedup_exact

    out = dedup_exact(rd.from_pandas(docs_with_dups), "text", "doc_id").to_pandas()
    # each of the 4 base texts appears twice in 0..7 → 4 groups of size 2
    assert (out["n_copies"] == 2).sum() == 4
    dup_keepers = out[out["n_copies"] == 2]["keep_id"].sort_values().tolist()
    assert dup_keepers == [0, 1, 2, 3]
    assert out["n_copies"].sum() == len(docs_with_dups)


def test_minhash_lsh_recall_vs_exact_jaccard(docs_with_dups):
    from osm_merge_ray.dedup.jaccard import jaccard_pairs
    from osm_merge_ray.dedup.minhash import minhash_lsh_pairs, verify_jaccard

    ds = rd.from_pandas(docs_with_dups)
    exact = jaccard_pairs(ds, k=3, threshold=0.5).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    assert len(exact_pairs) >= 4  # the planted exact dups at least

    cand = minhash_lsh_pairs(rd.from_pandas(docs_with_dups)).to_pandas()
    cand_pairs = set(zip(cand["id_a"], cand["id_b"]))
    # LSH recall at J>=0.5 with 16 bands x 4 rows: P(miss) = (1-J^4)^16 <= 6% at J=0.5
    recall = len(exact_pairs & cand_pairs) / len(exact_pairs)
    assert recall >= 0.8
    # precision after exact verification: candidates verified to J>=0.5 ⊆ exact
    texts = dict(zip(docs_with_dups["doc_id"], docs_with_dups["text"]))
    ver = verify_jaccard(cand, texts, k=3, threshold=0.5)
    assert set(zip(ver[ver["is_dup"]]["id_a"], ver[ver["is_dup"]]["id_b"])) <= exact_pairs


def test_simhash_pairs(docs_with_dups):
    from osm_merge_ray.dedup.simhash import simhash_pairs, simhash64

    # identical texts → identical fingerprints → hamming 0 pairs present
    out = simhash_pairs(rd.from_pandas(docs_with_dups), max_hamming=3).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 4) in pairs and (1, 5) in pairs  # exact dup plants
    h = simhash64(["hello world foo bar", "hello world foo bar", "zzz qqq"])
    assert h[0] == h[1] != h[2]


def test_bucket_pair_partials_dense_equals_sparse():
    from osm_merge_ray.dedup.jaccard import _bucket_pair_partials

    rng = np.random.default_rng(7)
    rows = []
    for d in range(300):
        gs = rng.choice(40, size=rng.integers(3, 15), replace=False)
        for g in gs:
            rows.append((int(g) * 1000 + 7, d + (1 << 33), len(gs)))
    df = pd.DataFrame(rows, columns=["gram_hash", "doc_id", "n_grams"])
    dense = _bucket_pair_partials(df, "doc_id", dense_min_pairs=0)
    sparse = _bucket_pair_partials(df, "doc_id", dense_max_docs=0)
    k = lambda x: x.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert k(dense).equals(k(sparse))
    assert len(dense) > 10_000  # dense co-occurrence actually exercised
    # max_df filters identically on both paths
    dcap = _bucket_pair_partials(df, "doc_id", max_df=50, dense_min_pairs=0)
    scap = _bucket_pair_partials(df, "doc_id", max_df=50, dense_max_docs=0)
    assert k(dcap).equals(k(scap)) and len(dcap) < len(dense)


def test_winnow_pairs_matches_bruteforce(docs_with_dups):
    from osm_merge_ray.dedup.winnow import winnow_pairs
    from osm_merge_ray.text.analysis import winnow_select

    # int64 ids beyond 2^31 exercise the structured-unique pair dedup
    # (the old packed-int key corrupted such ids, ADVICE r2)
    docs = docs_with_dups.copy()
    docs["doc_id"] = docs["doc_id"] + (1 << 33)
    out = winnow_pairs(rd.from_pandas(docs), k=8, window=16,
                       threshold=0.2).to_pandas()
    got = {(a, b): (i, na, nb, o) for a, b, i, na, nb, o in zip(
        out["id_a"], out["id_b"], out["inter"], out["na"], out["nb"],
        out["overlap"])}

    sels = {r.doc_id: set(winnow_select(r.text, 8, 16).tolist())
            for r in docs.itertuples()}
    want = {}
    ids = sorted(sels)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            inter = len(sels[a] & sels[b])
            if not inter:
                continue
            ov = inter / (len(sels[a]) + len(sels[b]) - inter)
            if ov >= 0.2:
                want[(a, b)] = (inter, len(sels[a]), len(sels[b]), ov)
    assert got == want
    assert len(want) >= 4  # the planted exact dups at least


def test_semantic_dedup_subset_of_exact_and_skew_guard(ray_session):
    import pyarrow.parquet as pq

    from osm_merge_ray.sim.semdedup import semantic_dedup_pairs

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    mat = np.vstack([np.asarray(v, dtype=np.float64)
                     for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy()
    cents = mat[np.argsort(ids)[:4]]
    got = semantic_dedup_pairs(rd.from_arrow(t), cents, threshold=0.35).to_pandas()
    got_pairs = set(zip(got["id_a"], got["id_b"]))

    # exact all-pairs oracle at the same threshold
    norms = np.linalg.norm(mat, axis=1)
    sims = np.round((mat @ mat.T) / (norms[:, None] * norms[None, :]), 6)
    ia, ib = np.triu_indices(len(ids), k=1)
    order = np.argsort(ids, kind="stable")
    sid = ids[order]
    sims = sims[np.ix_(order, order)]
    exact = {(sid[a], sid[b]) for a, b in zip(ia, ib) if sims[a, b] >= 0.35}
    assert got_pairs <= exact          # within-cluster only, never spurious
    assert len(got_pairs) >= len(exact) * 0.3  # clusters capture real mass
    for r in got.itertuples():         # sims agree with the oracle matrix
        a = np.searchsorted(sid, r.id_a)
        b = np.searchsorted(sid, r.id_b)
        assert sims[a, b] == r.sim

    import ray

    with pytest.raises(ray.exceptions.RayTaskError,
                       match="max_cluster_rows"):
        semantic_dedup_pairs(rd.from_arrow(t), cents, threshold=0.35,
                             max_cluster_rows=3).to_pandas()


def test_cms_overcounts_never_undercounts(ray_session):
    from osm_merge_ray.sketch import cms_build, cms_estimate

    rng = np.random.default_rng(5)
    keys = rng.zipf(1.5, 50_000).astype(np.int64) % 10_000
    df = pd.DataFrame({"k": keys})
    grid = cms_build(rd.from_pandas(df), "k", w=512)
    assert int(grid[0].sum()) == len(keys)  # every row counts every item
    q = np.unique(keys)[:200]
    true = pd.Series(keys).value_counts()
    est = cms_estimate(grid, q, w=512)
    t = np.array([true[x] for x in q])
    assert (est >= t).all()                  # CMS never undercounts
    assert np.median(est - t) <= 0.02 * len(keys)  # eps ~ e/w bound


def test_kmv_sketch_exact_below_k_and_accurate_above(ray_session):
    from osm_merge_ray.sketch import distinct_sketch

    n = 40_000
    df = pd.DataFrame({
        "small": np.arange(n) % 100,          # 100 distinct < k
        "big": (np.arange(n) * 7) % 20_011,   # 20,011 distinct >> k
    })
    out = distinct_sketch(rd.from_pandas(df), ["small", "big"], k=256,
                          include_exact=True)
    out = out.set_index("key")
    assert out.loc["small", "est_distinct"] == 100   # exact mode
    assert out.loc["small", "n_distinct"] == 100
    assert out.loc["big", "n_distinct"] == 20_011
    est = out.loc["big", "est_distinct"]
    # KMV stderr ~ 1/sqrt(k) ≈ 6%; allow 4 sigma
    assert abs(est - 20_011) / 20_011 < 0.25
    assert out.loc["big", "n_sketch"] == 256


def test_triangle_counts_k4_plus_path(ray_session):
    from osm_merge_ray.graph.triangles import triangle_counts

    # K4 on {0,1,2,3}: C(4,3)=4 triangles, every node in 3;
    # path 10-11-12 contributes none
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges = pd.DataFrame(k4 + [(10, 11), (11, 12)],
                         columns=["id_a", "id_b"])
    out = triangle_counts(rd.from_pandas(edges)).to_pandas()
    got = dict(zip(out["node"], out["n_triangles"]))
    assert got == {0: 3, 1: 3, 2: 3, 3: 3}


def test_pagerank_integer_matches_numpy_oracle(ray_session):
    from osm_merge_ray.graph.pagerank import pagerank_integer

    # star centre 0 with leaves 1-4, a 2-chain 10-11, isolated 20
    edges = pd.DataFrame({"id_a": [0, 0, 0, 0, 10],
                          "id_b": [1, 2, 3, 4, 11]})
    nodes = pd.DataFrame({"doc_id": [0, 1, 2, 3, 4, 10, 11, 20]})
    got = pagerank_integer(rd.from_pandas(edges), rd.from_pandas(nodes),
                           iters=2).to_pandas()
    got = dict(zip(got["doc_id"], got["pagerank_q20"]))

    # exact integer replay
    und = [(a, b) for a, b in zip(edges["id_a"], edges["id_b"])]
    und += [(b, a) for a, b in und[:5]]
    deg = {}
    for s, _ in und:
        deg[s] = deg.get(s, 0) + 1
    scale, base = 1 << 20, (1 << 20) * 15 // 100
    r = {v: scale for v in nodes["doc_id"]}
    for _ in range(2):
        inflow = {v: 0 for v in r}
        for s, d in und:
            inflow[d] += r[s] // deg[s]
        r = {v: base + 85 * inflow[v] // 100 for v in r}
    assert got == r
    assert got[0] > got[1] == got[2] and got[20] == base + 0  # centre tops


def test_incremental_dedup_flags_exactly_the_restated_docs(docs_with_dups):
    from osm_merge_ray.dedup.incremental import incremental_dedup

    corpus = docs_with_dups[docs_with_dups["doc_id"] < 20]
    batch = docs_with_dups[docs_with_dups["doc_id"] >= 12].copy()
    batch["doc_id"] += 1000  # re-ingest under new ids
    out = incremental_dedup(rd.from_pandas(batch), rd.from_pandas(corpus)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    corpus_texts = set(corpus["text"])
    want = {r.doc_id: (r.text in corpus_texts) for r in batch.itertuples()}
    assert dict(zip(out["doc_id"], out["is_dup"])) == want
    assert out["is_dup"].sum() > 0 and (~out["is_dup"]).sum() > 0


def test_pack_sequences_is_exact_prefix_scan(docs_with_dups):
    from osm_merge_ray.text.packing import pack_sequences

    out = pack_sequences(rd.from_pandas(docs_with_dups), max_len=16) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    n = docs_with_dups.sort_values("doc_id")["text"] \
        .map(lambda s: len(s.split(" "))).to_numpy()
    want_start = np.concatenate([[0], np.cumsum(n)[:-1]])
    assert (out["n_tokens"].to_numpy() == n).all()
    assert (out["start_tok"].to_numpy() == want_start).all()
    assert (out["win_first"].to_numpy() == want_start // 16).all()
    assert (out["win_last"].to_numpy() == (want_start + n - 1) // 16).all()


def test_cluster_representatives_argmax_and_ties(ray_session):
    from osm_merge_ray.dedup.cluster import cluster_representatives

    # cluster 0 = {0,1,2}: doc 1 has most tokens → rep. cluster 10 =
    # {10,11}: tie on quality → lowest id (10). 20 is a singleton.
    clusters = pd.DataFrame({"doc_id": [0, 1, 2, 10, 11, 20],
                             "cluster_id": [0, 0, 0, 10, 10, 20]})
    quality = pd.DataFrame({"doc_id": [0, 1, 2, 10, 11, 20],
                            "n_tokens": [3, 9, 5, 7, 7, 4]})
    out = cluster_representatives(
        rd.from_pandas(clusters), rd.from_pandas(quality)
    ).to_pandas().sort_values("cluster_id").reset_index(drop=True)
    assert out["cluster_id"].tolist() == [0, 10, 20]
    assert out["rep_id"].tolist() == [1, 10, 20]
    assert out["rep_n_tokens"].tolist() == [9, 7, 4]
    assert out["cluster_size"].tolist() == [3, 2, 1]


def test_knn_brute_force_matches_numpy_oracle(ray_session):
    import pyarrow.parquet as pq

    from osm_merge_ray.sim.knn import brute_force_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.vstack([np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy()
    qm, qids = mat[:5], ids[:5]
    got = brute_force_topk(rd.from_arrow(t), qm, qids, k=3).to_pandas()

    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    sims = np.round(mn @ qn.T, 6)
    for j, qid in enumerate(qids):
        s = sims[:, j].copy()
        mask = ids != qid
        idx = np.where(mask)[0]
        top = idx[np.lexsort((ids[idx], -s[idx]))][:3]
        sub = got[got["query_id"] == qid].sort_values("rank")
        assert sub["neighbor_id"].tolist() == ids[top].tolist()


def test_knn_ivf_recall(ray_session):
    import pyarrow.parquet as pq

    from osm_merge_ray.sim.knn import brute_force_topk, ivf_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.vstack([np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy()
    qm, qids = mat[:5], ids[:5]
    exact = brute_force_topk(rd.from_arrow(t), qm, qids, k=5).to_pandas()
    approx = ivf_topk(rd.from_arrow(t), qm, qids, k=5, n_centroids=8, nprobe=4).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    assert len(e & a) / len(e) >= 0.5  # nprobe=4/8 lists → decent recall


def test_text_stats_hand_computed(ray_session):
    from osm_merge_ray.text.analysis import quality_score, token_stats

    t = pa.table({"doc_id": [1, 2], "text": ["the cat sat on a mat", "xyz"]})
    out = token_stats(t)
    assert out.column("n_tokens").to_pylist() == [6, 1]
    assert out.column("n_chars_calc").to_pylist() == [20, 3]
    q = quality_score(t)
    assert q.column("stopword_count").to_pylist() == [3, 0]  # the, on, a
    assert q.column("quality_keep").to_pylist() == [True, False]


def test_langid_and_fingerprint_deterministic():
    from osm_merge_ray.text.analysis import Fingerprint, LangId

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["the cat is on the mat and it is fine",
                 "el gato de la casa y que bien",
                 "zz yy xx ww"],
    })
    out = LangId()(df)
    assert out["lang_pred"].tolist() == ["en", "es", "und"]
    f1 = Fingerprint()(df)["fingerprint"].tolist()
    f2 = Fingerprint()(df)["fingerprint"].tolist()
    assert f1 == f2 and len(set(f1)) == 3


# ---------------------------------------------------------------------------
# DuckDB parity gate at sf0.001 (fast replica of the driver's check)
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    "spatial_cell_index", "spatial_distance_join", "spatial_knn_join",
    "spatial_conflate", "spatial_conflate_cascade", "spatial_conflate_flagship",
    "spatial_tile_assign", "spatial_point_in_polygon", "spatial_polygon_overlap",
    "dedup_exact", "dedup_ngram_jaccard", "dedup_winnow", "dedup_embedding_cosine",
    "dedup_representatives", "dedup_semantic", "dedup_incremental",
    "graph_pagerank", "graph_triangles", "curate_corpus",
    "events_distinct_sketch", "orders_upsert", "source_weighted_sample",
    "text_length_deciles", "events_cms_heavy_hitters",
    "text_token_count", "text_quality_score", "text_pack_sequences",
    "knn_cosine_topk", "convert_nps", "text_tfidf", "spatial_sample_join",
]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object or str(df[c].dtype) == "string":
            df[c] = df[c].astype(object).where(pd.notna(df[c]), None).astype(str)
        elif str(df[c].dtype).startswith(("int", "Int", "uint")):
            df[c] = df[c].astype(np.int64)
        elif str(df[c].dtype) in ("bool", "boolean"):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("name", PARITY_QUERIES)
def test_sql_oracle_parity(ray_session, name):
    import duckdb

    from osm_merge_ray.pipelines.queries import ORACLE_SQL, QUERIES

    con = duckdb.connect()
    for tbl in ("region nation customer supplier part orders lineitem "
                "events documents embeddings").split():
        con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM read_parquet('{SF}/{tbl}.parquet')")
    res = QUERIES[name](SF)
    got = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    exp = con.execute(ORACLE_SQL[name]).df()
    pd.testing.assert_frame_equal(_canon(got), _canon(exp), check_dtype=False,
                                  check_exact=True)


SPINE_TWINS = [
    "spatial_distance_join", "spatial_sample_join", "spatial_knn_join",
    "spatial_conflate", "spatial_conflate_cascade", "spatial_conflate_flagship",
    "spatial_polygon_overlap",
]


@pytest.mark.parametrize("name", SPINE_TWINS)
def test_spine_twin_parity_under_forced_salting(ray_session, monkeypatch, name):
    """With a tiny hot-cell threshold the spine salts the twins' hot
    cells; the candidate pairs, and so the DuckDB parity, must not move."""
    import dataclasses

    import duckdb

    from osm_merge_ray.pipelines import queries as Q
    from osm_merge_ray.stages.partition import plan_salts

    cfg = dataclasses.replace(Q.SPATIAL_CFG, hot_cell_rows=2)
    monkeypatch.setattr(Q, "SPATIAL_CFG", cfg)
    salts = plan_salts(Q._spatial_light(SF).materialize(), cfg)
    assert salts and max(salts.values()) > 1
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    got = Q.QUERIES[name](SF).to_pandas()
    exp = con.execute(Q.ORACLE_SQL[name]).df()
    pd.testing.assert_frame_equal(_canon(got), _canon(exp), check_dtype=False,
                                  check_exact=True)


def test_knn_ivf_distributed_training(ray_session):
    import pyarrow.parquet as pq

    from osm_merge_ray.sim.knn import brute_force_topk, ivf_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.vstack([np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy()
    qm, qids = mat[:5], ids[:5]
    exact = brute_force_topk(rd.from_arrow(t), qm, qids, k=5).to_pandas()
    approx = ivf_topk(rd.from_arrow(t), qm, qids, k=5, n_centroids=8, nprobe=4,
                      distributed_train=True).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    assert len(e & a) / len(e) >= 0.5


def test_frame_sample_stage_direct():
    from osm_merge_ray.image.stages import FrameSample
    from osm_merge_ray.util import splitmix64

    n = 6
    t = pa.table({
        "video_id": [f"vid{i}" for i in range(n)],
        "bytes": [splitmix64(i).to_bytes(8, "little") * 4 for i in range(n)],
        "n_frames": pa.array([30 + i for i in range(n)], pa.int32()),
        "fps": pa.array([30.0] * n, pa.float64()),
        "w": pa.array([64] * n, pa.int32()),
        "h": pa.array([64] * n, pa.int32()),
    })
    out = FrameSample(k=4)(t)
    assert out.num_rows == 4 * n  # k frames per video
    df = out.to_pandas()
    assert (df.groupby("video_id")["frame_idx"].nunique() == 4).all()
    # deterministic: same input → same frame hashes
    out2 = FrameSample(k=4)(t)
    assert out.column("frame_phash").to_pylist() == out2.column("frame_phash").to_pylist()


def test_verify_jaccard_distributed_matches_local(ray_session, docs_with_dups):
    """The scale-path exact-Jaccard verify (texts joined back per
    candidate) must agree with the driver-side helper."""
    import pandas as pd

    from osm_merge_ray.dedup.minhash import (
        minhash_lsh_pairs, verify_jaccard, verify_jaccard_distributed)

    ds = rd.from_pandas(docs_with_dups)
    pairs = minhash_lsh_pairs(ds).materialize()
    texts = dict(zip(docs_with_dups["doc_id"], docs_with_dups["text"]))
    local = verify_jaccard(pairs.to_pandas(), texts, threshold=0.5)
    local = local[local["is_dup"]][["id_a", "id_b", "jaccard"]]
    dist = verify_jaccard_distributed(pairs, ds, threshold=0.5).to_pandas()
    a = local.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    b = dist.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_minhash_poly_sql_variant_recall(ray_session, docs_with_dups):
    """The SQL-mirrorable poly-minhash variant still finds the planted
    near-dups."""
    from osm_merge_ray.dedup.minhash import minhash_pairs_poly

    out = minhash_pairs_poly(rd.from_pandas(docs_with_dups)).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    exact_dups = {(0, 4), (1, 5), (2, 6), (3, 7)}  # fixture's exact copies
    assert exact_dups <= got, sorted(got)[:10]


def test_connected_components_chains_and_singletons(ray_session):
    """Min-label propagation must close multi-hop chains (A-B, B-C,
    C-D → one cluster) and keep singletons as their own cluster."""
    import pyarrow as pa

    from osm_merge_ray.dedup.cluster import (
        connected_components, dedup_keep_representatives)

    edges = pa.table({"id_a": pa.array([1, 2, 3, 10, 20], pa.int64()),
                      "id_b": pa.array([2, 3, 4, 11, 21], pa.int64())})
    nodes = pa.table({"doc_id": pa.array(list(range(1, 5)) + [10, 11, 20, 21, 99],
                                         pa.int64())})
    out = connected_components(rd.from_arrow(edges), rd.from_arrow(nodes)
                               ).to_pandas().set_index("doc_id")["cluster_id"]
    assert all(out[i] == 1 for i in (1, 2, 3, 4))   # 3-hop chain closed
    assert out[10] == 10 and out[11] == 10
    assert out[20] == 20 and out[21] == 20
    assert out[99] == 99                            # singleton
    docs = pa.table({"doc_id": nodes.column("doc_id"),
                     "text": pa.array([f"d{i}" for i in range(9)])})
    kept = dedup_keep_representatives(
        rd.from_arrow(docs),
        connected_components(rd.from_arrow(edges), rd.from_arrow(nodes)),
    ).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 10, 20, 99]


def test_audio_decode_stage(ray_session):
    """Audio actor stage: stand-in codec roundtrip exact, RFFT band
    features deterministic, real containers refuse honestly."""
    import pyarrow as pa
    import pytest

    from osm_merge_ray.audio.codec import band_energies, decode, encode, synth_pcm
    from osm_merge_ray.image.stages import AudioDecode

    pcm = synth_pcm(7, 16000)
    back, sr = decode(encode(pcm))
    assert sr == 16000 and np.array_equal(back, pcm)
    f1 = band_energies(pcm, sr)
    f2 = band_energies(pcm, sr)
    assert f1.shape == (16,) and np.array_equal(f1, f2)
    with pytest.raises(NotImplementedError):
        decode(b"RIFF" + b"\0" * 64)  # a real wav header refuses honestly

    t = pa.table({"audio_id": [f"a{i}" for i in range(8)],
                  "bytes": [encode(synth_pcm(i, 4000)) for i in range(8)]})
    out = AudioDecode()(t)
    assert out.column("decode_ok").to_pylist() == [True] * 8
    assert "bytes" not in out.column_names
    emb = out.column("audio_embedding").to_pylist()
    assert all(len(e) == 16 for e in emb)
    from osm_merge_ray.pipelines.queries import audio_decode_stats_q

    q = audio_decode_stats_q("/root/testdata/sf0.001").to_pandas()
    assert len(q) == 64 and q["decode_ok"].all()


def test_ivf_partitioned_index_equals_inmemory(ray_session, tmp_path):
    """The partitioned IVF index (hive partition per list, pruned at
    the file level) must return exactly what the in-memory ivf_topk
    computes with the same centroids — and must actually prune: only
    probed list partitions are read."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_merge_ray.sim.knn import ivf_build_index, ivf_query_index, ivf_topk

    t = pq.read_table("/root/testdata/sf0.01/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ds = rd.from_arrow(t)
    qdf = t.to_pandas().sort_values("vec_id").head(6)
    qm = np.vstack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
    qids = qdf["vec_id"].to_numpy()

    idx_dir = str(tmp_path / "ivf")
    cents = ivf_build_index(ds, idx_dir, n_centroids=8)
    got = ivf_query_index(idx_dir, qm, qids, k=5, nprobe=3).to_pandas()
    ref = ivf_topk(rd.from_arrow(t), qm, qids, k=5, n_centroids=8, nprobe=3,
                   distributed_train=True).to_pandas()
    cols = ["query_id", "neighbor_id", "sim", "rank"]
    a = got[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = ref[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    # pruning is real: the index has 8 list partitions on disk
    import os
    parts = [d for d in os.listdir(idx_dir) if d.startswith("list_id=")]
    assert len(parts) >= 2


def test_curation_checkpoint_resume_and_guard(docs_with_dups, tmp_path):
    import json

    from osm_merge_ray.pipelines.curation import run_curation_checkpointed

    train = rd.from_pandas(docs_with_dups[docs_with_dups["doc_id"] % 5 != 0])
    evals = rd.from_pandas(docs_with_dups[docs_with_dups["doc_id"] % 5 == 0])
    out = str(tmp_path / "cur")

    m1 = run_curation_checkpointed(train, evals, out)
    assert m1["stages_run"] == ["surv_ids", "survivors", "plan"]
    assert m1["plan_rows"] == m1["survivors"] > 0
    assert m1["buckets_done_now"] > 1 and m1["buckets_skipped"] == 0

    # full resume: nothing recomputes, same answer
    m2 = run_curation_checkpointed(train, evals, out)
    assert m2["stages_run"] == [] and m2["plan_rows"] == m1["plan_rows"]

    # lose the plan stage only -> exactly the plan is rebuilt
    import shutil
    shutil.rmtree(f"{out}/plan")
    man = json.load(open(f"{out}/_manifest/curation.json"))
    man["plan_done"] = False
    json.dump(man, open(f"{out}/_manifest/curation.json", "w"))
    m3 = run_curation_checkpointed(train, evals, out)
    assert m3["stages_run"] == ["plan"] and m3["plan_rows"] == m1["plan_rows"]

    # simulate a kill mid-survivors-stage: drop SOME bucket partitions
    # and their manifests, clear the stage flag — the resume must
    # recompute ONLY the missing buckets (r3 VERDICT #4)
    import os
    buckets = sorted(d for d in os.listdir(f"{out}/survivors")
                     if d.startswith("bucket="))
    killed = buckets[: max(1, len(buckets) // 3)]
    for d in killed:
        shutil.rmtree(f"{out}/survivors/{d}")
        os.remove(f"{out}/survivors/_manifest/{d}.json")
    man = json.load(open(f"{out}/_manifest/curation.json"))
    man["survivors_done"] = False
    json.dump(man, open(f"{out}/_manifest/curation.json", "w"))
    m4 = run_curation_checkpointed(train, evals, out)
    assert m4["stages_run"] == ["survivors", "plan"]
    assert m4["buckets_skipped"] == len(buckets) - len(killed)
    assert m4["buckets_done_now"] == len(killed)
    assert m4["plan_rows"] == m1["plan_rows"]
    assert m4["survivors"] == m1["survivors"]

    # changed params on the same dir must refuse (stale survivors)
    with pytest.raises(ValueError, match="different parameters"):
        run_curation_checkpointed(train, evals, out, max_len=512)

    # r3 ADVICE: changed train CONTENT at the same row count, and a
    # changed eval corpus, must both refuse (content signature in the
    # fingerprint, not just train row count)
    tmut = docs_with_dups[docs_with_dups["doc_id"] % 5 != 0].copy()
    tmut.iloc[0, tmut.columns.get_loc("text")] = "entirely different words"
    with pytest.raises(ValueError, match="different parameters"):
        run_curation_checkpointed(rd.from_pandas(tmut), evals, out)
    emut = docs_with_dups[docs_with_dups["doc_id"] % 5 == 0].copy()
    emut.iloc[0, emut.columns.get_loc("text")] = "mutated eval document"
    with pytest.raises(ValueError, match="different parameters"):
        run_curation_checkpointed(train, rd.from_pandas(emut), out)


def test_phash_hamming_neardup_real_images(ray_session):
    """r4: image near-dup end-to-end over REAL pixels — pHash each image
    (DCT, image/phash.py), then banded Hamming near-dup via the shared
    simhash band machinery. Planted pairs: a lossy re-encode of image k
    must pair with image k (hamming <= 6, cf. test_phash_properties);
    distinct-seed images must not."""
    import pandas as pd

    from osm_merge_ray.dedup.simhash import fingerprint_band_pairs
    from osm_merge_ray.image.codec import decode, encode, synth_pixels
    from osm_merge_ray.image.phash import phash64

    ids, fps = [], []
    for seed in range(12):
        px = synth_pixels(seed, 64, 64)
        ids.append(seed)
        fps.append(phash64(px))
        if seed % 3 == 0:  # planted near-dup: lossy re-encode
            ids.append(100 + seed)
            fps.append(phash64(decode(encode(px, "jpeg"))))
    ds = rd.from_arrow(pa.table({
        "image_id": pa.array(ids, pa.int64()),
        "phash": pa.array(np.array(fps, dtype=np.uint64).view(np.int64),
                          pa.int64()),
    }))
    pairs = fingerprint_band_pairs(ds, id_column="image_id",
                                   fp_column="phash", max_hamming=6,
                                   n_bits=64).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert {(s, 100 + s) for s in range(0, 12, 3)} <= got
    assert (pairs["hamming"] <= 6).all()
    # only planted (original, re-encode) pairs survive: distinct seeds
    # never sit within radius 6 of each other
    assert got == {(s, 100 + s) for s in range(0, 12, 3)}


def test_fingerprint_band_pairs_equals_bruteforce(ray_session):
    """Property: banded candidate generation + verify is EXACT for any
    radius <= num_bands - 1 — every pair of random fingerprints within
    the radius is emitted with its true hamming distance, none outside."""
    from osm_merge_ray.dedup.simhash import fingerprint_band_pairs
    from osm_merge_ray.image.phash import hamming64

    rng = np.random.default_rng(11)
    n = 300
    fps = rng.integers(0, 1 << 62, n, dtype=np.int64)
    # plant pairs at several distances around the radius boundary
    for j, flip_bits in enumerate([1, 3, 5, 6, 7, 9]):
        bits = rng.choice(62, size=flip_bits, replace=False)
        mask = np.bitwise_or.reduce((np.int64(1) << bits).astype(np.int64))
        fps[n - 1 - j] = fps[j] ^ mask
    ids = np.arange(n, dtype=np.int64)

    got = fingerprint_band_pairs(
        rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                "fp": pa.array(fps, pa.int64())})),
        id_column="doc_id", fp_column="fp", max_hamming=6,
        n_bits=64).to_pandas()
    got_pairs = {(a, b): h for a, b, h in
                 zip(got["id_a"], got["id_b"], got["hamming"])}

    ia, ib = np.triu_indices(n, k=1)
    ham = hamming64(fps[ia], fps[ib])
    want = {(int(a), int(b)): int(h)
            for a, b, h in zip(ia, ib, ham) if h <= 6}
    assert got_pairs == want
    assert len(want) >= 4  # the planted <=6-bit flips are in-radius


def test_presence_join_orphans(ray_session):
    """r4: presence_join = FULL OUTER JOIN as presence flags — exact
    orphan detection on both sides, duplicates collapsed."""
    from osm_merge_ray.ops import presence_join

    a = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2, 3, 3], pa.int64())}))
    b = rd.from_arrow(pa.table({"vec_id": pa.array([2, 3, 9], pa.int64())}))
    out = presence_join(a, b, key_a="doc_id", key_b="vec_id").to_pandas()
    got = {r.id: (bool(r.in_a), bool(r.in_b)) for r in out.itertuples()}
    assert got == {1: (True, False), 2: (True, True),
                   3: (True, True), 9: (False, True)}


def test_audio_fingerprint_neardup(ray_session):
    """r4: audio near-dup end-to-end — 60-bit adjacent-band fingerprint
    (audio/codec.audio_fingerprint) + the shared banded Hamming
    machinery. Gain-scaled copies fingerprint identically (monotone
    invariance); mildly noisy copies sit within a small radius;
    distinct signals stay far."""
    from osm_merge_ray.audio.codec import audio_fingerprint, synth_pcm
    from osm_merge_ray.dedup.simhash import fingerprint_band_pairs
    from osm_merge_ray.image.phash import hamming64

    rng = np.random.default_rng(4)
    ids, fps = [], []
    for seed in range(10):
        pcm = synth_pcm(seed, 16_000)
        ids.append(seed)
        fps.append(audio_fingerprint(pcm, 16_000))
        if seed % 2 == 0:  # planted: 0.7x gain -> identical fingerprint
            gain = (pcm.astype(np.float64) * 0.7).astype(pcm.dtype)
            ids.append(100 + seed)
            fps.append(audio_fingerprint(gain, 16_000))
        if seed % 5 == 0:  # planted: mild noise -> near fingerprint
            noisy = (pcm.astype(np.float64)
                     + rng.normal(0, 60, len(pcm))).astype(pcm.dtype)
            ids.append(200 + seed)
            fps.append(audio_fingerprint(noisy, 16_000))

    arr = np.array(fps, dtype=np.int64)
    assert all(arr[ids.index(100 + s)] == arr[ids.index(s)]
               for s in range(0, 10, 2))  # gain invariance, hamming 0
    for s in (0, 5):
        assert int(hamming64(arr[ids.index(200 + s)],
                             arr[ids.index(s)])) <= 8

    pairs = fingerprint_band_pairs(
        rd.from_arrow(pa.table({"audio_id": pa.array(ids, pa.int64()),
                                "fp": pa.array(arr, pa.int64())})),
        id_column="audio_id", fp_column="fp",
        max_hamming=8, n_bits=60).to_pandas()
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert {(s, 100 + s) for s in range(0, 10, 2)} <= got
    assert {(s, 200 + s) for s in (0, 5)} <= got
    # distinct-seed signals never pair
    assert not any(a < 100 and b < 100 for a, b in got)


def test_pii_redact(ray_session):
    """r4: PII redaction — every category redacts to its token with an
    accurate count, the known near-miss edges stay untouched, pattern
    ORDER prevents double-reporting (card is not two phones), and null
    text is tolerated."""
    from osm_merge_ray.text.redact import redact_pii

    texts = [
        "mail john.doe+spam@example.co.uk, card 4111 1111 1111 1111, "
        "ssn 123-45-6789",
        "call +1 (303) 555-0188 or 303.555.0199 or 3035550199 now",
        "server at 192.168.1.254 and 10.0.0.7; fake 999.999.1.1",
        "order 12345550199 should NOT redact; 555-0199 too short",
        None,
    ]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(5), pa.int64()),
                                 "text": pa.array(texts, pa.string())}))
    out = redact_pii(ds).sort("doc_id").to_pandas()
    assert out["text"][0] == "mail <EMAIL>, card <CARD>, ssn <SSN>"
    assert out["text"][1] == "call <PHONE> or <PHONE> or <PHONE> now"
    assert out["text"][2] == "server at <IP> and <IP>; fake 999.999.1.1"
    assert out["text"][3] == texts[3]  # near-misses untouched
    assert out["text"][4] == ""
    assert out["n_pii"].tolist() == [3, 3, 2, 0, 0]
    # order semantics: the card was consumed by <CARD>, not two phones
    assert out["n_card"][0] == 1 and out["n_phone"][0] == 0
    assert out[["n_email", "n_ssn", "n_ip"]].to_numpy().sum(axis=0).tolist() \
        == [1, 1, 2]


def test_bigram_lm_score(ray_session):
    """r4: bigram LM quality score — hand-computed MLE conditionals.
    Corpus: 'a b a b' + 'a b c' -> c(a b)=3, c(b a)=1, c(b c)=1,
    prefix counts c(a .)=3, c(b .)=2. Q = 2^20."""
    from osm_merge_ray.text.lm_score import Q_SCALE, bigram_lm_scores

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["a b a b", "a b c", "solo"],
    }))
    out = bigram_lm_scores(ds).sort("doc_id").to_pandas()
    # doc 3 has no bigram -> absent (perplexity undefined)
    assert out["doc_id"].tolist() == [1, 2]
    # doc1: 2*floor(Q*3/3) + 1*floor(Q*1/2); doc2: floor(Q*3/3)+floor(Q*1/2)
    assert out["lm_score"].tolist() == [2 * Q_SCALE + Q_SCALE // 2,
                                        Q_SCALE + Q_SCALE // 2]
    assert out["n_bigrams"].tolist() == [3, 2]
    assert out["avg_q20"].tolist() == [(2 * Q_SCALE + Q_SCALE // 2) // 3,
                                       (Q_SCALE + Q_SCALE // 2) // 2]


def test_mixture_plan(ray_session):
    """r4: mixture planner — hand-computed budgets. web: 10 tokens
    weight 1, wiki: 4 tokens weight 3 => W=4, budget 100:
    web target 25 (epochs 2.5 Q20), wiki target 75 (epochs 18.75)."""
    from osm_merge_ray.text.mixture import Q20, mixture_plan

    ds = rd.from_arrow(pa.table({
        "source": ["web", "web", "wiki"],
        "text": ["a b c d e", "f g h i j", "x y z w"],
    }))
    out = mixture_plan(ds, token_budget=100, weights={"wiki": 3})
    assert out["source"].tolist() == ["web", "wiki"]
    assert out["n_docs"].tolist() == [2, 1]
    assert out["n_tokens"].tolist() == [10, 4]
    assert out["weight"].tolist() == [1, 3]
    assert out["target_tokens"].tolist() == [25, 75]
    # upsampling: wiki must repeat 18.75x; web subsamples at 2.5x
    assert out["epochs_q20"].tolist() == [(Q20 * 25) // 10, (Q20 * 75) // 4]
    assert out["epochs_q20"][1] > Q20 > 0


def test_table_profile(ray_session):
    """r4: distributed per-column profiling — counts, null counts,
    type-aware min/max, -1 sentinels for non-applicable measures and
    for an ALL-null column."""
    from osm_merge_ray.profile import profile_table

    t = pa.table({
        "i": pa.array([5, None, 2, 9], pa.int64()),
        "s": pa.array(["ab", "", None, "wxyz"], pa.string()),
        "f": pa.array([1.5, -2.0, None, 0.0], pa.float64()),
        "dead": pa.array([None] * 4, pa.int64()),
    })
    out = profile_table(rd.from_arrow(t)).to_pandas().set_index("column")
    assert out.loc["i", ["n", "n_null", "min_i", "max_i"]].tolist() == \
        [4, 1, 2, 9]
    assert out.loc["s", ["n_null", "min_len", "max_len"]].tolist() == \
        [1, 0, 4]
    assert out.loc["f", ["min_f", "max_f"]].tolist() == [-2.0, 1.5]
    assert out.loc["f", "min_i"] == -1  # sentinel: not applicable
    assert out.loc["dead", ["n", "n_null", "min_i", "max_i"]].tolist() == \
        [4, 4, -1, -1]  # sentinel: all-null
    assert out.loc["i", ["min_f", "min_len"]].tolist() == [-1.0, -1]


def test_curation_redact_stage(ray_session, tmp_path):
    """r4: redact=True in curation — persisted survivors carry the
    REDACTED text (both the id stage and the per-bucket text
    re-derivation see the rewrite), the packing plan counts redacted
    tokens, and a redact-flag flip on the same outdir refuses."""
    import pyarrow.parquet as pq

    from osm_merge_ray.pipelines.curation import run_curation_checkpointed
    from osm_merge_ray.state.checkpoint import read_output

    train = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["good clean words here mail me a@b.co today",
                 "other normal document words without any pii at all"],
    }))
    evals = rd.from_arrow(pa.table({
        "doc_id": pa.array([900], pa.int64()),
        "text": ["completely unrelated evaluation content"]}))
    out = str(tmp_path / "cur")
    m = run_curation_checkpointed(train, evals, out, num_buckets=4,
                                  redact=True)
    assert m["survivors"] == 2
    surv = read_output(f"{out}/survivors").to_pandas().set_index("doc_id")
    assert "<EMAIL>" in surv.loc[1, "text"] and "a@b.co" not in surv.loc[1, "text"]
    # plan counts the REDACTED stream: '<EMAIL>' is one token like the
    # original address, so doc 1 keeps its 8 tokens
    plan = pq.read_table(f"{out}/plan").to_pandas().set_index("doc_id")
    assert plan.loc[1, "n_tokens"] == 8
    with pytest.raises(ValueError, match="fingerprint"):
        run_curation_checkpointed(train, evals, out, num_buckets=4,
                                  redact=False)


def test_table_profile_huge_int64(ray_session):
    """r4 review: int64 min/max beyond 2^53 must survive the combine
    exactly — the nullable-partial pandas round-trip used to corrupt
    them through float64 (phash / audio_fp / derived ids live there)."""
    from osm_merge_ray.profile import profile_table

    lo, hi = (1 << 62) + 12345, (1 << 62) + 99999
    ds = rd.from_arrow(pa.table({"h": pa.array([hi, lo], pa.int64())}))
    out = profile_table(ds).to_pandas().set_index("column")
    assert int(out.loc["h", "min_i"]) == lo
    assert int(out.loc["h", "max_i"]) == hi


def test_audio_fingerprint_bit_budget():
    """r4 review: a band count whose sign bits exceed 63 must raise
    up front instead of OverflowError-ing mid-decode."""
    from osm_merge_ray.audio.codec import audio_fingerprint

    pcm = np.sin(np.linspace(0, 100, 8000)).astype(np.float32)
    with pytest.raises(ValueError, match="<= 63"):
        audio_fingerprint(pcm, 8000, n_bands=24)
    assert audio_fingerprint(pcm, 8000, n_bands=16) >= 0


def test_quota_sample(ray_session):
    """r4: exact-k-per-group hash-rank sample — exact counts (min(k,n)
    per group), brute-force agreement, and block-layout invariance
    (the per-block top-k partial must not change the global answer)."""
    from osm_merge_ray.sampling import quota_sample
    from osm_merge_ray.sketch import kmv_mix

    ids = np.arange(1, 301, dtype=np.int64)
    grp = np.where(ids <= 4, "tiny", np.where(ids % 2 == 0, "even", "odd"))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "source": pa.array(grp.tolist())})

    def run(nblocks):
        ds = rd.from_arrow(t).repartition(nblocks)
        df = quota_sample(ds, "source", k=7).to_pandas()
        return df.sort_values(["source", "r"]).reset_index(drop=True)

    out = run(1)
    assert out.groupby("source")["doc_id"].count().to_dict() == \
        {"tiny": 4, "even": 7, "odd": 7}  # min(k, group size)
    # brute force: k smallest (mix, id) per group, rank 1..k
    import pandas as pd
    ref = pd.DataFrame({"source": grp, "doc_id": ids,
                        "h_mix": kmv_mix(ids)})
    ref = ref.sort_values(["source", "h_mix", "doc_id"])
    ref["r"] = ref.groupby("source").cumcount() + 1
    ref = ref[ref["r"] <= 7].reset_index(drop=True)
    assert out[["source", "doc_id", "h_mix"]].values.tolist() == \
        ref[["source", "doc_id", "h_mix"]].values.tolist()
    assert out["r"].tolist() == ref["r"].tolist()
    # layout invariance: 1, 5, 37 blocks give identical samples
    for nb in (5, 37):
        assert run(nb).equals(out)


def test_grouped_distinct_sketch(ray_session):
    """r4: per-group KMV — exact path (n < k) on a small group,
    estimator path on a big one, brute-force agreement, layout
    invariance."""
    from osm_merge_ray.sketch import grouped_distinct_sketch, kmv_mix
    from osm_merge_ray.util import POLY41_MOD

    k = 16
    # group "big": 500 users (estimator), "small": 7 users (exact);
    # duplicates planted so distinctness matters
    users = np.r_[np.arange(500), np.arange(500), np.arange(1000, 1007)]
    grp = ["big"] * 1000 + ["small"] * 7
    t = pa.table({"event_type": pa.array(grp),
                  "user_id": pa.array(users, pa.int64())})

    def run(nblocks):
        ds = rd.from_arrow(t).repartition(nblocks)
        return grouped_distinct_sketch(ds, "event_type", "user_id", k=k,
                                       include_exact=True)

    out = run(1).set_index("event_type")
    assert out.loc["small", "n_sketch"] == 7
    assert out.loc["small", "est_distinct"] == 7  # exact when not full
    assert out.loc["small", "n_distinct"] == 7
    assert out.loc["big", "n_sketch"] == k
    assert out.loc["big", "n_distinct"] == 500
    # brute force: k-th smallest distinct mixed hash of the big group
    hs = np.unique(kmv_mix(np.arange(500, dtype=np.int64)))
    kth = int(hs[k - 1])
    assert out.loc["big", "kth_min"] == kth
    assert out.loc["big", "est_distinct"] == (k - 1) * POLY41_MOD // kth
    # estimator lands in a sane band around 500
    assert 250 <= out.loc["big", "est_distinct"] <= 1000
    for nb in (5, 23):
        assert run(nb).equals(run(1))


def test_distinct_sketch_default_is_sketch_only_one_scan(ray_session):
    """r5 (verdict finding): the exact companion pass is OPT-IN — the
    default run scans the corpus exactly once per column and emits no
    n_distinct column (the exact pass ships every distinct key through
    the shuffle: corpus cardinality, defeating the sketch's bound)."""
    from osm_merge_ray.sketch import distinct_sketch, grouped_distinct_sketch

    class CountingDs:
        """Forwarding proxy: counts corpus scans kicked off directly
        on the input dataset (each map_batches call == one scan)."""
        def __init__(self, ds):
            self._ds = ds
            self.scans = 0

        def map_batches(self, *a, **kw):
            self.scans += 1
            return self._ds.map_batches(*a, **kw)

        def __getattr__(self, name):
            return getattr(self._ds, name)

    df = pd.DataFrame({"k": np.arange(5000, dtype=np.int64) % 700,
                       "g": ["a", "b"] * 2500})

    cds = CountingDs(rd.from_pandas(df))
    out = distinct_sketch(cds, ["k"], k=64)
    assert cds.scans == 1
    assert "n_distinct" not in out.columns
    assert out.loc[0, "n_sketch"] == 64       # sketch side intact

    cds = CountingDs(rd.from_pandas(df))
    gout = grouped_distinct_sketch(cds, "g", "k", k=16)
    assert cds.scans == 1
    assert "n_distinct" not in gout.columns
    assert set(gout["g"]) == {"a", "b"}
    # opting in adds exactly one more pass and the exact column
    cds = CountingDs(rd.from_pandas(df))
    gex = grouped_distinct_sketch(cds, "g", "k", k=16, include_exact=True)
    assert cds.scans == 2
    assert gex.set_index("g")["n_distinct"].to_dict() == {"a": 350, "b": 350}
    # sketch side identical with and without the exact pass
    assert gex[gout.columns].equals(gout)


def test_grouped_distinct_sketch_empty_block(ray_session):
    """r5 (advice): zero-row blocks (empty parquet files, upstream
    filters) must not crash the per-block partial."""
    from osm_merge_ray.sketch import grouped_distinct_sketch

    t = pa.table({"event_type": pa.array(["a"] * 40 + ["b"] * 20),
                  "user_id": pa.array(np.arange(60) % 9, pa.int64())})
    empty = t.slice(0, 0)
    ds = rd.from_arrow(t).union(rd.from_arrow(empty))
    out = grouped_distinct_sketch(ds, "event_type", "user_id", k=16,
                                  include_exact=True)
    assert out.set_index("event_type")["n_distinct"].to_dict() == \
        {"a": 9, "b": 9}
    ref = grouped_distinct_sketch(rd.from_arrow(t), "event_type",
                                  "user_id", k=16, include_exact=True)
    assert out.equals(ref)


def test_grouped_distinct_sketch_null_group(ray_session):
    """Null group values must raise loudly — factorize's -1 sentinel
    would silently alias them onto the last real group."""
    from osm_merge_ray.sketch import grouped_distinct_sketch

    t = pa.table({"event_type": pa.array(["a", None, "b"]),
                  "user_id": pa.array([1, 2, 3], pa.int64())})
    with pytest.raises(Exception, match="null values in group column"):
        grouped_distinct_sketch(rd.from_arrow(t), "event_type", "user_id")


def test_chunk_plan_semantics(ray_session):
    """r5: sliding-window chunk plan — full coverage, exact overlap,
    short-tail-only-last, single-chunk and empty-text edges, layout
    invariance."""
    from osm_merge_ray.text.chunking import chunk_plan

    texts = [
        " ".join(f"t{i}" for i in range(100)),  # 100 toks: 4 chunks
        " ".join(f"t{i}" for i in range(32)),   # == window: 1 chunk
        " ".join(f"t{i}" for i in range(33)),   # window+1: 2 chunks
        "solo",                                  # 1 token
        "",                                      # split('') -> [''] (1 tok)
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    W, O = 32, 8
    S = W - O

    def run(nb):
        return (chunk_plan(rd.from_arrow(t).repartition(nb), window=W,
                           overlap=O)
                .to_pandas().sort_values(["doc_id", "chunk_idx"])
                .reset_index(drop=True))

    out = run(1)
    for did, n in [(0, 100), (1, 32), (2, 33), (3, 1), (4, 1)]:
        g = out[out["doc_id"] == did]
        want_chunks = 1 + max(0, -(-(n - W) // S)) if n > W else 1
        assert len(g) == want_chunks, (did, len(g))
        assert list(g["chunk_idx"]) == list(range(want_chunks))
        assert list(g["start_tok"]) == [k * S for k in range(want_chunks)]
        # all but the last chunk are full; coverage is exact
        assert (g["n_toks"].iloc[:-1] == W).all()
        last = g.iloc[-1]
        assert last["start_tok"] + last["n_toks"] == n   # covers the tail
        if want_chunks > 1:  # consecutive chunks share exactly O tokens
            s0 = g["start_tok"].to_numpy()
            e0 = s0 + g["n_toks"].to_numpy()
            assert ((e0[:-1] - s0[1:]) == O).all()
    assert run(4).equals(out)

    with pytest.raises(ValueError, match="overlap"):
        chunk_plan(rd.from_arrow(t), window=8, overlap=8)


def test_aspect_bucket_assign(ray_session):
    """r5: integer-Q20 aspect bucketing — squares to (512,512), tall
    to tall buckets, extreme ARs to the edge buckets, ties to the
    lowest bucket id, and agreement with a float argmin oracle
    wherever the float metric is unambiguous."""
    from osm_merge_ray.image.aspect import (DEFAULT_BUCKETS,
                                            aspect_bucket_assign)

    cases = pa.table({
        "image_id": pa.array(range(6), pa.int64()),
        "w": pa.array([512, 700, 300, 1024, 320, 500], pa.int64()),
        "h": pa.array([512, 700, 600, 256, 832, 640], pa.int64()),
    })
    out = aspect_bucket_assign(rd.from_arrow(cases)).to_pandas() \
        .set_index("image_id")
    assert (out.loc[0, "bucket_w"], out.loc[0, "bucket_h"]) == (512, 512)
    assert (out.loc[1, "bucket_w"], out.loc[1, "bucket_h"]) == (512, 512)
    assert out.loc[2, "bucket_h"] > out.loc[2, "bucket_w"]   # tall
    assert (out.loc[4, "bucket_w"], out.loc[4, "bucket_h"]) == (320, 832)
    # float-oracle agreement on a random sweep (metric gaps >> Q20 eps)
    rng = np.random.default_rng(3)
    w = rng.integers(200, 1200, 300).astype(np.int64)
    h = rng.integers(200, 1200, 300).astype(np.int64)
    t = pa.table({"image_id": pa.array(range(300), pa.int64()),
                  "w": pa.array(w, pa.int64()),
                  "h": pa.array(h, pa.int64())})
    got = aspect_bucket_assign(rd.from_arrow(t)).to_pandas() \
        .sort_values("image_id")["bucket_id"].to_numpy()
    bw = np.array([b[0] for b in DEFAULT_BUCKETS], dtype=np.float64)
    bh = np.array([b[1] for b in DEFAULT_BUCKETS], dtype=np.float64)
    fm = np.abs(w[:, None] / h[:, None] - bw[None, :] / bh[None, :])
    want = fm.argmin(axis=1)
    srt = np.sort(fm, axis=1)
    clear = (srt[:, 1] - srt[:, 0]) > 1e-5   # skip float-ambiguous rows
    assert (got[clear] == want[clear]).all()


def test_bucket_batch_plan(ray_session):
    """r5: per-bucket hash-order batch plan — contiguous ranks per
    bucket, full batches except the tail, layout invariance, and the
    ordering is the kmv_mix hash order (not block arrival)."""
    from osm_merge_ray.image.aspect import bucket_batch_plan
    from osm_merge_ray.sketch import kmv_mix

    n = 200
    i = np.arange(n, dtype=np.int64)
    sz = np.array([320, 512, 640, 960], dtype=np.int64)
    t = pa.table({"image_id": pa.array(i, pa.int64()),
                  "w": pa.array(sz[i % 4], pa.int64()),
                  "h": pa.array(sz[(i // 4) % 4], pa.int64())})

    def run(nb):
        return (bucket_batch_plan(rd.from_arrow(t).repartition(nb),
                                  batch_size=8)
                .to_pandas().sort_values(["bucket_id", "rank"])
                .reset_index(drop=True))

    out = run(1)
    assert len(out) == n
    for bid, g in out.groupby("bucket_id"):
        assert list(g["rank"]) == list(range(len(g)))
        assert (g["batch_idx"] == g["rank"] // 8).all()
        # hash order: ranks sorted by kmv_mix(image_id)
        mixed = kmv_mix(g["image_id"].to_numpy().astype(np.int64))
        assert (np.diff(mixed) > 0).all()
    assert run(7).equals(out)


def test_grouped_distinct_sketch_large_string_group(ray_session):
    """r5 review: a large_string group column (polars-written parquet)
    with an empty block present must not feed mixed schemas into the
    groupby — partials cast to the input column's own type."""
    from osm_merge_ray.sketch import grouped_distinct_sketch

    t = pa.table({
        "event_type": pa.array(["a"] * 30 + ["b"] * 10,
                               pa.large_string()),
        "user_id": pa.array(np.arange(40) % 7, pa.int64()),
    })
    ds = rd.from_arrow(t).union(rd.from_arrow(t.slice(0, 0)))
    out = grouped_distinct_sketch(ds, "event_type", "user_id", k=16,
                                  include_exact=True)
    assert out.set_index("event_type")["n_distinct"].to_dict() == \
        {"a": 7, "b": 7}
