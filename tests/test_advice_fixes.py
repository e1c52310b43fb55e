"""Pins for the round-2 ADVICE fixes: id-range-safe pair dedup, trimmed
bbox-cover routing in local refinement, loud truncated-GeoJSON failure,
k>64 IVF partials, and the index-rebuild path guard."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd


def test_dedup_pairs_handles_ids_beyond_2_31():
    from osm_merge_ray.ops import dedup_pairs, pack_pair

    big = np.array([1 << 33, (1 << 33) + 5, 1 << 33, 7], dtype=np.int64)
    other = np.array([2, 3, 2, (1 << 40) + 1], dtype=np.int64)
    ua, ub, first = dedup_pairs(big, other)
    got = set(zip(ua.tolist(), ub.tolist()))
    assert got == {(1 << 33, 2), ((1 << 33) + 5, 3), (7, (1 << 40) + 1)}
    assert len(first) == 3
    # lexicographic (a, b) order
    assert list(ua) == sorted(ua)
    # the packed variant now enforces its documented precondition
    with pytest.raises(ValueError):
        pack_pair(big, other)


def test_lsh_pair_dedup_correct_with_large_ids(ray_session):
    """End-to-end: simhash candidate pairs stay correct when doc ids
    exceed 2^31 (previously silently corrupted by 31-bit packing)."""
    from osm_merge_ray.dedup.simhash import simhash_pairs

    base = 1 << 33
    texts = ["alpha beta gamma delta epsilon"] * 3 + ["zz yy xx ww vv"]
    t = pa.table({
        "doc_id": pa.array([base + i for i in range(4)], pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = simhash_pairs(rd.from_arrow(t), max_hamming=3).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    assert (base, base + 1) in got and (base, base + 2) in got
    assert all(a >= base and b >= base for a, b in got)


def test_local_refined_pairs_oversized_secondary_not_trimmed():
    """A secondary whose banded bbox cover exceeds the 64-cell/axis
    local cap must still pair with primaries near its FAR end (the
    clamp used to silently drop them)."""
    from osm_merge_ray.stages.partition import local_refined_pairs

    band = 50.0
    # ~20 km wide bbox at band resolution (~76 m cells) → cover ≫ 129
    # cells/axis; two primaries inside the band at opposite ends
    kp = np.zeros(2, dtype=np.int64)
    ks = np.zeros(1, dtype=np.int64)
    p_lon = np.array([-105.0, -104.82])
    p_lat = np.array([39.0, 39.0])
    s_x0 = np.array([-105.0])
    s_y0 = np.array([39.0])
    s_x1 = np.array([-104.82])
    s_y1 = np.array([39.0])
    pi, si = local_refined_pairs(kp, ks, p_lon, p_lat,
                                 s_x0, s_y0, s_x1, s_y1, band,
                                 pair_budget=1)
    got = set(zip(pi.tolist(), si.tolist()))
    assert got == {(0, 0), (1, 0)}


def test_parse_geojson_fragment_raises_on_truncation():
    from osm_merge_ray.sources.geojson import parse_geojson_fragment

    ok = (b'{"type": "Feature", "properties": {"a": 1}, '
          b'"geometry": {"type": "Point", "coordinates": [1.0, 2.0]}}')
    t = parse_geojson_fragment(ok + b", ", id0=0)
    assert t.num_rows == 1
    truncated = ok[:60]
    with pytest.raises(ValueError, match="overlap"):
        parse_geojson_fragment(truncated, id0=0)


def test_ivf_fixed_topk_k_above_batch_cap(ray_session):
    """k > 64 must not be silently truncated by the per-batch partial
    cap (previously a hardcoded 64)."""
    from osm_merge_ray.sim.knn import ivf_fixed_topk

    rng = np.random.default_rng(7)
    n, d, k = 120, 8, 70
    vecs = rng.normal(size=(n, d))
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs]),
    })
    q = vecs[:1]
    cents = vecs[:2]  # 2 lists, probe both → exhaustive
    out = ivf_fixed_topk(rd.from_arrow(t), q, np.array([0]), cents,
                         k=k, nprobe=2).to_pandas()
    assert len(out) == k
    sims = np.round(vecs @ q[0] / (np.linalg.norm(vecs, axis=1)
                                   * np.linalg.norm(q[0])), 6)
    sims[0] = -np.inf  # self excluded
    brute = set(np.argsort(-sims, kind="stable")[:k].tolist())
    assert set(out["neighbor_id"]) == brute


def test_ivf_build_index_refuses_foreign_dir(tmp_path):
    from osm_merge_ray.sim.knn import ivf_build_index

    d = tmp_path / "not_an_index"
    d.mkdir()
    (d / "precious.txt").write_text("do not delete")
    with pytest.raises(ValueError, match="refusing"):
        ivf_build_index(None, str(d))
    assert (d / "precious.txt").exists()


# ---- round-3 ADVICE fixes ----


def test_pagerank_multiblock_nodes_deduped(ray_session, tmp_path):
    """r3 ADVICE (high): K4 edges split across two parquet files made
    cmd_graph's per-batch np.unique emit duplicate node rows, inflating
    every rank join. pagerank_integer now enforces one-row-per-node."""
    import pandas as pd
    import pyarrow.parquet as pq

    from osm_merge_ray.cli import main as cli_main

    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    d = tmp_path / "edges"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame(k4[:3], columns=["id_a", "id_b"]),
        preserve_index=False), d / "p0.parquet")
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame(k4[3:], columns=["id_a", "id_b"]),
        preserve_index=False), d / "p1.parquet")

    out = tmp_path / "pr"
    assert cli_main(["graph", "-i", str(d), "-o", str(out),
                     "--method", "pagerank", "--iters", "2"]) == 0
    pr = pq.read_table(out).to_pandas()
    assert len(pr) == 4  # one row per node, not 12
    ranks = set(pr["pagerank_q20"])
    assert len(ranks) == 1  # K4 symmetric
    assert ranks.pop() < 2 * (1 << 20)  # sane magnitude, not inflated


def test_pack_sequences_empty_input(ray_session):
    """r3 ADVICE (low): pack_sequences crashed on an empty corpus
    (int(None) from counts.max). Now returns a valid empty plan."""
    from osm_merge_ray.text.packing import pack_sequences

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    plan = pack_sequences(empty, max_len=16)
    assert plan.count() == 0
    sch = plan.schema()
    assert set(sch.names) == {
        "doc_id", "n_tokens", "start_tok", "win_first", "win_last"}
    assert dict(zip(sch.names, sch.types))["doc_id"] == pa.int64()


def test_winnow_zero_selection_batch_typed(ray_session):
    """r3 ADVICE (low): a batch whose texts all winnow to zero
    selections emitted a null-typed id column that broke Arrow schema
    unification downstream. The empty path now types from the input."""
    from osm_merge_ray.dedup.winnow import _sel_rows, winnow_pairs

    empty_texts = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["", "ab"], pa.string()),  # both shorter than k
    })
    out = _sel_rows(empty_texts, k=5, window=4,
                    id_column="doc_id", text_column="text")
    assert len(out) == 0
    assert out.schema.field("doc_id").type == pa.int64()

    # end-to-end: a block of no-selection docs unioned with real docs
    # must survive the downstream groupby
    docs = rd.from_arrow([
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["", "x"], pa.string())}),
        pa.table({"doc_id": pa.array([3, 4], pa.int64()),
                  "text": pa.array(["the quick brown fox jumps over it",
                                    "the quick brown fox jumps over it"],
                                   pa.string())}),
    ])
    pairs = winnow_pairs(docs, threshold=0.5).to_pandas()
    assert set(zip(pairs["id_a"], pairs["id_b"])) == {(3, 4)}


def test_lineage_path_unifies_remote_scheme_and_local_symlinks(tmp_path):
    """pyarrow lists remote files without their scheme, Ray's
    include_paths keeps it: both spellings must get one frag id, and a
    local path still resolves symlinks."""
    from osm_merge_ray.pipelines.conflation import _frag_ids, _lineage_path

    remote = [_lineage_path(p, remote=True) for p in ("s3://b/k", "b/k")]
    assert remote == ["b/k", "b/k"]
    assert len(set(_frag_ids(remote).tolist())) == 1
    target = tmp_path / "part-0.parquet"
    target.write_bytes(b"")
    link = tmp_path / "link.parquet"
    link.symlink_to(target)
    local = [_lineage_path(str(link), remote=False),
             _lineage_path("file://" + str(target), remote=False)]
    assert local == [os.path.realpath(target)] * 2


def test_langid_null_text_predicts_und():
    """A null text is a row without markers, not a crash in the
    per-row token-count repeat."""
    import pandas as pd

    from osm_merge_ray.text.analysis import LangId

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["the cat is on the mat", None,
                                "el gato de la casa"]})
    assert LangId()(df)["lang_pred"].tolist() == ["en", "und", "es"]
