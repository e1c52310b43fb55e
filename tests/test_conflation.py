"""End-to-end conflation tests: engine (cell-sharded, vectorized) vs the
brute-force O(N*M) oracle, plus tiling, decode-verify and checkpoint
resume."""

import os
import shutil

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo.mercator import TileGrid
from osm_merge_ray.image.stages import DecodeVerify
from osm_merge_ray.pipelines.conflation import flagship, run_checkpointed
from osm_merge_ray.stages.conflate import conflate_datasets
from osm_merge_ray.state import checkpoint as CK
from osm_merge_ray.synth import synth_table

from tests.oracle import conflate_oracle

N = 600
CFG = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=200)

CMP_COLS = ["image_id", "matched_id", "decision", "hits", "dist_mm", "caption", "old_caption"]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    out = df[CMP_COLS].copy()
    for c in ("image_id", "matched_id", "decision", "caption", "old_caption"):
        out[c] = out[c].astype(object).where(pd.notna(out[c]), None)
    return out.sort_values("image_id").reset_index(drop=True)


@pytest.fixture(scope="module")
def sides():
    tp = synth_table(N, "primary", with_bytes=False)
    ts = synth_table(N, "secondary", with_bytes=False)
    return tp, ts


@pytest.fixture(scope="module")
def oracle_out(sides):
    tp, ts = sides
    return _norm(conflate_oracle(tp.to_pandas(), ts.to_pandas(), CFG))


def test_engine_matches_bruteforce_oracle(ray_session, sides, oracle_out):
    tp, ts = sides
    got = conflate_datasets(rd.from_arrow(tp), rd.from_arrow(ts), CFG).to_pandas()
    assert len(got) == N
    pd.testing.assert_frame_equal(_norm(got), oracle_out)


@pytest.mark.parametrize("entry", ["conflate_datasets", "run_checkpointed"])
def test_hot_cell_salting_is_semantically_invisible(ray_session, sides, oracle_out,
                                                    entry, tmp_path):
    """Skew splitting must not change any decision (hot_cell_rows=5
    forces heavy salting on the planted dense clusters), through the
    streaming sink and through the checkpointed match+tile+write sink."""
    tp, ts = sides
    cfg = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=5)
    if entry == "conflate_datasets":
        got = conflate_datasets(rd.from_arrow(tp), rd.from_arrow(ts), cfg).to_pandas()
    else:
        out_dir = str(tmp_path / "ckpt")
        run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), out_dir, cfg)
        got = CK.read_output(out_dir).to_pandas()
    assert len(got) == N
    pd.testing.assert_frame_equal(_norm(got), oracle_out)


def test_planted_categories_come_out_right(ray_session, sides):
    tp, ts = sides
    got = conflate_datasets(rd.from_arrow(tp), rd.from_arrow(ts), CFG).to_pandas()
    got["i"] = got["image_id"].str[1:].astype(int)
    cat = got.set_index("i")
    # exact duplicates (cat 0,1): matched to same index, duplicate
    sub = cat[cat.index % 10 <= 1]
    assert (sub["decision"] == "duplicate").mean() > 0.95
    # near-dups (2-5): merged with hits >= 2 to the planted partner
    sub = cat[(cat.index % 10 >= 2) & (cat.index % 10 <= 5)]
    matched = sub["matched_id"].dropna().str[1:].astype(int)
    assert (matched == matched.index).mean() > 0.95
    assert (sub["hits"] >= 2).mean() > 0.9
    # uniques (7-9): new
    sub = cat[cat.index % 10 >= 7]
    assert (sub["decision"] == "new").mean() > 0.95


def test_tile_assignment_matches_direct_projection(ray_session, sides):
    tp, ts = sides
    from osm_merge_ray.pipelines.conflation import default_grid
    from osm_merge_ray.stages.tiling import assign_tiles

    cfg = CFG
    grid = default_grid(cfg)
    out = assign_tiles(
        conflate_datasets(rd.from_arrow(tp), rd.from_arrow(ts), cfg),
        grid,
    ).to_pandas()
    exp = grid.tile_of_lonlat(out["lon"].to_numpy(), out["lat"].to_numpy())
    assert np.array_equal(out["tile_id"].to_numpy(), exp)
    assert out["tile_id"].nunique() > 10  # spread across the grid


def test_decode_verify_stage_direct():
    t = synth_table(64, "primary", with_bytes=True)
    out = DecodeVerify()(t)
    assert out.column("decode_ok").to_pylist() == [True] * 64
    assert out.column("dims_ok").to_pylist() == [True] * 64
    assert max(out.column("phash_dist").to_pylist()) == 0
    assert min(out.column("psnr_db").to_pylist()) >= 40.0
    assert "bytes" not in out.column_names


def test_flagship_smoke(ray_session):
    out = flagship(n_per_side=200, cfg=ConflationConfig(num_buckets=8)).to_pandas()
    assert len(out) == 200
    assert set(out["decision"].unique()) <= {"new", "merged", "duplicate"}
    assert "tile_id" in out.columns


def test_checkpoint_resume_equals_fresh_run(ray_session, sides, tmp_path):
    tp, ts = sides
    cfg = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=200)
    fresh_dir = str(tmp_path / "fresh")
    m1 = run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), fresh_dir, cfg)
    assert m1["rows_emitted"] == N
    fresh = CK.read_output(fresh_dir).to_pandas()

    # simulate a killed job: drop a third of the finished partitions
    resume_dir = str(tmp_path / "resumed")
    shutil.copytree(fresh_dir, resume_dir)
    buckets = sorted(CK.finished_buckets(resume_dir))
    for b in buckets[:: 3]:
        shutil.rmtree(os.path.join(resume_dir, f"bucket={b}"))
        os.remove(os.path.join(CK.manifest_dir(resume_dir), f"bucket={b}.json"))
    kept = len(CK.finished_buckets(resume_dir))
    assert kept < len(buckets)

    m2 = run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), resume_dir, cfg)
    assert m2["buckets_skipped"] == kept
    resumed = CK.read_output(resume_dir).to_pandas()
    pd.testing.assert_frame_equal(_norm(fresh), _norm(resumed))


def _snapshot(d: str) -> dict:
    return {os.path.join(r, f): os.stat(os.path.join(r, f)).st_mtime_ns
            for r, _, fs in os.walk(d) for f in fs}


def test_checkpoint_refuses_changed_config(ray_session, sides, tmp_path):
    """ADVICE r1: resuming against an out_dir written under a different
    ConflationConfig must refuse, not silently mix partitionings."""
    import pytest

    tp, ts = sides
    d = str(tmp_path / "ckpt")
    run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d,
                     ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=200))

    before = _snapshot(d)
    with pytest.raises(ValueError, match="different"):
        run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d,
                         ConflationConfig(cell_res=15, num_buckets=8, hot_cell_rows=200))
    # refused before the exchange: not one file written, replaced or removed
    assert _snapshot(d) == before


def test_bucket_rewrite_unfinishes_bucket_before_removing_rows(tmp_path, monkeypatch):
    """Rewriting a finished bucket (a retried task) removes its old rows
    before the new ones are renamed in; a kill in between must leave the
    bucket unfinished, so a resume rescores it instead of skipping it."""
    import pyarrow as pa

    d = str(tmp_path / "ckpt")
    t = pa.table({"x": [1, 2]})
    CK.write_bucket_partition(d, 3, t, input_rows=2, wall_s=0.0, cells=[7])
    assert CK.finished_buckets(d) == {3}
    real_rename = os.rename

    def killed(src, dst):
        if dst.endswith("bucket=3"):
            raise OSError("killed")
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", killed)
    with pytest.raises(OSError, match="killed"):
        CK.write_bucket_partition(d, 3, t, input_rows=2, wall_s=0.0, cells=[7])
    assert 3 not in CK.finished_buckets(d)


def test_checkpoint_refuses_older_partition_scheme(ray_session, sides, tmp_path,
                                                  monkeypatch):
    """Hot-cell rows move to other buckets when the partition rules
    change, so a resume against buckets written under an older scheme
    must refuse. The literal is the fingerprint that runs under the
    previous, unversioned partition rules recorded for this config."""
    import json

    from osm_merge_ray.stages import partition as P

    tp, ts = sides
    cfg = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=200)
    d = str(tmp_path / "ckpt")
    os.makedirs(CK.manifest_dir(d))
    with open(os.path.join(CK.manifest_dir(d), "run.json"), "w") as fh:
        json.dump({"config_fingerprint": "9a7d30b0b473f267", "input_rows": 2 * N}, fh)
    with pytest.raises(ValueError, match="partition scheme"):
        run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d, cfg)
    # the scheme version alone moves the fingerprint
    fp = CK.config_fingerprint(cfg)
    monkeypatch.setattr(P, "PARTITION_SCHEME", P.PARTITION_SCHEME + 1)
    assert CK.config_fingerprint(cfg) != fp


#: a config with hot cells at N rows, so the recorded plan has salts
CKPT_CFG = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=5)


@pytest.fixture(scope="module")
def fresh_ckpt(ray_session, sides, tmp_path_factory):
    """A finished checkpoint dir under ``CKPT_CFG`` and its output."""
    tp, ts = sides
    d = str(tmp_path_factory.mktemp("ckpt") / "fresh")
    run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d, CKPT_CFG)
    return d, CK.read_output(d).to_pandas()


def _lose_buckets(fresh_dir: str, d: str) -> str:
    """Copy a finished dir to ``d`` and drop every other bucket, as a
    killed run leaves it."""
    shutil.copytree(fresh_dir, d)
    for b in sorted(CK.finished_buckets(d))[::2]:
        shutil.rmtree(os.path.join(d, f"bucket={b}"))
        os.remove(os.path.join(CK.manifest_dir(d), f"bucket={b}.json"))
    return d


def test_checkpoint_run_manifest_records_plan(ray_session, sides, fresh_ckpt):
    """run.json holds the fresh run's partition plan; the salts read
    back with int cell keys after the JSON round trip."""
    from osm_merge_ray.stages import conflate as CF
    from osm_merge_ray.stages import partition as P

    tp, ts = sides
    union = CF.tag_side(rd.from_arrow(tp), 0).union(CF.tag_side(rd.from_arrow(ts), 1))
    plan = P.plan_partition(CF.light_rows(union, CKPT_CFG).materialize(), CKPT_CFG)
    stored = CK.run_plan(fresh_ckpt[0])
    assert plan.salts and stored == plan
    assert all(type(c) is int for c in stored.salts)


def test_checkpoint_resume_reuses_recorded_plan(ray_session, sides, fresh_ckpt,
                                                tmp_path, monkeypatch):
    """A resume buckets its rows with the plan in run.json: the driver's
    planning pass never runs, and the output equals the fresh run's."""
    from osm_merge_ray.stages import partition as P

    tp, ts = sides
    fresh_dir, fresh = fresh_ckpt
    d = _lose_buckets(fresh_dir, str(tmp_path / "resumed"))
    kept = len(CK.finished_buckets(d))

    def no_plan(*_a, **_k):
        raise AssertionError("a resume with a recorded plan planned again")

    monkeypatch.setattr(P, "plan_partition", no_plan)
    m = run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d, CKPT_CFG)
    assert m["buckets_skipped"] == kept
    pd.testing.assert_frame_equal(_norm(fresh), _norm(CK.read_output(d).to_pandas()))


def test_checkpoint_resume_refuses_changed_input_rows(ray_session, sides, fresh_ckpt,
                                                      tmp_path):
    """The recorded plan does not stand in for the row count: a resume
    over an input with one row fewer still refuses, writing nothing."""
    tp, ts = sides
    d = _lose_buckets(fresh_ckpt[0], str(tmp_path / "resumed"))
    before = _snapshot(d)
    with pytest.raises(ValueError, match="different input"):
        run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts.slice(1)), d, CKPT_CFG)
    assert _snapshot(d) == before


def test_checkpoint_resume_without_recorded_plan(ray_session, sides, fresh_ckpt,
                                                 tmp_path):
    """An out_dir whose run.json predates recorded plans plans again and
    resumes to the fresh output."""
    import json

    tp, ts = sides
    fresh_dir, fresh = fresh_ckpt
    d = _lose_buckets(fresh_dir, str(tmp_path / "resumed"))
    path = os.path.join(CK.manifest_dir(d), "run.json")
    with open(path) as fh:
        rec = json.load(fh)
    with open(path, "w") as fh:
        json.dump({k: rec[k] for k in ("config_fingerprint", "input_rows", "ts")}, fh)
    assert CK.run_plan(d) is None
    run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d, CKPT_CFG)
    pd.testing.assert_frame_equal(_norm(fresh), _norm(CK.read_output(d).to_pandas()))


def test_checkpoint_refuses_truncated_run_manifest(ray_session, sides, fresh_ckpt,
                                                   tmp_path):
    """A run.json that does not parse pins nothing (config, input, plan):
    the resume refuses, naming the file, and writes nothing."""
    tp, ts = sides
    d = _lose_buckets(fresh_ckpt[0], str(tmp_path / "resumed"))
    path = os.path.join(CK.manifest_dir(d), "run.json")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    before = _snapshot(d)
    with pytest.raises(ValueError, match="run.json"):
        run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), d, CKPT_CFG)
    assert _snapshot(d) == before


def test_resume_exchange_blocks_keep_their_schema(ray_session, sides, tmp_path):
    """A one-lost-bucket resume over several blocks per side: the blocks
    entering the bucket exchange are typed, so Ray's "different schema"
    warning (a schema-less empty block mixed into the sort-based groupby)
    is never logged, and the resume equals the fresh run."""
    import dataclasses
    import logging

    tp, ts = sides
    # one block per map task, so the tag map meets secondary-only blocks
    # and emits empty (typed) blocks for the exchange
    cfg = dataclasses.replace(CKPT_CFG, batch_size=N // 4)

    def blocks(t):
        return rd.from_arrow([t.slice(i * N // 4, N // 4) for i in range(4)])

    d = str(tmp_path / "ckpt")
    run_checkpointed(blocks(tp), blocks(ts), d, cfg)
    fresh = CK.read_output(d).to_pandas()
    lost = sorted(CK.finished_buckets(d))[0]
    shutil.rmtree(os.path.join(d, f"bucket={lost}"))
    os.remove(os.path.join(CK.manifest_dir(d), f"bucket={lost}.json"))

    warnings = []

    class Capture(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warnings.append(record.getMessage())

    handler = Capture()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        m = run_checkpointed(blocks(tp), blocks(ts), d, cfg)
    finally:
        logger.removeHandler(handler)
    assert warnings == []
    assert m["buckets_skipped"] == len(CK.finished_buckets(d)) - 1
    pd.testing.assert_frame_equal(_norm(fresh), _norm(CK.read_output(d).to_pandas()))


def test_empty_secondary_all_new(ray_session, sides):
    """Verify-skill probe: an empty secondary side → every primary is
    'new' (the no-candidate fallback, conflator.py:318-325)."""
    tp, _ = sides
    empty = synth_table(0, "secondary", with_bytes=False)
    out = conflate_datasets(rd.from_arrow(tp), rd.from_arrow(empty), CFG).to_pandas()
    assert len(out) == N
    assert (out["decision"] == "new").all()
    assert (out["matched_id"].isna()).all()


def test_derived_centroid_path(ray_session):
    """Verify-skill probe: inputs WITHOUT lon/lat columns take the
    derived-centroid path (hash of image_id) and still conflate —
    identical ids on both sides land at identical positions."""
    import pyarrow as pa

    tp = synth_table(100, "primary", with_bytes=False)
    tp = tp.drop_columns(["lon", "lat"])
    ts = synth_table(100, "primary", with_bytes=False).drop_columns(["lon", "lat"])
    out = conflate_datasets(rd.from_arrow(tp), rd.from_arrow(ts), CFG).to_pandas()
    assert len(out) == 100
    # same ids → same derived centroid + caption + phash → duplicates
    assert (out["decision"] == "duplicate").all()
    assert (out["dist_mm"] == 0).all()


def test_checkpoint_records_fragment_lineage(ray_session, tmp_path):
    """r4: feeding run_checkpointed through read_parquet_with_lineage
    records per-bucket input_fragments in the manifests plus a
    run-level frag->path map — the north-rule's per-partition lineage
    (cell range, input fragment ids, rows, metrics)."""
    import json
    import os

    from osm_merge_ray.pipelines.conflation import (
        read_parquet_with_lineage, run_checkpointed)
    from osm_merge_ray.synth import synth_dataset

    dirs = {}
    for side in ("primary", "secondary"):
        d = tmp_path / side
        synth_dataset(400, side, with_bytes=False,
                      parallelism=4).write_parquet(str(d))
        dirs[side] = str(d)

    p, pmap = read_parquet_with_lineage(dirs["primary"])
    s, smap = read_parquet_with_lineage(dirs["secondary"])
    fmap = {**pmap, **smap}
    out = str(tmp_path / "ck")
    m = run_checkpointed(p, s, out, ConflationConfig(num_buckets=16),
                         fragment_map=fmap)
    assert m["rows_emitted"] > 0

    man_dir = f"{out}/_manifest"
    stored = json.load(open(f"{man_dir}/fragments.json"))
    assert set(stored) == {str(k) for k in fmap}
    recs = [json.load(open(f"{man_dir}/{f}"))
            for f in os.listdir(man_dir) if f.startswith("bucket=")]
    assert recs and all("input_fragments" in r for r in recs)
    seen = {f for r in recs for f in r["input_fragments"]}
    assert seen <= set(fmap)      # every recorded frag resolves to a path
    assert len(seen) == len(fmap)  # all 8 input files fed some bucket


def test_lineage_path_normalization_symlink(ray_session, tmp_path):
    """r5 (advice): frag ids from Ray's include_paths strings and the
    run-level map from pyarrow.dataset files must agree even when the
    input is addressed through a symlink — both sides normalize with
    realpath, and add_frag RAISES on any id missing from the map
    instead of writing dangling lineage."""
    import os

    from osm_merge_ray.pipelines.conflation import read_parquet_with_lineage
    from osm_merge_ray.synth import synth_dataset

    real = tmp_path / "real_input"
    synth_dataset(100, "primary", with_bytes=False,
                  parallelism=3).write_parquet(str(real))
    link = tmp_path / "linked_input"
    os.symlink(str(real), str(link))

    ds, fmap = read_parquet_with_lineage(str(link))
    # the map stores canonical (realpath) spellings
    assert all(p.startswith(str(real)) for p in fmap.values())
    frags = set(ds.to_pandas()["frag"])
    assert frags and frags <= set(fmap)  # every row id resolves


def _frag_table(tmp_path, chunks):
    """A block with a ``path`` column over 3 files, one record batch per
    entry of ``chunks`` (file indices), and those files."""
    import pyarrow as pa

    files = [str(tmp_path / f"part-{k}.parquet") for k in range(3)]
    batches = [pa.record_batch({"x": pa.array(range(len(c)), pa.int64()),
                                "path": pa.array([files[k] for k in c])})
               for c in chunks]
    return pa.Table.from_batches(batches), files


CHUNKS = [[0, 1, 0, 2], [2, 2, 1, 0, 1]]


def test_add_frag_ids_equal_per_row_rule(tmp_path):
    """Frag ids from the per-distinct-path gather equal the per-row rule
    ``_frag_ids([_lineage_path(p) for p in paths])``, row by row, over a
    column of 2 chunks."""
    from osm_merge_ray.pipelines.conflation import _frag_ids, _lineage_path, add_frag

    t, files = _frag_table(tmp_path, CHUNKS)
    paths = t.column("path").to_pylist()
    known = frozenset(_frag_ids([_lineage_path(f, False) for f in files]).tolist())
    out = add_frag(t, remote=False, known=known)
    want = _frag_ids([_lineage_path(p, False) for p in paths])
    assert out.column("frag").to_numpy().tolist() == want.tolist()
    assert out.column_names == ["x", "frag"]


def test_add_frag_normalizes_each_distinct_path_once(tmp_path, monkeypatch):
    """``_lineage_path`` (a ``realpath`` syscall per call) runs once per
    distinct file of the block, not once per row."""
    from osm_merge_ray.pipelines import conflation as PC

    t, files = _frag_table(tmp_path, CHUNKS)
    known = frozenset(PC._frag_ids([PC._lineage_path(f, False) for f in files]).tolist())
    seen = []
    real = PC._lineage_path
    monkeypatch.setattr(PC, "_lineage_path", lambda p, remote: seen.append(p) or real(p, remote))
    PC.add_frag(t, remote=False, known=known)
    assert sorted(seen) == files  # 3 calls for 9 rows


def test_add_frag_raises_on_unknown_path(tmp_path):
    from osm_merge_ray.pipelines.conflation import _frag_ids, _lineage_path, add_frag

    t, files = _frag_table(tmp_path, CHUNKS)
    known = frozenset(_frag_ids([_lineage_path(f, False) for f in files[:2]]).tolist())
    with pytest.raises(ValueError, match="not present in the run-level fragment map") as e:
        add_frag(t, remote=False, known=known)
    assert _lineage_path(files[2], False) in str(e.value)
