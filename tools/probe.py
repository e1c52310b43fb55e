"""Scale probes: named measurements of single operators and compositions
at 20-1000x the bench scale (the figures are recorded in BASELINE.md),
plus in-process probes of hot kernels (``decode_verify``) that run
without Ray.

Each probe builds its own deterministic synthetic input, times the
operator, asserts the invariant that makes the timing meaningful (exact
prefix scan, planted duplicates found, resume redoes only the lost
buckets, ...) and returns its measurements as rows. ``main`` owns the
one Ray session (started only when a named probe needs it) and prints
each row as one JSON line.

    python tools/probe.py --list
    python tools/probe.py NAME [NAME ...] [--n N]

``--n`` overrides every named probe's default size (2M docs; 500k for
``bigram_lm``; 2,000 rows for ``decode_verify``); derived sizes
(vectors, footprints, rows per side) scale from it as each probe
documents. Env: ``RAY_GRAFT_CPUS`` (default 32, as ``bench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import ray.data as rd  # noqa: E402

from osm_merge_ray.config import ConflationConfig  # noqa: E402
from osm_merge_ray.util import splitmix64  # noqa: E402

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

#: probe name -> fn(n) -> measurement rows; filled by ``@probe``
PROBES: dict = {}
DEFAULT_N: dict[str, int] = {}
#: probes that measure a kernel in-process, without a Ray session
IN_PROCESS: set[str] = set()


def probe(default_n: int = 2_000_000, ray: bool = True):
    """Register ``fn(n) -> rows`` under its name; ``default_n`` when no
    --n; ``ray=False`` for an in-process kernel probe."""
    def register(fn):
        PROBES[fn.__name__] = fn
        DEFAULT_N[fn.__name__] = default_n
        if not ray:
            IN_PROCESS.add(fn.__name__)
        return fn
    return register


def run(name: str, n: int | None = None) -> list[dict]:
    """Run one probe at ``n`` (its default when None); every row starts
    with ``probe`` and ``n``. Needs a live Ray session unless the probe
    is in ``IN_PROCESS``."""
    n = DEFAULT_N[name] if n is None else n
    return [{"probe": name, "n": n, **row} for row in PROBES[name](n)]


def _timed(thunk):
    t0 = time.perf_counter()
    out = thunk()
    return out, round(time.perf_counter() - t0, 3)


WORDS = np.array([f"w{i:03d}" for i in range(500)])


def doc_texts(ids: np.ndarray, near_dups: bool = False,
              pii: bool = False) -> list[str]:
    """Text of each doc id: 12 words of a 500-word vocabulary picked by
    splitmix64(id * 2654435761 + word index) — low-entropy like web
    boilerplate, deterministic per id. ``near_dups``: every id % 100 == 1
    doc copies id-1's text (1% planted duplicate mass). ``pii``: a
    planted e-mail on id % 4 == 0, phone on id % 8 == 1, IPv4 on
    id % 8 == 5."""
    src = np.where(ids % 100 == 1, ids - 1, ids) if near_dups else ids
    h = splitmix64(src.astype(np.uint64)[:, None] * np.uint64(2654435761)
                   + np.arange(12, dtype=np.uint64)[None, :])
    texts = [" ".join(w) for w in WORDS[(h % 500).astype(np.int64)]]
    if pii:
        for j, i in enumerate(ids.tolist()):
            if i % 4 == 0:
                texts[j] += f" contact u{i}@example.com"
            if i % 8 == 1:
                texts[j] += f" call 303-555-{i % 10000:04d}"
            if i % 8 == 5:
                texts[j] += f" host 10.0.{i % 256}.{i % 254 + 1}"
    return texts


def docs(n: int, blocks: int = 64, start: int = 0, **text_opts):
    """Lazy (doc_id, text) dataset of ids ``start .. start+n-1``."""
    def make(batch):
        ids = batch["id"].to_numpy().astype(np.int64) + start
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(doc_texts(ids, **text_opts),
                                          pa.string())})

    return rd.range(n, override_num_blocks=blocks).map_batches(
        make, batch_format="pyarrow")


@probe(default_n=2000, ray=False)
def decode_verify(n):
    """``DecodeVerify`` in-process on ``synth.make_batch`` blocks of up to
    1,000 primary rows (all 9 shapes, both formats): µs/row as the best
    of 5 passes per block, summed. It runs as ``VerifiedDecode``, which
    raises on any row that fails a check, so the timing is never of a
    failure path."""
    from osm_merge_ray.image.stages import VerifiedDecode
    from osm_merge_ray.synth import make_batch

    dv = VerifiedDecode()
    total = 0.0
    for ids in np.array_split(np.arange(n), max(1, -(-n // 1000))):
        t = make_batch(ids, "primary")
        total += min(_timed(lambda: dv(t))[1] for _ in range(5))
    return [{"us_per_row": round(total / n * 1e6, 1)}]


@probe()
def pack_sequences(n):
    from osm_merge_ray.text.packing import pack_sequences as pack

    d = docs(n).materialize()
    plan, w = _timed(lambda: pack(d, max_len=2048).materialize())
    total = plan.sum("n_tokens")
    last = plan.sort("start_tok", descending=True).limit(1).take_all()[0]
    # the two-level prefix scan is exact: last start + length == total
    assert last["start_tok"] + last["n_tokens"] == total
    return [{"wall_s": w, "docs_per_s": round(n / w),
             "total_tokens": total, "max_start": last["start_tok"]}]


@probe()
def incremental_dedup(n):
    """Corpus n vs a batch of n/10 fresh docs plus n/1000 re-ingests:
    the Bloom prefilter must ship almost nothing for a dup-scarce batch."""
    from osm_merge_ray.dedup.incremental import incremental_dedup as inc

    corpus = docs(n).materialize()
    k = n // 10
    batch = corpus.limit(k // 100).union(
        docs(k, blocks=16, start=10 * n)).materialize()
    flags, w = _timed(
        lambda: inc(batch, corpus, corpus_rows=n).materialize())
    n_dup = flags.sum("is_dup")
    assert n_dup == k // 100
    return [{"wall_s": w, "batch": batch.count(), "dups_flagged": n_dup}]


@probe()
def semdedup(n):
    """SemDeDup production path on min(n/4, 500k) vectors: 64 trained
    centroids, then in-cluster pairs at cosine >= .999."""
    from osm_merge_ray.sim.knn import train_centroids_distributed
    from osm_merge_ray.sim.semdedup import semantic_dedup_pairs

    nv = min(n // 4, 500_000)

    def make_vecs(batch):
        ids = batch["id"].to_numpy().astype(np.int64)
        # 16 latent archetypes + small deterministic noise; every 100th
        # vector is a planted near-clone of its predecessor
        base_id = np.where(ids % 100 == 99, ids - 1, ids)
        h = splitmix64(base_id.astype(np.uint64)[:, None] * np.uint64(97)
                       + np.arange(32, dtype=np.uint64)[None, :])
        arch = splitmix64((base_id % 16).astype(np.uint64)[:, None]
                          * np.uint64(131) + np.arange(32, dtype=np.uint64))
        v = (arch % 1000).astype(np.float64) + 0.4 * (h % 1000).astype(np.float64)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": pa.array(list(v), pa.list_(pa.float64()))})

    vecs = rd.range(nv, override_num_blocks=64).map_batches(
        make_vecs, batch_format="pyarrow").materialize()
    cents, t_train = _timed(lambda: train_centroids_distributed(vecs, 64))
    sd, t_sd = _timed(lambda: semantic_dedup_pairs(
        vecs, cents, threshold=0.999).materialize())
    pairs = sd.count()
    assert pairs >= nv // 100  # every planted clone is found
    return [{"step": "train", "wall_s": t_train, "vectors": nv},
            {"step": "pairs", "wall_s": t_sd, "vectors": nv,
             "vecs_per_s": round(nv / t_sd), "pairs": pairs}]


@probe()
def winnow(n):
    """Capped winnow pairs (MOSS df cap 50) on min(n/10, 200k) docs of
    the low-entropy corpus: pair generation must stay bounded."""
    from osm_merge_ray.dedup.winnow import winnow_pairs

    wn = min(n // 10, 200_000)
    sub = docs(n).limit(wn).materialize()
    pairs, w = _timed(lambda: winnow_pairs(
        sub, threshold=0.2, max_df=50).materialize())
    return [{"wall_s": w, "docs": wn, "docs_per_s": round(wn / w),
             "pairs": pairs.count()}]


@probe()
def redact_pii(n):
    """RE2 redaction with ~25% of docs carrying planted PII (misses are
    the cheap path, so an all-clean corpus would flatter it); consumed
    by an aggregate so nothing materializes driver-side."""
    from osm_merge_ray.text.redact import redact_pii as redact

    n_pii, w = _timed(lambda: redact(docs(n, pii=True)).sum("n_pii"))
    assert n_pii == len(range(0, n, 4)) + len(range(1, n, 8)) + len(range(5, n, 8))
    return [{"wall_s": w, "docs_per_s": round(n / w), "planted_hits": n_pii}]


@probe(default_n=500_000)
def bigram_lm(n):
    """The heaviest text shape: one bigram explode (~11 rows/doc), two
    grouped count tables, two corpus x corpus bucketed joins, one
    grouped per-doc sum."""
    from osm_merge_ray.text.lm_score import bigram_lm_scores

    scored, w = _timed(lambda: bigram_lm_scores(docs(n)).count())
    return [{"wall_s": w, "docs_per_s": round(n / w), "scored_rows": scored}]


@probe()
def quota_sample(n):
    """Exact k=16 per group over min(10k, n/64) groups: the per-block
    partial prunes to groups-in-block x k rows before the shuffle, so
    the corpus never crosses the exchange. Group g0 is planted with 5
    rows."""
    from osm_merge_ray.sampling import quota_sample as sample

    k = 16
    n_groups = min(10_000, n // (4 * k))

    def make(batch):
        ids = batch["id"].to_numpy().astype(np.int64)
        g = np.where(ids < 5, 0, 1 + ids % np.int64(n_groups - 1))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "source": pa.array([f"g{v}" for v in g.tolist()])})

    ds = rd.range(n, override_num_blocks=64).map_batches(
        make, batch_format="pyarrow")
    counts, w = _timed(lambda: sample(ds, "source", k=k, id_column="doc_id")
                       .groupby("source").count().to_pandas())
    assert int(counts.loc[counts["source"] == "g0", "count()"].iloc[0]) == 5
    assert int(counts["count()"].max()) == k
    return [{"wall_s": w, "groups": n_groups, "k": k,
             "kept": int(counts["count()"].sum()),
             "rows_per_s": round(n / w)}]


@probe()
def bpe_train(n):
    """Distributed BPE merge-training is vocabulary-bounded: driver-local
    rounds, then forced distributed rounds, which must give the same
    merge table."""
    from osm_merge_ray.text.bpe import train_bpe_distributed

    d = docs(n).materialize()
    merges, t_local = _timed(
        lambda: train_bpe_distributed(d, n_merges=10, num_buckets=64))
    m2, t_dist = _timed(lambda: train_bpe_distributed(
        d, n_merges=10, num_buckets=64, driver_max_words=0))
    assert m2.equals(merges)
    top = merges.iloc[0]
    return [{"step": "local", "wall_s": t_local, "docs_per_s": round(n / t_local),
             "merges": len(merges), "top": [top["a"], top["b"]],
             "top_count": top["pair_count"]},
            {"step": "distributed", "wall_s": t_dist,
             "docs_per_s": round(n / t_dist)}]


@probe()
def table_profile(n):
    from osm_merge_ray.profile import profile_table

    d = docs(n).materialize()
    prof, w = _timed(lambda: profile_table(d).to_pandas())
    assert len(prof) == 2  # doc_id, text
    return [{"wall_s": w, "rows_per_s": round(n / w), "columns": len(prof)}]


@probe()
def grouped_distinct(n):
    """Grouped KMV sketch over 20 groups with ~n/2 distinct users:
    sketch-only vs the opt-in exact pass, which ships ~n rows."""
    from osm_merge_ray.sketch import grouped_distinct_sketch

    def make_ev(batch):
        ids = batch["id"].to_numpy().astype(np.int64)
        return pa.table({
            "event_type": pa.array((ids % 20).astype(np.int64)),
            "user_id": pa.array(ids * 7 % (n // 2), pa.int64()),
        })

    ev = rd.range(n, override_num_blocks=64).map_batches(
        make_ev, batch_format="pyarrow").materialize()
    sk, t_sk = _timed(
        lambda: grouped_distinct_sketch(ev, "event_type", "user_id", k=64))
    ex, t_ex = _timed(lambda: grouped_distinct_sketch(
        ev, "event_type", "user_id", k=64, include_exact=True))
    err = float(np.abs(sk["est_distinct"].to_numpy()
                       / np.maximum(ex["n_distinct"].to_numpy(), 1)
                       - 1.0).max())
    return [{"step": "sketch", "wall_s": t_sk, "rows_per_s": round(n / t_sk)},
            {"step": "exact", "wall_s": t_ex, "x_sketch": round(t_ex / t_sk, 2),
             "max_est_err": round(err, 4)}]


@probe()
def substring_decontaminate(n):
    """Exact-substring report (min_len 24) of n train docs against 2,000
    eval docs whose texts are train docs 0..1999."""
    from osm_merge_ray.text.decontaminate import substring_contamination_report

    train = docs(n).materialize()
    evals = docs(2000, blocks=4).materialize()
    rep, w = _timed(lambda: substring_contamination_report(
        train, evals, min_len=24).materialize())
    flagged = rep.count()
    assert flagged >= min(n, 2000)
    return [{"wall_s": w, "docs_per_s": round(n / w), "flagged": flagged}]


def _footprints(m: int, start_id: int, off: float = 0.0) -> pa.Table:
    rng = np.random.default_rng(11)
    lon = -106.0 + rng.uniform(0, 2.0, m)
    lat = 38.5 + rng.uniform(0, 2.0, m)
    wdt = 0.0002
    rings = [json.dumps([[x + off, y + off], [x + wdt + off, y + off],
                         [x + wdt + off, y + wdt + off], [x + off, y + wdt + off]])
             for x, y in zip(lon.tolist(), lat.tolist())]
    return pa.table({
        "feature_id": pa.array(np.arange(m) + start_id, pa.int64()),
        "coords_json": pa.array(rings, pa.string())})


@probe()
def polygon_giants(n):
    """min(n/20, 100k) vs as many footprints, then again with 10
    three-degree convex rings on the secondary side, which self-split."""
    from osm_merge_ray.stages.overlap import polygon_overlap_pairs

    m = min(n // 20, 100_000)
    tp = _footprints(m, 0)
    ts = _footprints(m, 1_000_000, off=0.0001)
    ang = np.linspace(0, 2 * np.pi, 7)[:-1]
    tg = pa.table({
        "feature_id": pa.array(np.arange(10) + 2_000_000, pa.int64()),
        "coords_json": pa.array(
            [json.dumps(np.c_[1.5 * np.cos(ang) - 105.0 + 0.01 * g,
                              1.2 * np.sin(ang) + 39.5].tolist())
             for g in range(10)], pa.string())})
    cfg = ConflationConfig(cell_res=12, num_buckets=64)

    def overlap(secondary):
        return polygon_overlap_pairs(rd.from_arrow(tp).repartition(32),
                                     rd.from_arrow(secondary).repartition(32),
                                     cfg).materialize().count()

    base, t_fast = _timed(lambda: overlap(ts))
    split, t_split = _timed(lambda: overlap(pa.concat_tables([ts, tg])))
    assert split >= base
    return [{"step": "fast", "wall_s": t_fast, "footprints": m, "pairs": base},
            {"step": "giants", "wall_s": t_split, "footprints": m,
             "pairs": split}]


@probe()
def flagship_5x(n):
    """conflate_parquet (decode + tile + write) at min(n/4, 500k) rows
    per side; the inputs are cached under /tmp/graft_bench/n<rows>, the
    cache ``bench.py`` shares."""
    import pyarrow.parquet as pq

    from osm_merge_ray.pipelines.conflation import conflate_parquet
    from osm_merge_ray.synth import synth_dataset

    n5 = min(n // 4, 500_000)
    data_dir = f"/tmp/graft_bench/n{n5}"
    for side in ("primary", "secondary"):
        d = f"{data_dir}/{side}"
        if not os.path.isdir(d) or not os.listdir(d):
            os.makedirs(d, exist_ok=True)
            synth_dataset(n5, side, with_bytes=True,
                          parallelism=64).write_parquet(d)
    rd.read_parquet(f"{data_dir}/primary").count()
    with tempfile.TemporaryDirectory() as out:
        _, w = _timed(lambda: conflate_parquet(
            f"{data_dir}/primary", f"{data_dir}/secondary",
            cfg=ConflationConfig(num_buckets=128),
            decode_images=True, out_dir=out))
        rows = pq.read_table(out, columns=["decision"]).num_rows
    return [{"wall_s": w, "rows_per_side": n5, "rows": rows,
             "rows_per_s": round(rows / w)}]


@probe()
def curate_resume(n):
    """The composed checkpointed curation (quality -> jaccard cluster ->
    representatives -> decontaminate -> per-bucket survivors -> pack) on
    a corpus with 1% planted near-dups and 2,000 eval docs equal to train
    docs 0..1999; then a third of the survivor buckets is deleted and the
    resume must redo exactly those."""
    from osm_merge_ray.pipelines.curation import run_curation_checkpointed

    train = docs(n, near_dups=True).materialize()
    eval_ids = np.arange(2000, dtype=np.int64)
    evals = rd.from_arrow(pa.table({
        "doc_id": pa.array(eval_ids + 10 * n, pa.int64()),
        "text": pa.array(doc_texts(eval_ids), pa.string())})).materialize()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        m1, t_fresh = _timed(
            lambda: run_curation_checkpointed(train, evals, str(out)))
        assert m1["plan_rows"] == m1["survivors"] > 0
        # the planted dup mass and the eval overlap must be removed
        assert m1["survivors"] < n

        # simulated mid-stage kill: drop a third of the survivor buckets
        buckets = sorted(d.name for d in (out / "survivors").iterdir()
                         if d.name.startswith("bucket="))
        killed = buckets[: len(buckets) // 3]
        for d in killed:
            shutil.rmtree(out / "survivors" / d)
            (out / "survivors" / "_manifest" / f"{d}.json").unlink()
        man_path = out / "_manifest" / "curation.json"
        man = json.loads(man_path.read_text())
        man["survivors_done"] = False
        man_path.write_text(json.dumps(man))

        m2, t_resume = _timed(
            lambda: run_curation_checkpointed(train, evals, str(out)))
    assert m2["stages_run"] == ["survivors", "plan"]
    assert m2["buckets_done_now"] == len(killed)
    assert m2["buckets_skipped"] == len(buckets) - len(killed)
    assert m2["survivors"] == m1["survivors"]
    assert m2["plan_rows"] == m1["plan_rows"]
    return [{"step": "fresh", "wall_s": t_fresh, "docs_per_s": round(n / t_fresh),
             "survivors": m1["survivors"], "plan_rows": m1["plan_rows"],
             "buckets": m1["buckets_done_now"]},
            {"step": "resume", "wall_s": t_resume, "buckets_lost": len(killed),
             "share_of_fresh": round(t_resume / t_fresh, 3)}]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME")
    ap.add_argument("--n", type=int, help="size for every named probe")
    ap.add_argument("--list", action="store_true", help="print the probe names")
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(PROBES))
        return 0
    unknown = [x for x in args.names if x not in PROBES]
    if unknown:
        ap.error(f"unknown probe(s) {unknown}; see --list")
    if not args.names:
        ap.error("name at least one probe; see --list")

    use_ray = not IN_PROCESS.issuperset(args.names)
    if use_ray:
        # Ray actor workers must import the package: export before ray.init
        os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")
        import ray

        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    try:
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_operator_progress_bars = False
        for name in args.names:
            for row in run(name, args.n):
                row.update(cpus=1 if name in IN_PROCESS else NUM_CPUS,
                           loadavg=round(os.getloadavg()[0], 2))
                # numpy scalars (Dataset sums, DataFrame cells) -> Python
                print(json.dumps(row, default=lambda v: v.item()), flush=True)
    finally:
        if use_ray:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
