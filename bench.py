"""Benchmark harness.

``python bench.py``            one JSON line with headline + per-query seconds
``python bench.py --scaling``  flagship at 4 and 16 CPUs in fresh
                               processes (best-of-2 legs) → throughputs
                               + scaling efficiency

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32),
     GRAFT_BENCH_N (conflation rows per side; default scales with sf).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

_REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _bench_queries():
    """(name, thunk) pairs for the per-query timings."""
    from osm_merge_ray.pipelines import queries as Q

    def consume(res):
        if hasattr(res, "materialize"):
            res.materialize()
        return res

    names = [
        "spatial_distance_join", "spatial_conflate",
        "dedup_exact", "dedup_minhash_lsh", "dedup_ngram_jaccard",
        "knn_cosine_topk", "text_quality_score",
        "dedup_embedding_lsh", "dedup_simhash", "text_fingerprint",
        "knn_ivf", "dedup_winnow", "dedup_semantic", "dedup_representatives",
        "text_pack_sequences", "dedup_phash_hamming", "text_inverted_index",
        "multimodal_integrity", "text_pii_redact", "text_lm_score",
        "image_dedup_clusters", "text_bpe_train",
        "text_substring_decontaminate", "text_langid", "text_chunk_plan",
    ]
    return [(n, lambda n=n: consume(Q.QUERIES[n](SF_DIR))) for n in names]


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    rd.DataContext.get_current().enable_operator_progress_bars = False

    import shutil

    import pyarrow.parquet as pq

    from osm_merge_ray.config import ConflationConfig
    from osm_merge_ray.pipelines.conflation import conflate_parquet
    from osm_merge_ray.synth import synth_dataset

    n_docs = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    n_side = int(os.environ.get("GRAFT_BENCH_N", str(n_docs * 20)))

    # one-time input generation (cached on disk, shared by the scaling
    # runs so both levels read the identical input); untimed
    data_dir = f"/tmp/graft_bench/n{n_side}"
    for side in ("primary", "secondary"):
        d = f"{data_dir}/{side}"
        if not os.path.isdir(d) or not os.listdir(d):
            os.makedirs(d, exist_ok=True)
            # 64 requested blocks land as ~33 written files (Ray
            # bundles small generator blocks into write tasks) → 33
            # coarse fused read+decode tasks. Measured A/B against an
            # explicit 128-file repartition: the finer layout wins the
            # decode stage in isolation (no straggler tail) but LOSES
            # the full flagship by ~1-2 s — every downstream exchange
            # (light-projection materialize, salt-plan scan, sort) pays
            # a fixed per-block cost on 2x the blocks. Keep the coarse
            # layout; it is also CPU-count-independent (--scaling
            # invariant).
            synth_dataset(n_side, side, with_bytes=True,
                          parallelism=64).write_parquet(d)
    # warm the page cache + prestart workers so the timed run measures
    # compute+shuffle, not first-touch disk reads or process spawning
    import ray.data as _rd

    _rd.range(1000, override_num_blocks=NUM_CPUS).map_batches(
        lambda b: b, batch_format="pyarrow").count()
    _rd.read_parquet(f"{data_dir}/primary").count()
    _rd.read_parquet(f"{data_dir}/secondary").count()

    timings: dict[str, float] = {}

    # headline: read → decode/verify (actor pool) → cell-shuffle conflate
    # → tile assign → partitioned parquet write.
    # Median-of-N + spread (default 5): this is a shared host whose
    # run-to-run noise swung recorded rows/s by ~40% between rounds 1
    # and 2; the median is the number to beat, the spread says whether
    # a delta is real. Scaling legs keep 1 repeat (they already take
    # best-of-2 at the process level).
    out_dir = f"/tmp/graft_bench/out_{NUM_CPUS}"
    cfg = ConflationConfig(num_buckets=128)  # fixed layout across CPU levels
    n_flag = 1 if os.environ.get("GRAFT_SCALING") else int(
        os.environ.get("GRAFT_FLAGSHIP_REPEATS", "5"))
    walls = []
    for _ in range(n_flag):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        conflate_parquet(f"{data_dir}/primary", f"{data_dir}/secondary",
                         cfg=cfg, decode_images=True, out_dir=out_dir)
        walls.append(time.time() - t0)
    walls.sort()
    headline = walls[len(walls) // 2] if n_flag % 2 else (
        walls[n_flag // 2 - 1] + walls[n_flag // 2]) / 2
    n_rows = pq.read_table(out_dir, columns=["decision"]).num_rows
    timings["flagship_conflation"] = round(headline, 3)

    if not os.environ.get("GRAFT_SCALING"):
        for name, thunk in _bench_queries():
            t0 = time.time()
            thunk()
            timings[name] = round(time.time() - t0, 3)

        # skewed line conflation: 50k lines/side with 30% planted into
        # ONE ~5 km urban cluster (a hot cell at res 12) — exercises the
        # border-band cover + hot-cell salting + fine refinement
        timings["conflate_lines_skewed"] = round(_bench_lines_skewed(), 3)

    total = sum(timings.values())
    # host load at measurement time (1/5/15 min averages): r2→r3
    # per-query deltas were dominated by tenant noise and needed a
    # manual calm-host rerun to interpret — record the context inline
    load1, load5, load15 = os.getloadavg()
    result = {
        "metric": "conflation throughput (matched feature-pairs/sec + tiles/sec) over synthetic image+caption tables + operator suite seconds",
        "value": round(total, 3),
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR.rstrip("/").split("sf")[-1],
        "num_cpus": NUM_CPUS,
        "flagship_rows": int(n_rows),
        "flagship_rows_per_sec": round(n_rows / headline, 1),
        "flagship_walls_sec": [round(w, 3) for w in walls],
        "flagship_spread_pct": round(
            100.0 * (walls[-1] - walls[0]) / headline, 1),
        "loadavg": [round(load1, 2), round(load5, 2), round(load15, 2)],
    }
    ray.shutdown()
    return result


def _bench_lines_skewed(n_side: int = 50_000) -> float:
    """Timed skewed line conflation over a cached deterministic fixture."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from osm_merge_ray.config import ConflationConfig
    from osm_merge_ray.stages.lines import conflate_lines

    d = f"/tmp/graft_bench/lines_n{n_side}"

    def make_side(seed, n, id0, offset):
        rng = np.random.default_rng(seed)
        hot = rng.random(n) < 0.3
        lon = np.where(hot, -105.04 + rng.random(n) * 0.05,
                       -108.0 + rng.random(n) * 4.0)
        lat = np.where(hot, 39.01 + rng.random(n) * 0.05,
                       37.0 + rng.random(n) * 4.0) + offset
        rows = []
        for i in range(n):
            coords = [[lon[i] + k * 1e-4, lat[i]] for k in range(5)]
            rows.append({"feature_id": id0 + i, "geom_type": "LineString",
                         "coords_json": json.dumps(coords),
                         "props_json": json.dumps({"name": f"Road {i}",
                                                   "ref": f"FR {i}"})})
        return pa.Table.from_pylist(rows)

    for side, seed, id0, off in (("primary", 1, 0, 0.0),
                                 ("secondary", 1, 10_000_000, 3.0 / 111194.9)):
        p = f"{d}/{side}.parquet"
        if not os.path.exists(p):
            os.makedirs(d, exist_ok=True)
            pq.write_table(make_side(seed, n_side, id0, off), p)

    tp = pq.read_table(f"{d}/primary.parquet")
    ts = pq.read_table(f"{d}/secondary.parquet")
    cfg = ConflationConfig(cell_res=12, num_buckets=128, hot_cell_rows=2000)
    t0 = time.time()
    conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts), cfg).materialize()
    return time.time() - t0


def run_scaling():
    # N and 4N parallelism levels. 4/16 rather than 8/32: this sandbox
    # VM's memory bandwidth saturates around ~16-24 active workers, so
    # 32-CPU runs measure platform contention, not engine scaling (see
    # BASELINE.md microbenchmarks: even bare parquet-read ray tasks
    # anti-scale at 32). The engine pipeline itself is layout-fixed
    # across levels (same blocks, same buckets).
    # Best-of-2 per level: this is a SHARED host (load average 3-4
    # with the sandbox idle) and a single noisy leg can swing the
    # ratio by +-0.15; min-of-repeats measures the engine, not the
    # tenant du jour. Scaling legs run the flagship only
    # (GRAFT_SCALING=1 skips the operator suite).
    lo, hi = 4, 16
    repeats = max(1, int(os.environ.get("GRAFT_SCALING_REPEATS", "2")))
    out = {}
    for n in (lo, hi):
        best = None
        for _ in range(repeats):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(n), GRAFT_SCALING="1")
            p = subprocess.run([sys.executable, os.path.join(_REPO, "bench.py")],
                               env=env, capture_output=True, text=True, check=True)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if (best is None or res["queries"]["flagship_conflation"]
                    < best["queries"]["flagship_conflation"]):
                best = res
        out[n] = best
    t_lo = out[lo]["queries"]["flagship_conflation"]
    t_hi = out[hi]["queries"]["flagship_conflation"]
    speedup = t_lo / t_hi
    eff = speedup / (hi / lo)
    print(json.dumps({
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "rows_per_sec_lo": out[lo]["flagship_rows_per_sec"],
        "rows_per_sec_hi": out[hi]["flagship_rows_per_sec"],
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(eff, 3),
        "total_sec_lo": out[lo]["value"],
        "total_sec_hi": out[hi]["value"],
        "repeats": repeats,
        "loadavg_lo": out[lo].get("loadavg"),
        "loadavg_hi": out[hi].get("loadavg"),
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
