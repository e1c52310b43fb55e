"""Per-partition checkpoint manifest → kill-and-resume without recompute.

BASELINE.json north_rule: "resumable from checkpoint with per-partition
lineage + metrics". The reference has no checkpointing at all (a failed
``conflateData`` rerun restarts from zero; its only idempotence is the
file-tree fan-out of contrib/update.sh). Engine design:

* work is partitioned by shuffle **bucket** (hash of (cell, salt) —
  stages/partition.py); each bucket's decision rows are written to
  ``out_dir/bucket=<b>/part-*.parquet`` ATOMICALLY (tmp dir + rename);
* alongside, ``out_dir/_manifest/bucket=<b>.json`` records lineage
  (bucket id, distinct cells, row count, input row count) + metrics
  (wall seconds) — written only after the data rename succeeds;
* ``out_dir/_manifest/run.json`` pins the config fingerprint, the input
  row count and the partition plan (hot-cell salts, primary reach,
  split-part flag) of the first run, written before its exchange;
* resume = read the manifest dir, broadcast the finished-bucket set,
  and filter those buckets out of the shuffle input before the
  groupby: finished cells are never rescored. The resume buckets its
  rows with the recorded plan instead of planning again.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from osm_merge_ray.stages.partition import Plan


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def config_fingerprint(cfg) -> str:
    """Stable hash of the full ConflationConfig and the partition-scheme
    version: bucket manifests are only valid under the partitioning
    rules and threshold config that wrote them."""
    import hashlib
    from dataclasses import asdict

    from osm_merge_ray.stages.partition import PARTITION_SCHEME

    payload = json.dumps({**asdict(cfg), "partition_scheme": PARTITION_SCHEME},
                         sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _read_run(out_dir: str) -> dict | None:
    """The run-level manifest ``run.json``, or None before the first run.
    A file that exists but does not parse refuses: it is what pins the
    config, the input and the partition plan of the finished buckets."""
    path = os.path.join(manifest_dir(out_dir), "run.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            rec = json.load(fh)
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
    except (ValueError, OSError) as e:  # JSONDecodeError is a ValueError
        raise ValueError(
            f"checkpoint run manifest {path!r} is unreadable ({e}); the "
            "config, input and partition plan of its finished buckets are "
            "unknown — use a fresh out_dir") from e
    return rec


def run_plan(out_dir: str) -> Plan | None:
    """The partition plan the out_dir's first run recorded in ``run.json``
    (``rows`` is its ``input_rows``), or None when there is no
    ``run.json`` or it predates recorded plans."""
    rec = _read_run(out_dir)
    if rec is None or "salts" not in rec:
        return None
    return Plan({int(c): int(k) for c, k in rec["salts"].items()},
                float(rec["reach_m"]), bool(rec["split_parts"]),
                rec["input_rows"])


def check_run_manifest(out_dir: str, cfg, plan: Plan) -> None:
    """Write (first run) or validate (resume) the run-level manifest
    ``run.json``: the config fingerprint, the input row count
    (``plan.rows``, light rows of both sides — the cheap input
    fingerprint) and the partition plan (``plan``'s salts, reach and
    split flag), which a resume reads back with ``run_plan``.

    A resume against an out_dir produced under a DIFFERENT config
    (num_buckets, cell_res, thresholds...), partition scheme or INPUT would
    silently skip buckets computed under incompatible partitioning and
    emit mixed, corrupt output — refuse instead. An unreadable ``run.json``
    refuses too.
    """
    fp = config_fingerprint(cfg)
    path = os.path.join(manifest_dir(out_dir), "run.json")
    rec = _read_run(out_dir)
    if rec is not None:
        prior = rec.get("config_fingerprint")
        if prior is not None and prior != fp:
            raise ValueError(
                f"checkpoint dir {out_dir!r} was written under a different "
                f"ConflationConfig or partition scheme (fingerprint {prior} "
                f"!= {fp}); its bucket partitioning is incompatible with "
                "this run — use a fresh out_dir or delete the old one"
            )
        prior_rows = rec.get("input_rows")
        if prior_rows is not None and prior_rows != plan.rows:
            raise ValueError(
                f"checkpoint dir {out_dir!r} was written for a different "
                f"input ({prior_rows} rows != {plan.rows}); finished buckets "
                "would not cover this input — use a fresh out_dir"
            )
        return
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"config_fingerprint": fp, "input_rows": plan.rows,
                   "salts": {str(c): k for c, k in plan.salts.items()},
                   "reach_m": plan.reach_m, "split_parts": plan.split_parts,
                   "ts": time.time()}, fh)
    os.replace(tmp, path)


def finished_buckets(out_dir: str) -> set[int]:
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return set()
    out = set()
    for f in os.listdir(d):
        if f.startswith("bucket=") and f.endswith(".json"):
            try:
                with open(os.path.join(d, f)) as fh:
                    out.add(int(json.load(fh)["bucket"]))
            except (ValueError, KeyError, json.JSONDecodeError):
                continue  # torn write → bucket not finished
    return out


def write_bucket_partition(out_dir: str, bucket: int, table: pa.Table,
                           input_rows: int, wall_s: float, cells: list[int],
                           frags: list[int] | None = None) -> None:
    """Atomic partition write + manifest record (idempotent per bucket).
    ``frags`` (optional): distinct input-fragment lineage ids that fed
    this bucket — resolvable to file paths via the run-level
    ``fragments.json`` map, so a selective re-ingest can invalidate
    exactly the buckets a changed input file touched."""
    part_dir = os.path.join(out_dir, f"bucket={bucket}")
    tmp_dir = part_dir + ".tmp"
    os.makedirs(tmp_dir, exist_ok=True)
    pq.write_table(table, os.path.join(tmp_dir, "part-0.parquet"))
    dst = os.path.join(manifest_dir(out_dir), f"bucket={bucket}.json")
    if os.path.isdir(part_dir):  # stale partial from a killed run
        import shutil

        # un-finish the bucket first: a kill between the rmtree and the
        # rename must leave it to be rescored, not "done" with no rows
        if os.path.exists(dst):
            os.remove(dst)
        shutil.rmtree(part_dir)
    os.rename(tmp_dir, part_dir)
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    rec = {
        "bucket": int(bucket),
        "rows": table.num_rows,
        "input_rows": int(input_rows),
        "n_cells": len(cells),
        "cell_min": min(cells) if cells else None,
        "cell_max": max(cells) if cells else None,
        "wall_s": round(wall_s, 4),
        "ts": time.time(),
    }
    if frags is not None:
        rec["input_fragments"] = sorted(int(f) for f in frags)
    tmp = os.path.join(manifest_dir(out_dir), f".bucket={bucket}.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(rec, fh)
    os.replace(tmp, dst)


def read_output(out_dir: str) -> pa.Table:
    """Read back all finished partitions (driver-side, for tests)."""
    parts = []
    for d in sorted(os.listdir(out_dir)):
        if d.startswith("bucket=") and not d.endswith(".tmp"):
            for f in sorted(os.listdir(os.path.join(out_dir, d))):
                if f.endswith(".parquet"):
                    parts.append(pq.read_table(os.path.join(out_dir, d, f)))
    return pa.concat_tables(parts) if parts else pa.table({})
