"""The flagship pipeline: decode-verify → conflate → tile → write.

Engine analog of ``conflator.main`` (conflator.py:1041-1128): load
primary + secondary, conflate, classify merged/duplicate/new, write
partitioned output — restructured as one streaming Ray Data plan with
a single all-to-all exchange, plus an optional checkpointed execution
mode (``run_checkpointed``) that the reference has no equivalent of.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo.mercator import TileGrid
from osm_merge_ray.image.stages import VerifiedDecode
from osm_merge_ray.stages import conflate as CF
from osm_merge_ray.stages import partition as P
from osm_merge_ray.stages.tiling import assign_tiles
from osm_merge_ray.state import checkpoint as CK
from osm_merge_ray.synth import AOI, synth_dataset
from osm_merge_ray.util import hash64_str, splitmix64


def default_grid(cfg: ConflationConfig) -> TileGrid:
    # 0.1 deg margin: secondary offsets can nudge rows past the AOI edge
    return TileGrid.from_bbox_lonlat(
        AOI[0] - 0.1, AOI[1] - 0.1, AOI[2] + 0.1, AOI[3] + 0.1, cfg.tile_meters
    )


def flagship(n_per_side: int = 1000, cfg: ConflationConfig | None = None,
             decode_images: bool = True, seed: int = 42):
    """Synthesize both sides distributed, optionally decode+verify the
    image payloads (actor pool), run the conflation join, assign tiles.
    Returns the lazy decision Dataset."""
    cfg = cfg or ConflationConfig()
    p = synth_dataset(n_per_side, "primary", seed=seed, with_bytes=decode_images)
    s = synth_dataset(n_per_side, "secondary", seed=seed, with_bytes=decode_images)
    union = CF.tag_side(p, 0).union(CF.tag_side(s, 1))
    if decode_images:
        union = union.map_batches(VerifiedDecode, batch_format="pyarrow",
                                  batch_size=256,
                                  concurrency=(1, max(4, os.cpu_count() or 8)))
    decisions, _ = P.shuffle_match(CF.light_rows(union, cfg), cfg, cfg.distance_m,
                                   lambda df: CF.match_bucket(df, cfg))
    return assign_tiles(decisions, default_grid(cfg))


def conflate_parquet(primary_path: str, secondary_path: str,
                     cfg: ConflationConfig | None = None,
                     decode_images: bool = True, out_dir: str | None = None):
    """The production-shaped flagship: parquet (Lance-shaped) tables in,
    one decode+verify fused into each side's read → ONE side-tagged
    union → conflate → tile → partitioned parquet out."""
    import ray.data as rd

    cfg = cfg or ConflationConfig()

    def read_side(path):
        # Match the read block count to the file count so Ray does not
        # insert a SplitBlocks op — SplitBlocks breaks operator fusion,
        # and fusion is what keeps the multi-KB image payloads OUT of
        # the object store: a fused ReadParquet->MapBatches(decode)
        # task decodes in worker heap and emits only the ~100 B light
        # rows. The store is a fixed-throughput shared resource
        # (~GB/s); every avoided bytes-crossing is wall time at every
        # cluster size and is THE scaling limiter on one node.
        import pyarrow.dataset as pads

        pds = pads.dataset(path)
        nfiles = len(pds.files)
        # prune at the read: without the decode stage the bytes column
        # never leaves storage
        cols = None
        if not decode_images:
            cols = [c for c in pds.schema.names
                    if c in ("image_id", "caption", "phash", "lon", "lat")]
        ds = rd.read_parquet(path, override_num_blocks=max(nfiles, 1),
                             columns=cols)
        if decode_images:
            # stateless task mode, NO batch_size: an explicit batch_size
            # prevents Ray from fusing the map with ReadParquet, and an
            # unfused decode ships the image BYTES through the object
            # store (measured: read+decode 2x slower). Fused, the batch
            # is the file block - decode memory is bounded by file size.
            return ds.map_batches(VerifiedDecode(), batch_format="pyarrow")
        return ds

    union = CF.tag_side(read_side(primary_path), 0).union(
        CF.tag_side(read_side(secondary_path), 1)
    )
    decisions, _ = P.shuffle_match(CF.light_rows(union, cfg), cfg, cfg.distance_m,
                                   lambda df: CF.match_bucket(df, cfg))
    out = assign_tiles(decisions, default_grid(cfg))
    if out_dir is not None:
        out.write_parquet(out_dir)
    return out


def _lineage_path(p: str, remote: bool) -> str:
    """One canonical spelling of an input file path for its lineage id.
    Ray's ``include_paths`` strings and ``pyarrow.dataset().files`` can
    differ in scheme prefix, normalization and symlink resolution, and a
    mismatch would record frag ids that resolve to nothing. The scheme
    is dropped (pyarrow lists remote files without it); local paths are
    also resolved with ``realpath``."""
    _, sep, rest = p.partition("://")
    p = rest if sep else p
    return p if remote else os.path.realpath(p)


def _frag_ids(paths: list[str]) -> np.ndarray:
    return splitmix64(hash64_str(paths)).view(np.int64)


def add_frag(t: pa.Table, remote: bool, known: frozenset) -> pa.Table:
    """Replace a block's ``path`` column (Ray ``include_paths``) with the
    int64 ``frag`` lineage id of each row's file. The column is
    dictionary-encoded, so ``_lineage_path`` (a ``realpath`` syscall) and
    the FNV hash run once per distinct file, not once per row; the ids
    are gathered back through the indices. Raises on any id missing from
    ``known``, the run-level fragment map."""
    enc = pc.dictionary_encode(t.column("path")).combine_chunks()
    paths = [_lineage_path(p, remote) for p in enc.dictionary.to_pylist()]
    ids = _frag_ids(paths)
    missing = {int(i) for i in ids} - known
    if missing:  # fail LOUDLY instead of writing dangling lineage
        bad = sorted({p for p, i in zip(paths, ids) if int(i) in missing})[:3]
        raise ValueError(
            "read_parquet_with_lineage: per-row fragment path(s) "
            f"{bad} not present in the run-level fragment map — "
            "path normalization mismatch between Ray include_paths "
            "and pyarrow.dataset files")
    t = t.drop_columns(["path"])
    return t.append_column("frag", pa.array(ids[enc.indices.to_numpy()], pa.int64()))


def read_parquet_with_lineage(path: str):
    """Read a parquet directory with a per-row ``frag`` column — a
    stable int64 id of the source FILE (splitmix64 of the path's FNV
    hash) — plus the {frag: path} map. Feed both sides of
    ``run_checkpointed`` through this and every bucket manifest records
    which input fragments it consumed (the north-rule's "input fragment
    ids" lineage): when one input file is replaced, exactly the buckets
    naming its frag id need invalidation, not the whole run."""
    import pyarrow.dataset as pads
    import ray.data as rd

    ds = rd.read_parquet(path, include_paths=True)
    remote = "://" in path and not path.startswith("file://")
    files = sorted({_lineage_path(f, remote) for f in pads.dataset(path).files})
    fmap = {int(i): p for i, p in zip(_frag_ids(files), files)}
    # file-count sized: cheap to ship with every task
    kwargs = {"remote": remote, "known": frozenset(fmap)}
    return ds.map_batches(add_frag, batch_format="pyarrow", fn_kwargs=kwargs), fmap


def run_checkpointed(primary_ds, secondary_ds, out_dir: str,
                     cfg: ConflationConfig | None = None,
                     resume: bool = True,
                     fragment_map: dict[int, str] | None = None) -> dict:
    """Conflate with per-bucket checkpointing: the spine's per-bucket sink
    matches, assigns tiles and writes the bucket's decision rows
    atomically with a manifest record (state/checkpoint.py); on resume,
    finished buckets are filtered out of the shuffle input *before* the
    exchange, so their rows are never shipped or rescored.

    The first run records its partition plan in ``_manifest/run.json``
    with the config fingerprint and input row count. A later run on the
    same ``out_dir`` passes that plan to ``shuffle_match`` (no planning
    pass; rows land in the buckets the first run used) and refuses a
    changed config, partition scheme or input row count, or an
    unreadable ``run.json``, before anything is written.

    Returns summary metrics. ``out_dir`` must be shared storage on a
    multi-node cluster.
    """
    import json

    from osm_merge_ray.stages.tiling import make_assign_tiles

    cfg = cfg or ConflationConfig()
    done = CK.finished_buckets(out_dir) if resume else set()
    assign = make_assign_tiles(default_grid(cfg))

    def match_and_write(df: pd.DataFrame) -> pd.DataFrame:
        t0 = time.time()
        bucket = int(df["bucket"].iloc[0])
        frags = (np.unique(df["frag"].to_numpy()).tolist()
                 if "frag" in df.columns else None)
        out = CF.match_bucket(df, cfg)
        table = assign(pa.Table.from_pandas(out, preserve_index=False))
        CK.write_bucket_partition(
            out_dir, bucket, table, input_rows=len(df), wall_s=time.time() - t0,
            cells=df["cell"].unique().tolist(), frags=frags,
        )
        return pd.DataFrame({"bucket": [bucket], "rows": [table.num_rows]})

    union = CF.tag_side(primary_ds, 0).union(CF.tag_side(secondary_ds, 1))
    metrics, plan = P.shuffle_match(CF.light_rows(union, cfg), cfg, cfg.distance_m,
                                    match_and_write, skip_buckets=done,
                                    plan=CK.run_plan(out_dir))
    # refuse resume under a changed config, partition scheme or input —
    # before the lazy exchange runs, so a refused run writes nothing
    CK.check_run_manifest(out_dir, cfg, plan)
    if fragment_map is not None:
        # run-level frag-id → input-file map (resolves the per-bucket
        # input_fragments lineage the sink records)
        fp = os.path.join(CK.manifest_dir(out_dir), "fragments.json")
        tmp = fp + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({str(k): v for k, v in fragment_map.items()}, fh)
        os.replace(tmp, fp)
    rows = metrics.to_pandas()
    return {
        "buckets_done_now": len(rows),
        "buckets_skipped": len(done),
        "rows_emitted": int(rows["rows"].sum()) if len(rows) else 0,
    }
