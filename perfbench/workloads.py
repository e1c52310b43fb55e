"""The three benchmark workloads.

Each workload is built from ``(work_dir, seed, scale)``: building it
generates (or finds cached) the seeded inputs and the in-process reference,
all untimed. ``warm_ray()`` is the warm-up part of ``setup_s``;
``run_once()`` is one closed-loop job, timed from input on disk to complete result, whose
output is then checked; ``replay()`` is the traced run's in-process layer
replay.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from perfbench import inputs
from perfbench.replay import DECISION_COLS, decision_hash, replay_lines, replay_points
from perfbench.trace import Tracer


@dataclass
class Sample:
    wall_s: float
    resume_s: float
    rows: int
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _touch_engine(batch):
    # imports the engine inside the Ray worker
    import osm_merge_ray.pipelines.conflation  # noqa: F401

    return batch


def warm_ray() -> None:
    """Start a worker and import the engine in it."""
    import ray.data as rd

    rd.range(8, override_num_blocks=1).map_batches(
        _touch_engine, batch_format="pyarrow").materialize()


def planted_errors(df: pd.DataFrame) -> list[str]:
    """The planted-category fractions of ``synth.make_batch`` (row index
    ``i`` has category ``i % 10``): exact duplicates come out duplicate,
    near duplicates match their partner with >= 2 hits, uniques come out
    new."""
    i = df["image_id"].str[1:].astype(np.int64).to_numpy()
    cat = i % 10
    errs = []
    dup = (df["decision"].to_numpy()[cat <= 1] == "duplicate").mean()
    near = (cat >= 2) & (cat <= 5)
    mid = df["matched_id"].to_numpy()[near]
    partner = np.array([m is not None and m is not pd.NA and int(m[1:]) == k
                        for m, k in zip(mid, i[near])])
    hits2 = (df["hits"].to_numpy()[near] >= 2).mean()
    new = (df["decision"].to_numpy()[cat >= 7] == "new").mean()
    for name, got, need in (("duplicate share of categories 0-1", dup, 0.95),
                            ("partner share of categories 2-5", partner.mean(), 0.95),
                            ("hits>=2 share of categories 2-5", hits2, 0.9),
                            ("new share of categories 7-9", new, 0.95)):
        if not got > need:
            errs.append(f"{name} {got:.4f} <= {need}")
    return errs


class _Points:
    """Shared by the two points workloads: the same seed's synthetic
    image+caption rows, the same config, the same reference decisions."""

    rows_per_side = 4000
    with_bytes = True

    def __init__(self, work: str, seed: int, scale: float):
        from osm_merge_ray.config import ConflationConfig

        self.n = max(40, int(self.rows_per_side * scale))
        # hot_cell_rows: the synthetic corpus plants ~8% of rows in three
        # dense clusters; at this size each cluster cell holds ~200 rows
        self.cfg = ConflationConfig(num_buckets=32, hot_cell_rows=64)
        self.input = inputs.points_inputs(os.path.join(work, "inputs"), seed, self.n,
                                          2 * self.n, with_bytes=self.with_bytes)
        self.tables = inputs.read_sides(self.input, drop=("bytes",))
        ref, _ = replay_points(*self.tables, self.cfg, lambda light: {}, Tracer())
        self.reference = decision_hash(ref)
        self.out = os.path.join(work, "out", self.name)
        self.sizes = {"rows_per_side": self.n, "pool_rows_per_side": 2 * self.n,
                      "files_per_side": inputs.FILES_PER_SIDE}

    def check(self, df: pd.DataFrame) -> list[str]:
        errs = []
        if len(df) != self.n or df["image_id"].nunique() != self.n:
            errs.append(f"{len(df)} decision rows for {self.n} primaries")
        got = decision_hash(df)
        if got != self.reference:
            errs.append(f"decision hash {got} != in-process reference {self.reference}")
        return errs + planted_errors(df)

    def replay(self, tracer: Tracer, plan):
        tables = inputs.read_sides(self.input) if self.with_bytes else self.tables
        return replay_points(*tables, self.cfg, plan, tracer, decode=self.with_bytes,
                             write_dir=None if self.with_bytes else self.out + ".replay")


class PointsDecode(_Points):
    name = "points_decode"

    def run_once(self, tracer: Tracer) -> Sample:
        from osm_merge_ray.pipelines.conflation import conflate_parquet

        shutil.rmtree(self.out, ignore_errors=True)
        side = [os.path.join(self.input, s) for s in inputs.SIDES]
        with tracer.span("conflation.conflate_parquet") as sp:
            conflate_parquet(*side, cfg=self.cfg, decode_images=True, out_dir=self.out)
        wall = sp["end"] - sp["start"]
        df = pq.read_table(self.out, columns=DECISION_COLS).to_pandas()
        return Sample(wall, wall, len(df), self.check(df), {"fresh_span": sp["id"]})


class PointsCheckpoint(_Points):
    name = "points_checkpoint"
    with_bytes = False

    def _run(self, tracer: Tracer, span: str) -> tuple[dict, dict]:
        from osm_merge_ray.pipelines.conflation import (
            read_parquet_with_lineage,
            run_checkpointed,
        )

        with tracer.span(span) as sp:
            with tracer.span("conflation.read_parquet_with_lineage"):
                (p, fp), (s, fs) = (read_parquet_with_lineage(os.path.join(self.input, x))
                                    for x in inputs.SIDES)
            with tracer.span("conflation.run_checkpointed"):
                res = run_checkpointed(p, s, self.out, self.cfg,
                                       fragment_map={**fp, **fs})
        return res, sp

    def run_once(self, tracer: Tracer) -> Sample:
        from osm_merge_ray.state import checkpoint as CK

        shutil.rmtree(self.out, ignore_errors=True)
        fresh, sp_fresh = self._run(tracer, "fresh")
        fresh_out = CK.read_output(self.out).to_pandas()
        files = [os.path.join(d, f) for d, _, fs in os.walk(self.out) for f in fs]
        info = {"fresh_span": sp_fresh["id"], "files_written": len(files),
                "bytes_written": sum(os.path.getsize(f) for f in files)}

        done = sorted(CK.finished_buckets(self.out))
        lost = done[::2]
        for b in lost:
            shutil.rmtree(os.path.join(self.out, f"bucket={b}"))
            os.remove(os.path.join(CK.manifest_dir(self.out), f"bucket={b}.json"))
        with tracer.span("checkpoint.finished_buckets") as sp:
            CK.finished_buckets(self.out)
        info["finished_buckets_ms"] = (sp["end"] - sp["start"]) * 1e3

        resumed, sp_resume = self._run(tracer, "resume")
        out = CK.read_output(self.out).to_pandas()
        info["buckets_skipped"] = resumed["buckets_skipped"]
        info["rescore_ratio"] = resumed["rows_emitted"] / max(fresh["rows_emitted"], 1)

        errs = self.check(fresh_out)
        if resumed["buckets_skipped"] != len(done) - len(lost):
            errs.append(f"resume skipped {resumed['buckets_skipped']} buckets, "
                        f"{len(done) - len(lost)} were kept")
        cols = sorted(fresh_out.columns)
        if sorted(out.columns) != cols or decision_hash(out, cols) != decision_hash(fresh_out, cols):
            errs.append("resumed output differs from the fresh output")
        return Sample(sp_fresh["end"] - sp_fresh["start"],
                      sp_resume["end"] - sp_resume["start"], len(fresh_out), errs, info)


class LinesSkewed:
    name = "lines_skewed"
    rows_per_side = 10_000

    def __init__(self, work: str, seed: int, scale: float):
        from osm_merge_ray.config import ConflationConfig

        self.n = max(100, int(self.rows_per_side * scale))
        # LINE_HOT_SHARE of the lines share one res-12 cell, well over hot_cell_rows
        self.cfg = ConflationConfig(cell_res=12, num_buckets=32, hot_cell_rows=2000)
        self.input = inputs.lines_inputs(os.path.join(work, "inputs"), seed, self.n)
        self.tables = inputs.read_sides(self.input)
        self.sizes = {"lines_per_side": self.n, "files_per_side": inputs.FILES_PER_SIDE,
                      "hot_share": inputs.LINE_HOT_SHARE}

    def check(self, df: pd.DataFrame) -> list[str]:
        errs = []
        ids = self.tables[0].column("feature_id").to_numpy()
        if len(df) != self.n or not np.array_equal(np.sort(df["feature_id"].to_numpy()), ids):
            errs.append(f"{len(df)} decision rows for {self.n} primary lines")
        partner = (df["matched_id"].to_numpy() == df["feature_id"].to_numpy()
                   + inputs.LINE_ID_OFFSET).mean()
        if not partner >= 0.999:
            errs.append(f"planted partner share {partner:.4f} < 0.999")
        return errs

    def run_once(self, tracer: Tracer) -> Sample:
        import ray.data as rd

        from osm_merge_ray.stages.lines import conflate_lines

        with tracer.span("lines.conflate_lines") as sp:
            p, s = (rd.read_parquet(os.path.join(self.input, x)) for x in inputs.SIDES)
            df = conflate_lines(p, s, self.cfg).to_pandas()
        wall = sp["end"] - sp["start"]
        return Sample(wall, wall, len(df), self.check(df), {"fresh_span": sp["id"]})

    def replay(self, tracer: Tracer, plan):
        return replay_lines(*self.tables, self.cfg, plan, tracer)


WORKLOADS = {w.name: w for w in (PointsDecode, PointsCheckpoint, LinesSkewed)}
