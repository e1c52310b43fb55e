"""Decisions do not depend on the CPU count: the same inputs conflated
under the 4-CPU test session and under a fresh 1-CPU Ray instance give
one decision hash per path (images with live salts, adversarial lines,
a fresh checkpointed run)."""

import hashlib
import json
import os
import subprocess
import sys

import pyarrow as pa

import ray.data as rd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IMAGE_COLS = ["image_id", "matched_id", "decision", "hits", "dist_mm", "old_caption"]
LINE_COLS = ["feature_id", "matched_id", "version", "decision", "hits",
             "dist_m", "angle", "slope", "merged_json"]


def _digest(df, cols) -> str:
    """``"<rows>:<sha256>"`` of the decision columns in key order."""
    df = df[cols].sort_values(cols[0]).reset_index(drop=True)
    df = df.astype(object).where(df.notna(), None)
    sha = hashlib.sha256(df.to_json(orient="values", double_precision=15).encode())
    return f"{len(df)}:{sha.hexdigest()}"


def decision_hashes(workdir: str) -> dict:
    """{case: normalized decision hash} on whatever Ray session is up."""
    from osm_merge_ray.config import ConflationConfig
    from osm_merge_ray.pipelines.conflation import run_checkpointed
    from osm_merge_ray.stages.conflate import conflate_datasets
    from osm_merge_ray.stages.lines import conflate_lines
    from osm_merge_ray.state import checkpoint as CK
    from osm_merge_ray.synth import synth_table

    from tests.test_partition import _adversarial_lines

    # hot_cell_rows=5 puts salts on the planted dense clusters
    cfg = ConflationConfig(cell_res=15, num_buckets=16, hot_cell_rows=5)
    tp = synth_table(600, "primary", with_bytes=False)
    ts = synth_table(600, "secondary", with_bytes=False)
    out = {"images": _digest(conflate_datasets(
        rd.from_arrow(tp), rd.from_arrow(ts), cfg).to_pandas(), IMAGE_COLS)}

    lcfg, prim_rows, sec_rows = _adversarial_lines()
    out["lines"] = _digest(conflate_lines(
        rd.from_arrow(pa.Table.from_pylist(prim_rows)),
        rd.from_arrow(pa.Table.from_pylist(sec_rows)), lcfg).to_pandas(), LINE_COLS)

    ckpt = os.path.join(workdir, "ckpt")
    run_checkpointed(rd.from_arrow(tp), rd.from_arrow(ts), ckpt, cfg)
    out["checkpointed"] = _digest(CK.read_output(ckpt).to_pandas(), IMAGE_COLS)
    return out


_CHILD = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, object_store_memory=200 << 20,
         include_dashboard=False, logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from tests.test_cpu_invariance import decision_hashes
out = {"cpus": ray.cluster_resources().get("CPU"), **decision_hashes(sys.argv[1])}
ray.shutdown()
print(json.dumps(out))
"""


def test_decisions_invariant_to_cpu_count(ray_session, tmp_path):
    """One extra Ray instance, sized 1 CPU, in its own process."""
    import ray

    assert ray.cluster_resources().get("CPU") == 4
    here = decision_hashes(str(tmp_path / "here"))
    assert [h.split(":")[0] for h in here.values()] == ["600", "120", "600"]
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    os.makedirs(tmp_path / "child")
    res = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path / "child")],
                         cwd=REPO, env=env, capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr[-3000:]
    child = json.loads(res.stdout.strip().splitlines()[-1])
    assert child.pop("cpus") == 1
    assert child == here
