"""Conflation benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload points_decode --seed 1 --seconds 10 --trace 0

Run from the repository root. Workloads, metrics and bounds are declared
in ``BENCHMARK.json``; ``perfbench/METRICS.md`` explains them. One
process runs one job at a time on a local Ray instance with as many CPUs
as coreutils ``nproc`` reports.

1. Inputs for (workload, seed, size) are generated once and cached under
   ``.perfbench/inputs`` (untimed, outside ``setup_s``).
2. Set-up (Ray start plus warm-up) runs 3 times; ``setup_s`` is the
   median. With ``--trace 1`` it runs once.
3. One untimed warm-up job runs, then jobs run back to back for
   ``--seconds`` (at least one job; no job is started that would, at the
   length of the last one, end after that).
   Each job has a timeout and its output is checked; a job that raises,
   times out or fails a check counts as failed.
4. With ``--trace 1`` one more job runs with Ray Data execution capture,
   then the in-process layer replay runs; the spans are written to
   ``.perfbench/traces/<workload>-s<seed>.json``.

stdout: a host-context line (with ``error_rate`` and every sample the
medians were taken over), then the result line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Exit code 1
when any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
N_SETUPS = 3
JOB_TIMEOUT_S = 60.0
MAX_JOBS = 100
#: replay spans left out of the in-process layer time: plan_salts runs on
#: Ray, and the standalone band-target timing repeats work the secondary
#: replication does again
NOT_IN_PROCESS = ("conflate.plan_salts", "partition.bbox_band_targets")
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
#: <temp_dir>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
MAX_RAY_TEMP_DIR = 107 - 64


def nproc() -> int:
    """CPUs for Ray, counted as coreutils ``nproc`` counts them: the
    OMP_NUM_THREADS limit when set, else the CPUs this process may use."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    cpus = len(os.sched_getaffinity(0))
    return min(int(omp), cpus) if omp.isdigit() and int(omp) > 0 else cpus


def _children_map() -> dict[int, list[int]]:
    """ppid -> live (non-zombie) child pids, from /proc."""
    out: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            out.setdefault(int(fields[1]), []).append(int(d))
    return out


def descendants(pid: int) -> list[int]:
    children, out, todo = _children_map(), [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Peak of the summed resident set size of this process and every
    process it started (the Ray head processes and workers)."""

    interval_s = 1.0

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        self.peak_kb = max(self.peak_kb, sum(_rss_kb(p) for p in [pid, *descendants(pid)]))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def start_ray() -> None:
    import logging

    import ray
    import ray.data as rd

    kwargs = {}
    temp_dir = os.path.join(WORK, "ray")
    if len(temp_dir) <= MAX_RAY_TEMP_DIR:  # else Ray's default temp dir
        kwargs["_temp_dir"] = temp_dir
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 ** 2, **kwargs)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray(timeout_s: float = 20.0) -> None:
    """Shut Ray down and wait until every process this one started has
    ended (killing stragglers)."""
    import ray

    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while (left := descendants(os.getpid())) and time.monotonic() < deadline:
        time.sleep(0.1)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in left:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        t_end = time.monotonic() + 5.0
        while (left := descendants(os.getpid())) and time.monotonic() < t_end:
            time.sleep(0.1)
        if not left:
            break


def run_job(fn, timeout_s: float):
    """Run ``fn()`` in a daemon thread. Returns (sample, error); a job still
    running after ``timeout_s`` yields error "timeout"."""
    box: dict = {}

    def target():
        try:
            box["sample"] = fn()
        except Exception as e:  # a failed job is counted, not fatal
            traceback.print_exc()
            box["error"] = f"{type(e).__name__}: {e}"

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        return None, "timeout"
    return box.get("sample"), box.get("error")


def host_context(args, wl) -> dict:
    import ray

    return {"nproc": nproc(), "loadavg": [round(x, 2) for x in os.getloadavg()],
            "ray": ray.__version__, "python": sys.version.split()[0],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "sizes": wl.sizes}


def measure(wl, seconds: float):
    """One untimed warm-up job (the first job on a fresh Ray instance pays
    lazy set-up in its workers), then a closed loop: jobs back to back for
    ``seconds``. Returns (timed samples, one error list per job attempted,
    warm-up job wall)."""
    from perfbench.trace import Tracer

    sample, err = run_job(lambda: wl.run_once(Tracer()), JOB_TIMEOUT_S)
    job_errors = [sample.errors if sample is not None else [err]]
    warmup_s = sample.wall_s if sample is not None else None
    samples = []
    t_end = time.perf_counter() + seconds
    while err != "timeout":
        t0 = time.perf_counter()
        sample, err = run_job(lambda: wl.run_once(Tracer()), JOB_TIMEOUT_S)
        if sample is not None:
            samples.append(sample)
        job_errors.append(sample.errors if sample is not None else [err])
        # start another job only if one more as long as this fits
        if 2 * time.perf_counter() - t0 > t_end or len(job_errors) >= MAX_JOBS:
            break
    return samples, job_errors, warmup_s


def traced_layers(wl, wall_median: float, names: list[str]):
    """One job with execution capture, then the in-process replay.
    Returns (per-layer metrics, errors, tracer)."""
    import ray.data as rd

    from osm_merge_ray.stages.conflate import plan_salts
    from perfbench.trace import Tracer, capture_executions, stage_walls

    tracer = Tracer()
    with capture_executions(tracer):
        sample, err = run_job(lambda: wl.run_once(tracer), JOB_TIMEOUT_S)
    if sample is None:
        return {}, [err], tracer
    with tracer.span("replay") as replay:
        decisions, counts = wl.replay(
            tracer, lambda light: plan_salts(rd.from_arrow(light), wl.cfg))
    errors = sample.errors + wl.check(decisions)

    fresh = sample.info["fresh_span"]
    traced_wall = tracer.duration(fresh)
    sw = stage_walls(tracer, fresh)
    in_process = sum(tracer.self_time(s["id"]) for s in tracer.spans
                     if s["parent"] == replay["id"] and s["name"] not in NOT_IN_PROCESS)
    per = dict.fromkeys(names, 0.0)
    per.update(counts)
    per.update({f"stage.{k}_s": v for k, v in sw["walls"].items()
                if k not in ("salt_plan", "shuffle")})
    per.update({
        "conflate.plan_salts_s": sw["walls"]["salt_plan"],
        "shuffle.s": sw["walls"]["shuffle"],
        "conflation.read_blocks": sw["read_blocks"],
        "conflation.tasks": sw["tasks"],
        "conflation.overhead_s": wall_median - in_process,
        "conflation.stage_wall_share": sum(sw["walls"].values()) / traced_wall,
        "trace.overhead_s": traced_wall - wall_median,
    })
    per.update({f"checkpoint.{k}": sample.info[k] for k in
                ("files_written", "bytes_written", "buckets_skipped",
                 "finished_buckets_ms", "rescore_ratio") if k in sample.info})
    unknown = sorted(set(per) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    share = per["conflation.stage_wall_share"]
    if abs(share - 1.0) > 0.15:
        print(f"warning: stage walls sum to {share:.3f} of the traced wall",
              file=sys.stderr)
    return per, errors, tracer


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size multiplier (the smoke test uses a small one)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    from perfbench.workloads import WORKLOADS, warm_ray

    wl = WORKLOADS[args.workload](WORK, args.seed, args.scale)
    setups, samples, job_errors, per, warmup_s = [], [], [], {}, None
    try:
        for i in range(1 if args.trace else N_SETUPS):
            if i:
                stop_ray()
            t0 = time.perf_counter()
            start_ray()
            warm_ray()
            setups.append(time.perf_counter() - t0)
        with RssSampler() as rss:
            samples, job_errors, warmup_s = measure(wl, args.seconds)
        nan = float("nan")
        wall = statistics.median(s.wall_s for s in samples) if samples else nan
        if args.trace and samples and ["timeout"] not in job_errors:
            names = [m["name"] for m in spec["per_layer"]]
            per, errs, tracer = traced_layers(wl, wall, names)
            job_errors.append(errs)
            tracer.write(os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.json"))
    finally:
        stop_ray()

    timed_out = ["timeout"] in job_errors
    attempted = len(job_errors)
    failed = sum(1 for e in job_errors if e)
    for e in (e for errs in job_errors for e in errs):
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": wall,
            "rows_per_s": samples[0].rows / wall if samples else nan,
            "resume_s": statistics.median(s.resume_s for s in samples) if samples else nan,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss.peak_kb / 1024.0,
        }
    print(json.dumps({"context": host_context(args, wl),
                      "error_rate": {"value": failed / attempted, "unit": "1"},
                      "setup_samples_s": setups,
                      "warmup_job_s": warmup_s,
                      "wall_samples_s": [s.wall_s for s in samples],
                      "resume_samples_s": [s.resume_s for s in samples]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values.get(k, float("nan")), "unit": u}
                    for k, u in units.items()},
    }))
    sys.stdout.flush()
    if timed_out:
        os._exit(1)  # the timed-out job's thread may still be blocked
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
