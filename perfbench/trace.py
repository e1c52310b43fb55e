"""In-memory spans for the traced benchmark run.

A span records name, start, end (``time.perf_counter``, which on Linux is
one monotonic clock shared by the benchmark process and the Ray workers) and
the id of its parent span. Three kinds of span are recorded:

* call spans, opened by the benchmark around each public call;
* one span per Ray Data execution and one child span per physical
  operator of it, captured when the execution's executor shuts down
  (both branches of a union appear as their own operators);
* replay spans, opened around each layer function the in-process replay
  calls.

Spans stay in memory and are written as one JSON file at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

#: Ray Data map functions whose executions plan hot-cell salts
#: (``stages.conflate.plan_salts``) or probe the prepared rows
#: (``stages.partition.has_split_parts`` / ``max_primary_reach_m``)
SALT_PLAN_FNS = ("partial_counts",)
PROBE_FNS = ("count_parts", "partial")
#: per-row map functions between the light projection and the shuffle
TAG_REPLICATE_FNS = ("tag", "rep")

STAGES = ("read", "prepare", "probe", "salt_plan", "tag_replicate", "shuffle",
          "match", "other")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            **attrs) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, **attrs})
        return len(self.spans) - 1

    @property
    def current(self) -> int | None:
        return self._open[-1] if self._open else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = self.add(name, time.perf_counter(), None, self.current, **attrs)
        self._open.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def duration(self, sid: int) -> float:
        s = self.spans[sid]
        return s["end"] - s["start"]

    def children(self, sid: int | None, name: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["parent"] == sid
                and (name is None or s["name"] == name)]

    def descendants(self, sid: int, name: str) -> list[dict]:
        out = []
        for c in self.children(sid):
            if c["name"] == name:
                out.append(c)
            out.extend(self.descendants(c["id"], name))
        return out

    def self_time(self, sid: int) -> float:
        """Duration minus the summed durations of the span's children (for
        call and replay spans, whose children run one after another)."""
        return self.duration(sid) - sum(self.duration(c["id"]) for c in self.children(sid))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"clock": "perf_counter", "spans": self.spans}, fh)
        os.replace(tmp, path)


def _op_record(op) -> dict:
    """Busy time, interval, task and block counts of one physical operator
    from its per-block execution stats (all sub-stages of an all-to-all
    operator included)."""
    walls, starts, ends, blocks = [], [], [], 0
    for metas in op.get_stats().values():
        for m in metas:
            blocks += 1
            es = getattr(m, "exec_stats", None)
            if es is not None and es.wall_time_s is not None:
                walls.append(es.wall_time_s)
                starts.append(es.start_time_s)
                ends.append(es.end_time_s)
    metrics = op.metrics
    tasks = getattr(metrics, "num_tasks_finished", 0) or blocks
    return {
        "busy_s": sum(walls),
        "start": min(starts) if starts else None,
        "end": max(ends) if ends else None,
        "tasks": int(tasks),
        "blocks_out": int(getattr(metrics, "num_task_outputs_generated", 0) or blocks),
        "rows_out": int(getattr(metrics, "rows_task_outputs_generated", 0) or 0),
        "task_wall_max_s": max(walls) if walls else 0.0,
    }


@contextlib.contextmanager
def capture_executions(tracer: Tracer):
    """Record every Ray Data execution finished inside the block as an
    ``execution`` span (child of the innermost open span) with one
    ``operator`` child span per physical operator."""
    from ray.data._internal.execution import streaming_executor as se
    from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer

    orig = se.StreamingExecutor.shutdown

    def shutdown(self, *args, **kwargs):
        record = self._execution_started and not self._shutdown
        end = time.perf_counter()
        orig(self, *args, **kwargs)
        if not record:
            return
        ops = [op for op in self._topology if not isinstance(op, InputDataBuffer)]
        eid = tracer.add("execution", self._start_time, end, tracer.current)
        for op in ops:
            rec = _op_record(op)
            tracer.add("operator", rec.pop("start") or self._start_time,
                       rec.pop("end") or end, eid, op=op.name, **rec)

    se.StreamingExecutor.shutdown = shutdown
    try:
        yield tracer
    finally:
        se.StreamingExecutor.shutdown = orig


def _fn_names(op_name: str) -> list[str]:
    """'ReadParquet->MapBatches(tag)' -> ['ReadParquet', 'tag']"""
    out = []
    for part in op_name.split("->"):
        out.append(part[part.index("(") + 1:-1] if part.startswith("MapBatches(") else part)
    return out


def stage_of(op_names: list[str]) -> list[str]:
    """Map the operators of one execution (topological order) onto the
    engine stages. An operator Ray fused with a read counts as ``read``
    (decode on points_decode, lineage tagging on points_checkpoint, line
    preparation on lines_skewed)."""
    fns = [_fn_names(n) for n in op_names]
    flat = {f for fs in fns for f in fs}
    if flat & set(SALT_PLAN_FNS):
        return ["salt_plan"] * len(op_names)
    if flat & set(PROBE_FNS):
        return ["probe"] * len(op_names)
    out, after_sort = [], False
    for fs in fns:
        first = fs[0]
        if first.startswith("ReadParquet"):
            out.append("read")
        elif first == "Sort":
            out.append("shuffle")
            after_sort = True
        elif after_sort:
            out.append("match")
        elif first in TAG_REPLICATE_FNS:
            out.append("tag_replicate")
        elif first == "<lambda>":
            out.append("prepare")
        else:
            out.append("other")
    return out


def stage_walls(tracer: Tracer, root: int) -> dict:
    """Per-stage wall seconds over the executions under the call span
    ``root``: each execution's interval is split among its operators in
    proportion to their busy time, so the stage walls sum to the time Ray
    Data spent executing. Also returns task and read-block totals."""
    walls = dict.fromkeys(STAGES, 0.0)
    tasks = read_blocks = 0
    for ex in tracer.descendants(root, "execution"):
        ops = tracer.children(ex["id"], "operator")
        stages = stage_of([o["op"] for o in ops])
        busy = sum(o["busy_s"] for o in ops)
        span = ex["end"] - ex["start"]
        for o, st in zip(ops, stages):
            walls[st] += span * (o["busy_s"] / busy) if busy > 0 else 0.0
            tasks += o["tasks"]
            if st == "read":
                read_blocks += o["blocks_out"]
        if busy <= 0:
            walls["other"] += span
    return {"walls": walls, "tasks": tasks, "read_blocks": read_blocks}
