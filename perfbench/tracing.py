"""Spans, Ray Data operator stats and process-tree memory for the benchmark.

Spans are recorded from this package only, around the calls it makes into
each layer; nothing inside ``georay`` is instrumented.  :func:`hooks`
wraps, for the length of a traced run:

- ``ExecutionPlan.execute``: one ``execute`` span per dataset Ray Data
  runs, carrying the per-operator stats it reports (tasks, wall, rows);
- ``Dataset.write_parquet``: one ``write:<dir>`` span per output written,
  which for the flagship is one span per dataset pass;
- the four dedup stages ``python -m georay dedup`` calls.  Each wrapper
  materializes the stage's result inside its span, so the span holds the
  stage's work; the next stage materializes its input first anyway, so
  the work done and its order are unchanged.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import threading
import time

#: operators that move rows between blocks (all-to-all exchanges)
SHUFFLE_OP = re.compile(r"Repartition|Aggregate|Sort|Shuffle|Join")
DEDUP_STAGES = {
    "band_bucket_pairs": "dedup.candidates",
    "jaccard_verify_pairs": "dedup.verify",
    "connected_components": "dedup.components",
    "apply_dedup": "dedup.apply",
}


class Tracer:
    """In-memory spans: name, start, end, parent, run id and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run_id": self.run_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def of_run(self, run_id) -> list[dict]:
        return [s for s in self.spans if s["run_id"] == run_id]

    def with_self_times(self) -> list[dict]:
        """Spans plus ``self_s``: duration minus the children's durations."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [dict(s, self_s=s["end"] - s["start"] - child.get(s["id"], 0.0)) for s in self.spans]

    def dump(self, path: str, **meta) -> None:
        with open(path, "w") as f:
            json.dump({**meta, "spans": self.with_self_times()}, f, indent=1, default=str)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered_s(intervals) -> float:
    """Length of the union of (start, end) intervals: concurrent operators
    count once."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _operators(stats, seen: set) -> list[dict]:
    """Per-operator stats of every DatasetStats level in ``stats``'s tree
    not reported before: an operator that an earlier execution ran (a
    materialized parent) has its (name, start, end) in ``seen`` and is
    skipped, so each operator is counted once per run."""
    ops, todo = [], [stats]
    while todo:
        st = todo.pop()
        todo.extend(getattr(st, "parents", None) or [])
        for op in st.to_summary().operators_stats:
            key = (op.operator_name, op.earliest_start_time, op.latest_end_time)
            if key in seen:
                continue
            seen.add(key)
            m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str or "")
            ops.append({
                "name": op.operator_name,
                "tasks": int(m.group(1)) if m else 0,
                "start": op.earliest_start_time,
                "end": op.latest_end_time,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "rows_out": (op.output_num_rows or {}).get("sum", 0),
                "bytes_out": (op.output_size_bytes or {}).get("sum", 0),
                "shuffle": bool(SHUFFLE_OP.search(op.operator_name)),
            })
    return ops


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Install the execute, write and dedup-stage wrappers; remove them on exit."""
    import georay.dedup as dedup_mod
    from ray.data import Dataset
    from ray.data._internal.plan import ExecutionPlan

    seen: set = set()
    orig_execute = ExecutionPlan.execute
    orig_write = Dataset.write_parquet
    orig_stages = {name: getattr(dedup_mod, name) for name in DEDUP_STAGES}

    def execute(plan, *args, **kwargs):
        if plan.has_computed_output():
            return orig_execute(plan, *args, **kwargs)
        with tracer.span("execute") as sp:
            out = orig_execute(plan, *args, **kwargs)
        sp["operators"] = _operators(plan.stats(), seen)
        return out

    def write_parquet(ds, path, *args, **kwargs):
        with tracer.span("write:" + os.path.basename(os.path.normpath(path))):
            return orig_write(ds, path, *args, **kwargs)

    def stage(fn, name):
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                out = fn(*args, **kwargs).materialize()
                sp["counts"]["rows_out"] = out.count()
            return out

        return traced

    ExecutionPlan.execute = execute
    Dataset.write_parquet = write_parquet
    for name, fn in orig_stages.items():
        setattr(dedup_mod, name, stage(fn, DEDUP_STAGES[name]))
    try:
        yield tracer
    finally:
        ExecutionPlan.execute = orig_execute
        Dataset.write_parquet = orig_write
        for name, fn in orig_stages.items():
            setattr(dedup_mod, name, fn)


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, resident pages) of every process, from /proc."""
    table = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we listed
            continue
        table[int(pid)] = (int(fields[1]), int(fields[21]))
    return table


def tree(root: int, table: dict | None = None) -> list[int]:
    """``root`` and all its descendants."""
    table = _proc_table() if table is None else table
    children: dict = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def _tree_rss_bytes(root: int, page: int) -> int:
    """Summed resident set of ``root`` and all its descendants."""
    table = _proc_table()
    return sum(table[pid][1] for pid in tree(root, table) if pid in table) * page


class PeakRss:
    """Samples the summed RSS of this process tree (this process and every
    Ray process it started) in a thread while the ``with`` body runs."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        self.peak_bytes = max(self.peak_bytes, _tree_rss_bytes(os.getpid(), self._page))

    def _run(self):
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
