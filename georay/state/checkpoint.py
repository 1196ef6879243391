"""Per-partition checkpointing with lineage + metrics records.

north_rule: "Every partition emits lineage + metrics records so the
pipeline resumes from per-partition checkpoints after failure."

Design (SURVEY.md §4 fault-tolerance row):
- The unit of checkpointing is an INPUT SHARD GROUP (a fixed chunk of
  input files).  Each group writes its output under
  ``out_dir/part-<name>/`` with:
    * ``data/*.parquet``   — the group's output rows
    * ``lineage.json``     — inputs, row counts, wall time, engine version
    * ``_SUCCESS``         — atomic completion marker (written last)
- Resume = list groups, skip those with ``_SUCCESS``; a killed run
  leaves at most one partial partition directory, which is overwritten.
- Output is "one directory per input shard" — resumable, never one
  giant file.

Within a group, Ray Data still parallelizes freely; the group size
trades checkpoint granularity against scheduling overhead (at cluster
scale use groups of 64-256 files x 128-512 MB).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable, Sequence

import pyarrow.parquet as pq

from georay import __version__


def partition_groups(input_files: Sequence[str], group_size: int) -> list[tuple[str, list[str]]]:
    """Deterministic (name, files) groups: part-00000, part-00001, ..."""
    files = sorted(input_files)
    return [
        (f"part-{i // group_size:05d}", list(files[i : i + group_size]))
        for i in range(0, len(files), group_size)
    ]


def completed_partitions(out_dir: str) -> set[str]:
    if not os.path.isdir(out_dir):
        return set()
    return {
        d
        for d in os.listdir(out_dir)
        if os.path.exists(os.path.join(out_dir, d, "_SUCCESS"))
    }


def resumable_run(
    input_files: Sequence[str],
    out_dir: str,
    build_pipeline: Callable[[list[str]], "ray.data.Dataset"],  # noqa: F821
    group_size: int = 8,
    fail_after: int | None = None,
) -> dict:
    """Run ``build_pipeline(files)`` per input group, checkpointing each.

    Returns run metrics: partitions done/skipped, rows read (from the
    input files' parquet footers) and rows written, over the partitions
    this run completed.
    ``fail_after`` aborts after N completed partitions (test hook for the
    resume-after-kill scenario).
    """
    os.makedirs(out_dir, exist_ok=True)
    done = completed_partitions(out_dir)
    stats = {"partitions": 0, "skipped": 0, "rows_out": 0, "rows_in": 0}
    completed_this_run = 0
    for name, files in partition_groups(input_files, group_size):
        pdir = os.path.join(out_dir, name)
        if name in done:
            # a completed partition is only skippable if it was built from
            # THESE inputs — resuming with a different group_size or a
            # changed input list would otherwise duplicate/lose rows
            with open(os.path.join(pdir, "lineage.json")) as f:
                recorded = json.load(f).get("inputs")
            if recorded != files:
                raise ValueError(
                    f"Partition {name} was checkpointed from different inputs "
                    f"({len(recorded or [])} files) than the current grouping "
                    f"({len(files)} files); resume with the original input list "
                    f"and group_size, or use a fresh out_dir"
                )
            stats["skipped"] += 1
            continue
        if fail_after is not None and completed_this_run >= fail_after:
            raise RuntimeError(f"injected failure before partition {name}")
        # partial leftovers from a killed run are discarded wholesale
        if os.path.isdir(pdir):
            shutil.rmtree(pdir)
        os.makedirs(os.path.join(pdir, "data"))
        t0 = time.perf_counter()
        # stream straight to parquet (backpressure intact — no
        # materialize-then-write double pass); the row count comes from
        # the written file footers, which are metadata-only reads
        data_dir = os.path.join(pdir, "data")
        build_pipeline(files).write_parquet(data_dir)
        rows_in = sum(pq.read_metadata(f).num_rows for f in files)
        rows_out = sum(
            pq.read_metadata(os.path.join(data_dir, f)).num_rows
            for f in os.listdir(data_dir)
            if f.endswith(".parquet")
        )
        lineage = {
            "partition": name,
            "inputs": files,
            "rows_in": rows_in,
            "rows_out": rows_out,
            "wall_sec": round(time.perf_counter() - t0, 3),
            "engine_version": __version__,
            "completed_at_unix": time.time(),
        }
        with open(os.path.join(pdir, "lineage.json"), "w") as f:
            json.dump(lineage, f)
        # _SUCCESS last: the atomic commit point
        open(os.path.join(pdir, "_SUCCESS"), "w").close()
        stats["partitions"] += 1
        stats["rows_in"] += rows_in
        stats["rows_out"] += rows_out
        completed_this_run += 1
    return stats


def read_lineage(out_dir: str) -> list[dict]:
    out = []
    for d in sorted(completed_partitions(out_dir)):
        with open(os.path.join(out_dir, d, "lineage.json")) as f:
            out.append(json.load(f))
    return out
