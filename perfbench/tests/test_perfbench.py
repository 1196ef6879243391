"""Tests of the benchmark's own pieces; no Ray session is started.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

import check  # noqa: E402
import gen  # noqa: E402
import kernels  # noqa: E402
import run  # noqa: E402


def _files(path):
    out = {}
    for dirpath, _, names in os.walk(path):
        for n in names:
            p = os.path.join(dirpath, n)
            with open(p, "rb") as f:
                out[os.path.relpath(p, path)] = f.read()
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = gen.generate(workload, 7, 600, 3, str(tmp_path / "a"))
    b = gen.generate(workload, 7, 600, 3, str(tmp_path / "b"))
    c = gen.generate(workload, 8, 600, 3, str(tmp_path / "c"))
    assert _files(a) == _files(b)
    assert len(_files(a)) == (8 if workload == "dedup_near" else 7)
    assert _files(a) != _files(c)


def test_flagship_ids_are_distinct():
    ids = gen.flagship_docs(5, 1000).column("doc_id").to_numpy()
    assert len(np.unique(ids)) == 1000


def test_dedup_corpus_survivors_are_cluster_minima():
    docs, survivors = gen.dedup_corpus(4, 500)
    ids = docs.column("doc_id").to_numpy()
    assert len(np.unique(ids)) == 500
    assert set(survivors) <= set(ids)
    # about a fifth of the corpus is planted duplicates, some of which drop
    assert 0.75 * 500 < len(survivors) < 0.95 * 500


@pytest.fixture(scope="module")
def flagship_output(tmp_path_factory):
    """A small input, its Ray-free reference, and a correct join_rows
    output written the way the pipeline writes it."""
    tmp = tmp_path_factory.mktemp("flagship")
    src = gen.generate("flagship_uniform", 3, 800, 2, str(tmp))
    _, rows, extra = kernels.flagship_pass(src)
    ref = {"join_rows": rows.num_rows, "join_digest": check.join_digest(rows)}
    return tmp, rows, ref, extra


def _write_join(out, table):
    os.makedirs(out / "join_rows", exist_ok=True)
    pq.write_table(table, out / "join_rows" / "part-0.parquet")


def test_checker_accepts_reordered_join_rows(flagship_output):
    tmp, rows, ref, _ = flagship_output
    out = tmp / "reordered"
    _write_join(out, rows.take(np.arange(rows.num_rows)[::-1]))
    assert check.check_join(str(out), ref) == []


def test_checker_rejects_one_dropped_join_row(flagship_output):
    tmp, rows, ref, _ = flagship_output
    out = tmp / "dropped"
    _write_join(out, rows.slice(1))
    assert check.check_join(str(out), ref) != []


def test_checker_rejects_one_changed_join_row(flagship_output):
    tmp, rows, ref, _ = flagship_output
    out = tmp / "changed"
    ids = rows.column("doc_id").to_numpy().copy()
    ids[0] += 1
    _write_join(out, rows.set_column(0, "doc_id", [ids]))
    assert check.check_join(str(out), ref) != []


def test_kernel_pass_counts_every_geo_page(flagship_output):
    tmp, rows, _, extra = flagship_output
    with open(os.path.join(tmp, "flagship_uniform-s3-n800-f2", "meta.json")) as f:
        meta = json.load(f)
    assert extra["geo_rows"] == extra["n_docs"] == meta["geo_pages"]
    assert rows.num_rows > 0


def test_dedup_checker_rejects_a_missing_survivor(tmp_path):
    survivors = np.array([3, 5, 9], np.int64)
    os.makedirs(tmp_path / "survivors")
    pq.write_table(pa.table({"doc_id": [9, 3, 5]}), tmp_path / "survivors" / "a.parquet")
    assert check.check_dedup(str(tmp_path), survivors) == []
    assert check.check_dedup(str(tmp_path), np.array([3, 5, 9, 11])) != []


def _running(marker):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if marker in f.read():
                    found.append(pid)
        except OSError:
            continue
    return found


@pytest.mark.parametrize("timeout", [30, 1])
def test_supervisor_ends_orphaned_grandchildren(timeout):
    """The child starts a grandchild that outlives it (as Ray's workers
    outlive their raylet) and exits, or, with the short timeout, is still
    running when the time is up; either way nothing is left running."""
    marker = f"{os.getpid()}.{timeout}"
    leaver = (f"import subprocess, time; subprocess.Popen(['sleep', '{marker}']); "
              f"time.sleep({0 if timeout > 1 else 60})")
    supervisor = (f"import sys; sys.path.insert(0, {BENCH!r}); import run; "
                  f"sys.exit(run.supervise([sys.executable, '-c', {leaver!r}], {timeout}))")
    done = subprocess.run([sys.executable, "-c", supervisor], timeout=60)
    assert done.returncode == (0 if timeout > 1 else 1)
    assert _running(marker.encode()) == []


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
