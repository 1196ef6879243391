"""Benchmark harness: headline pipeline throughput + per-query timings.

Prints ONE JSON line on stdout (all logs -> stderr):

  {"metric": "flagship_wall_sec", "value": <sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": <sf>, "num_cpus": N,
   "docs": <pages>, "docs_per_sec": <rate>, ...}

Headline pipeline (BASELINE.md protocol): ``georay.pipelines.flagship``
over the cached synthetic pages parquet -- extract -> reproject ->
cellize -> tiles write -> broadcast spatial join -> partial+final
per-cell aggregate, all three outputs written; docs/sec = pages / wall.
``cells`` counts the cells of every geo page (the aggregate runs over the
tiles, not over the join rows).

--scaling runs the SAME job at two parallelism levels (default
num_cpus=4 and 16 — both under this sandbox's ~23 effective cores; use
--scaling-cpus 8 32 for the wider spread) in fresh subprocesses on the
same input and reports both throughputs plus
scaling_efficiency = dps@4N / (4 * dps@N)  (sandbox proxy for the
N -> 4N node rule, per driver instruction), alongside the measured
hardware CPU-scaling ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def ensure_pages(sf_dir: str, n_pages: int, cache_root: str = "/tmp/georay_bench", skew: bool = False) -> str:
    """Materialize (once) a deterministic pages parquet of ~n_pages rows by
    replicating the documents table with offset doc_ids (each replica gets
    distinct coordinates).  Partitioned files so reads split well.

    ``skew=True`` rewrites half the geo pages to one dense urban
    coordinate (CC-realistic hot tile) to exercise the combiner-based
    skew defence under load."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    suffix = "_skew" if skew else ""
    out_dir = os.path.join(cache_root, f"pages_{sf_name}_{n_pages}_v3{suffix}")
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    if n_pages > 2_000_000 and not skew:
        return _ensure_pages_ray(sf_dir, n_pages, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    from georay.pipelines.pages import synthesize_pages_batch

    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    base = docs.num_rows
    reps = max(1, (n_pages + base - 1) // base)
    rows_per_file = 12_500
    buf = []
    buf_rows = 0
    file_i = 0

    def flush():
        nonlocal buf, buf_rows, file_i
        if buf:
            pq.write_table(pa.concat_tables(buf), os.path.join(out_dir, f"part-{file_i:05d}.parquet"))
            file_i += 1
            buf, buf_rows = [], 0

    total = 0
    for rep in range(reps):
        if total >= n_pages:
            break
        t = docs
        if rep:
            ids = pa.compute.add(t.column("doc_id"), rep * 10_000_000)
            t = t.set_column(t.schema.get_field_index("doc_id"), "doc_id", ids)
        # whole replicas only (matches the Ray builder): the cache may
        # hold up to base-1 rows more than the nominal n_pages; consumers
        # count actual rows from file metadata
        pages_t = synthesize_pages_batch(t)
        if skew:
            import numpy as _np
            # half the geo pages relocated to one NYC-ish block: replace
            # the html coordinate content deterministically
            html = pages_t.column("html").combine_chunks().to_pylist()
            ids = pages_t.column("doc_id").to_numpy()
            for i in _np.nonzero((ids % 2 == 0) & (ids % 10 != 7))[0]:
                h = html[i].decode()
                import re as _re
                h = _re.sub(r'content="[-0-9.]+;[-0-9.]+"', 'content="40.71;-74.01"', h)
                h = _re.sub(r'content="[-0-9.]+, [-0-9.]+"', 'content="40.71, -74.01"', h)
                h = _re.sub(r"geo: [-0-9.]+, [-0-9.]+", "geo: 40.71, -74.01", h, count=1)
                html[i] = h.encode()
            pages_t = pages_t.set_column(
                pages_t.schema.get_field_index("html"), "html", pa.array(html, pa.binary())
            )
        buf.append(pages_t)
        buf_rows += t.num_rows
        total += t.num_rows
        if buf_rows >= rows_per_file:
            flush()
    flush()
    open(done, "w").write(str(total))
    log(f"pages cache built: {out_dir} rows={total}")
    return out_dir


def _ensure_pages_ray(sf_dir: str, n_pages: int, out_dir: str) -> str:
    """Large caches synthesize in parallel through Ray itself: replicate
    the documents table as (rep, slice) work items, synthesize pages per
    batch, write partitioned parquet."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray
    import ray.data

    from georay.pipelines.pages import synthesize_pages_batch

    tmp_dir = out_dir + ".building"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    base = docs.num_rows
    reps = (n_pages + base - 1) // base
    docs_ref = None

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", include_dashboard=False)
    docs_ref = ray.put(docs)

    def synth(batch):
        t = ray.get(docs_ref)
        outs = []
        for rep in batch["rep"]:
            r = int(rep)
            tt = t
            if r:
                ids = pa.compute.add(tt.column("doc_id"), r * 10_000_000)
                tt = tt.set_column(tt.schema.get_field_index("doc_id"), "doc_id", ids)
            outs.append(synthesize_pages_batch(tt))
        return pa.concat_tables(outs)

    (
        ray.data.range(reps)
        .map_batches(lambda b: pa.table({"rep": pa.array(b["id"], pa.int64())}), batch_format="numpy")
        .map_batches(synth, batch_format="numpy", batch_size=4)
        .write_parquet(tmp_dir)
    )
    # finalize atomically: normalize names and write _DONE inside the tmp
    # dir FIRST, then a single rename publishes the finished cache — a
    # kill at any point leaves either tmp (rebuilt next run) or a complete
    # cache, never a half-published directory that wedges future runs
    for i, f in enumerate(sorted(os.listdir(tmp_dir))):
        if f.endswith(".parquet") and not f.startswith("part-"):
            os.rename(os.path.join(tmp_dir, f), os.path.join(tmp_dir, f"part-{i:05d}.parquet"))
    open(os.path.join(tmp_dir, "_DONE"), "w").write(str(reps * base))
    shutil.rmtree(out_dir, ignore_errors=True)  # stale half-published dir
    os.rename(tmp_dir, out_dir)
    log(f"pages cache built via ray: {out_dir} rows~{reps * base}")
    if owns_ray:
        ray.shutdown()
    return out_dir


def run_flagship(pages_dir: str, num_cpus: int, res: int = 7, repeats: int = 2):
    """Time ``georay.pipelines.flagship.flagship`` over the cached pages
    parquet, writing its three outputs (tiles, join rows, cell aggregate)
    to a directory beside the cache.

    The pipeline runs ``repeats`` times and the BEST run is reported:
    the first run pays one-time worker spawn + library import (~1.5 s x
    num_cpus of pure startup that a long-lived cluster amortizes away),
    and this sandbox's CPU supply fluctuates run to run — best-of is the
    steady-state figure the N vs 4N scaling rule compares.
    """
    import glob

    import pyarrow.parquet as pq
    import ray

    from georay.pipelines.flagship import flagship
    from georay.sources import parquet_rows, read_parquet_grouped

    if not ray.is_initialized():
        # cap per-worker Arrow IO threads: otherwise a low num_cpus run
        # borrows the whole machine for parquet decode through the IO pool
        # and the N-vs-4N comparison stops being a cluster-size proxy
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            runtime_env={"env_vars": {"ARROW_IO_THREADS": "2", "OMP_NUM_THREADS": "1"}},
        )

    out_dir = os.path.normpath(pages_dir) + "_flagship_out"
    wall = join_rows = n_cells = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        # The one read rule, for a read the sink fuses into (sink=True):
        # min(files, max(CPU slots, pages // TASK_ROWS)) tasks of whole
        # files, each writing one file set; a task of k * TASK_ROWS pages
        # or more is split into k blocks, one file set each.  Once the pages fill every
        # slot (pages >= CPUs x TASK_ROWS) the shapes follow the DATA alone,
        # so runs at different parallelism process identical task shapes.
        # A cache over 2M pages holds one file per Ray write task: built on
        # one CPU, the 8M cache is 8 files of 1M pages, read as 8 tasks of
        # 50 blocks at any CPU count.  The read is pruned to the columns
        # the pipeline uses (no `text`)
        pages = read_parquet_grouped(pages_dir, ["url", "warc_ts", "html", "lang", "doc_id"], sink=True)
        counts = flagship(pages, res=res, out_dir=out_dir)
        run_wall = time.perf_counter() - t0
        wall = run_wall if wall is None else min(wall, run_wall)
        join_rows, n_cells = counts["join_rows"]["rows"], parquet_rows(f"{out_dir}/cell_agg")

    n_docs = sum(pq.read_metadata(f).num_rows for f in glob.glob(f"{pages_dir}/part-*.parquet"))
    return {"wall_sec": wall, "docs": n_docs, "docs_per_sec": n_docs / wall, "join_rows": join_rows, "cells": n_cells}


def _logical_stage_count(ds) -> int | None:
    """Number of logical operators in the query's (final) Dataset plan —
    the per-query stage count BENCH reports so round-to-round timing
    regressions are attributable (each stage carries ~2.5 s fixed Ray
    overhead at sf0.1 in this sandbox; see BASELINE.md).  Counts the
    final dataset's lineage only: internally-materialized intermediates
    (e.g. a pinned signature table) root a fresh plan."""
    try:
        dag = ds._logical_plan.dag
    except AttributeError:
        return None

    seen = set()

    def walk(op):
        seen.add(op)
        for dep in op.input_dependencies:
            if dep not in seen:
                walk(dep)

    walk(dag)
    return len(seen)


def run_queries(sf_dir: str):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entry

    out = {}
    stages = {}
    for name, fn in entry.queries().items():
        t0 = time.perf_counter()
        res = fn(sf_dir)
        stages[name] = _logical_stage_count(res)
        # force execution
        if hasattr(res, "count"):
            res.count()
        out[name] = round(time.perf_counter() - t0, 3)
    return out, stages


def _pin_cpus(n: int) -> bool:
    """Restrict THIS process (and everything it spawns — the raylet and
    all Ray workers inherit the mask) to the first ``n`` host CPUs.  The
    physical bound makes a num_cpus=N leg a faithful N-core-node proxy:
    without it, an unthrottled host lets the small leg borrow far beyond
    its share through Ray core / IO threads and the efficiency ratio
    measures host-supply fluctuation instead of engine scheduling."""
    try:
        avail = sorted(os.sched_getaffinity(0))
        if len(avail) <= n:
            return False
        os.sched_setaffinity(0, set(avail[:n]))
        return True
    except (AttributeError, OSError):  # non-Linux / restricted sandbox
        return False


def one_run(args) -> dict:
    import ray

    if args.pin_cpus:
        # Pin to num_cpus + control_cpus while ray.init gets num_cpus
        # worker slots: the Ray control plane (driver, raylet, GCS,
        # object store — ~1 core of constant load, measured r4) runs on
        # the allowance instead of taxing the worker budget.  On a real
        # cluster the control plane is per-node and does not occupy
        # worker slots; without the allowance the 4-core leg loses ~25%
        # of its budget to it vs 6% at 16 and the N-vs-4N ratio measures
        # that artifact (1.277 apparent efficiency, r4) instead of
        # engine scheduling.
        args.pinned = _pin_cpus(args.num_cpus + max(0, args.control_cpus))
    pages_dir = ensure_pages(args.sf_dir, args.pages, skew=args.skew)
    head = run_flagship(pages_dir, args.num_cpus, repeats=args.repeats)
    qs, qstages = run_queries(args.sf_dir) if args.queries else ({}, {})
    ray.shutdown()
    sf = os.path.basename(os.path.normpath(args.sf_dir)).replace("sf", "")
    return {
        "metric": "flagship_wall_sec",
        "value": round(head["wall_sec"], 3),
        "unit": "sec",
        "queries": qs,
        "query_stages": qstages,
        "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
        "num_cpus": args.num_cpus,
        "cpus_pinned": bool(getattr(args, "pinned", False)),
        "skew": args.skew,
        "docs": head["docs"],
        "docs_per_sec": round(head["docs_per_sec"], 1),
        "join_rows": head["join_rows"],
        "cells": head["cells"],
    }


def _burn(seconds: float) -> int:
    t0 = time.perf_counter()
    x = 0
    while time.perf_counter() - t0 < seconds:
        x += 1
    return x


def _cpu_ceiling(lo: int, hi: int, seconds: float = 2.0, pinned: bool = False) -> float:
    """Measure THIS machine's raw process-level CPU scaling from lo -> hi
    concurrent busy loops.  Sandboxes cap effective cores below the
    advertised count (cgroup quota / SMT / throttling), which caps any
    pipeline's achievable efficiency; reporting the ceiling alongside the
    pipeline's efficiency separates scheduler quality from hardware.

    ``pinned=True`` restricts each n-loop pool to the FIRST n host cores
    (the same affinity masks the pinned pipeline legs use, inherited by
    the pool children), so the ceiling is measured under the identical
    supply conditions as the legs rather than on whichever idle cores the
    OS picks."""
    import multiprocessing as mp

    saved = None
    if pinned:
        try:
            saved = os.sched_getaffinity(0)
        except (AttributeError, OSError):
            pinned = False
    totals = {}
    try:
        for n in (lo, hi):
            if pinned:
                avail = sorted(saved)
                if len(avail) > n:
                    os.sched_setaffinity(0, set(avail[:n]))
            try:
                with mp.Pool(n) as p:
                    totals[n] = sum(p.map(_burn, [seconds] * n))
            finally:
                if pinned:
                    os.sched_setaffinity(0, saved)
    finally:
        if saved is not None:
            os.sched_setaffinity(0, saved)
    return (totals[hi] / totals[lo]) / (hi / lo)


def scaling_run(args) -> dict:
    """Two-cluster-size scaling proxy, A-B-A interleaved protocol.

    Legs run as lo (A1) -> hi (B) -> lo (A2), each a fresh CPU-pinned
    ``ray.init`` subprocess.  The sandbox has no real cluster, and rounds
    2-3 showed its per-core supply drifts by up to 3x between runs — a
    plain A-B pair cannot distinguish engine scaling from supply shift.
    The repeated A leg bounds the drift: the B leg is time-sandwiched
    between two identical measurements, so any supply change across the
    window shows up as A2/A1 != 1 and becomes an explicit error bar on
    the ratio instead of silently contaminating it.  Efficiency is
    computed against the geometric mean of A1 and A2 (the unbiased
    mid-window estimate of lo-leg throughput), and the busy-loop hardware
    ceiling is measured under the SAME affinity masks as the legs.

    validity: "ok-aba" when the measured drift bound is <= 5% — the
    efficiency is then trusted to that bar; anything wider is flagged for
    rerun.  An efficiency slightly above 1.0 with per-core parity across
    legs is the documented single-raylet artifact (one fixed Ray control
    plane taxes a 4-core budget proportionally more than a 16-core one;
    on a real N->4N cluster each node carries its own raylet), and is
    reported as-is with the drift bound rather than clamped."""
    ensure_pages(args.sf_dir, args.pages, skew=args.skew)  # build cache before timing
    lo, hi = args.scaling_cpus
    legs = []
    for n in (lo, hi, lo):
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--sf-dir", args.sf_dir,
            "--pages", str(args.pages),
            "--num-cpus", str(n),
            "--repeats", str(max(3, args.repeats)),
            "--no-queries",
            "--pin-cpus",
            "--control-cpus", str(args.control_cpus),
        ] + (["--skew"] if args.skew else [])
        log(f"scaling run num_cpus={n} ...")
        # scale the guard with the workload: a throttled-host 4-CPU leg of
        # 3 x 32M pages can legitimately take >30 min (r4: the fixed 1800s
        # killed an otherwise-valid run mid-leg)
        leg_timeout = max(1800, (args.pages * max(3, args.repeats)) // 15000)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=leg_timeout)
        if proc.returncode != 0:
            log(proc.stderr[-2000:])
            raise RuntimeError(f"scaling subprocess failed at num_cpus={n}")
        legs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a1, b, a2 = legs
    dps_a1, dps_hi, dps_a2 = (x["docs_per_sec"] for x in legs)
    dps_lo = (dps_a1 * dps_a2) ** 0.5
    drift = dps_a2 / dps_a1
    drift_bound = max(drift, 1.0 / drift)
    eff = dps_hi / (dps_lo * (hi / lo))
    ceiling = _cpu_ceiling(lo, hi, pinned=True)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "queries": {},
        "sf": b["sf"],
        "num_cpus": hi,
        "docs": b["docs"],
        "protocol": "aba",
        f"docs_per_sec@{lo}": round(dps_lo, 1),
        f"docs_per_sec@{lo}_legs": [dps_a1, dps_a2],
        f"docs_per_sec@{hi}": dps_hi,
        "supply_drift_bound": round(drift_bound, 4),
        "scaling_efficiency": round(eff, 3),
        "efficiency_interval": [
            round(eff / drift_bound, 3),
            round(eff * drift_bound, 3),
        ],
        "skew": args.skew,
        # a mixed pinned/unpinned run (e.g. hi == all available cores, so
        # pinning no-ops there) must be visibly different from a fully
        # pinned one — the validity of the ratio depends on it
        f"cpus_pinned@{lo}": a1.get("cpus_pinned", False)
        and a2.get("cpus_pinned", False),
        f"cpus_pinned@{hi}": b.get("cpus_pinned", False),
        "hw_cpu_scaling_ceiling": round(ceiling, 3),
        "efficiency_vs_hw_ceiling": round(eff / ceiling, 3),
        "validity": (
            f"ok-aba (drift bound {round((drift_bound - 1) * 100, 1)}%)"
            if drift_bound <= 1.05 and eff <= 1.05
            else (
                "supply drift > 5% across the A-B-A window; rerun"
                if drift_bound > 1.05
                else "efficiency > 1.05 despite bounded drift: systematic "
                "small-leg suppression (fixed control-plane tax?); check "
                "--control-cpus isolation"
            )
        ),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--pages", type=int, default=None)
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument(
        "--control-cpus",
        type=int,
        default=2,
        help="extra pinned cores for the Ray control plane (driver/raylet/"
        "GCS), outside the num_cpus worker budget; only with --pin-cpus",
    )
    ap.add_argument(
        "--pin-cpus", action="store_true", default=False,
        help="bind the process tree to num_cpus host cores (scaling legs set this)",
    )
    # default 4 vs 16: this sandbox exposes ~23 effective cores, so an
    # 8-vs-32 comparison is capped by hardware, not the engine; both legs
    # must fit under the physical core budget to proxy N vs 4N nodes
    ap.add_argument("--scaling-cpus", type=int, nargs=2, default=[4, 16])
    ap.add_argument("--no-queries", dest="queries", action="store_false", default=True)
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--skew", action="store_true", help="hot-cell (dense urban tile) input variant")
    args = ap.parse_args()
    if args.pages is None:
        # scaling needs enough work that compute dominates fixed job latency
        args.pages = 8_000_000 if args.scaling else 1_000_000
    out = scaling_run(args) if args.scaling else one_run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
