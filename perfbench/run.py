"""Repository benchmark: the deployed flagship and dedup entry points on
seeded inputs, end to end and layer by layer.

    python3 perfbench/run.py --workload flagship_uniform --seed 1 --seconds 12 --trace 0

Run it from the repository root.  Each run:

1. generates the workload's inputs from ``--seed`` (cached under
   ``.perfbench_cache/``; generation is excluded from every metric) and,
   for the flagship workloads, the Ray-free reference join output;
2. sets up ``SETUPS`` times (``--trace 1``: once): starts Ray with
   ``RAY_CPUS`` logical CPUs and makes one untimed warm-up run over an
   eighth of the input, which starts and warms the worker processes;
   ``setup_s`` is the median of these set-up times;
3. repeats the pipeline for about ``--seconds`` seconds (at least
   ``MIN_RUNS`` times), through
   ``georay.__main__.main`` exactly as ``python -m georay flagship --out``
   and ``python -m georay dedup`` run it (the CLI's own ``ray.shutdown``
   is held back so the warm session is reused), and checks every run's
   output (``check.py``);
4. prints each metric with its unit, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

The host this was sized on (a shared 4-vCPU VM) drifts by more than half
its speed within an hour, which moves every wall time with it.  So the
run also times :func:`host_probe`, a fixed job that shares no code with
georay, between every two timed steps (set-ups and pipeline runs), and
scales each step to a host that runs the probe in ``PROBE_REF_S``: a
step's ``slowdown`` is the mean of the probes on either side of it over
``PROBE_REF_S``, ``docs_per_s`` is the median of ``docs / wall *
slowdown`` over the runs, and ``setup_s`` the median of ``setup /
slowdown`` over the set-ups.  A change to georay moves them exactly as it
moves the raw figures, which are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: the Ray-free kernel pass (``kernels.py``), then
untraced runs for the first half of the window and traced runs
(``tracing.py``) for the rest; the spans go to
``.perfbench_out/<workload>-s<seed>-spans.json``.  A layer that does not
run on a workload reports 0.

Every timed pipeline run counts as attempted; one that raises, outlives
``RUN_TIMEOUT_S`` or fails its check counts as failed.  A timed-out run
is not retried: measuring stops there.  A failed warm-up fails the
benchmark run.

The benchmark itself runs in a child process under :func:`supervise`,
which ends every process the child leaves behind (Ray workers outlive
``ray.shutdown`` by a moment) and waits for each before it exits, and
ends the child if it outlives ``TOTAL_TIMEOUT_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "flagship_uniform": {"docs": 40_000, "files": 8},
    "dedup_near": {"docs": 2_000, "files": 4},
}
#: logical CPUs Ray gets.  More than one: at one, the join's actor pool
#: holds the only CPU and the flagship never finishes.
RAY_CPUS = 2
SETUPS = 2
#: timed runs per measurement at least, so a dedup run (12-25 s on that
#: VM) still reports a median of two
MIN_RUNS = 2
OBJECT_STORE_MB = 400
RUN_TIMEOUT_S = 75
#: the whole benchmark run, set-up and generation included
TOTAL_TIMEOUT_S = 170
#: set in the supervised child's environment
CHILD_ENV = "PERFBENCH_CHILD"
PR_SET_PDEATHSIG, PR_SET_CHILD_SUBREAPER = 1, 36
#: Ray's session files go here when the path is short enough: AF_UNIX
#: socket paths are capped at 107 bytes and Ray's sit 66 bytes below its
#: temp dir.  Under a longer checkout path Ray keeps its default.
RAY_TEMP = os.path.join(ROOT, ".pbray")
MAX_RAY_TEMP_DIR = 41
#: host_probe's time on that VM when idle; a probe is the mean of
#: PROBE_REPEATS, because a step is slowed by the host's mean load, not
#: its best moment
PROBE_REF_S = 0.15
PROBE_REPEATS = 2

END_TO_END = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "write_amp": "ratio",
}
PER_LAYER = {
    "pages.ns_per_row": "ns/row",
    "extract.ns_per_row": "ns/row",
    "extract.bytes_in": "B",
    "crs.ns_per_row": "ns/row",
    "cells.ns_per_row": "ns/row",
    "join.ns_per_row": "ns/row",
    "join.rows_out_per_in": "ratio",
    "join.init_s": "s",
    "aggregate.ns_per_row": "ns/row",
    "aggregate.combine_ratio": "ratio",
    "aggregate.merge_s": "s",
    "flagship.geo_pass_s": "s",
    "flagship.join_pass_s": "s",
    "flagship.agg_pass_s": "s",
    "flagship.files_written": "count",
    "flagship.bytes_written": "B",
    "dedup.minhash.ns_per_row": "ns/row",
    "dedup.candidates_s": "s",
    "dedup.candidate_pairs": "count",
    "dedup.verify_s": "s",
    "dedup.verify_precision": "ratio",
    "dedup.components_s": "s",
    "dedup.apply_s": "s",
    "runtime.overhead_s": "s",
    "runtime.tasks": "count",
    "runtime.datasets_executed": "count",
    "runtime.shuffle_s": "s",
    "trace.overhead_s": "s",
}


class RunTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise RunTimeout in the main thread after ``seconds``."""

    def fire(*_):
        raise RunTimeout(f"run exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def start_ray():
    import ray
    import ray.data

    kwargs = dict(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        object_store_memory=OBJECT_STORE_MB << 20,
        log_to_driver=False,
    )
    if len(RAY_TEMP) <= MAX_RAY_TEMP_DIR:
        kwargs["_temp_dir"] = RAY_TEMP
    ray.init(**kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False


def run_cli(argv: list[str]) -> None:
    """``python -m georay <argv>`` in this process, on the running Ray
    session; the summary the command prints is discarded."""
    import ray

    from georay.__main__ import main

    shutdown = ray.shutdown
    ray.shutdown = lambda *a, **k: None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    finally:
        ray.shutdown = shutdown


def pipeline_argv(workload: str, src: str, out: str) -> list[str]:
    if workload == "dedup_near":
        return ["dedup", "--input", f"{src}/documents.parquet", "--out", out]
    return ["flagship", "--sf-dir", src, "--out", out]


def host_cpus() -> dict:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS) and the size of
    the CPU affinity mask."""
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=False).stdout.strip()
    return {"nproc": int(out) if out.isdigit() else None, "cpus": len(os.sched_getaffinity(0))}


def host_probe() -> float:
    """Seconds for a fixed job shaped like the pipelines' work (string
    formatting in Python, an Arrow regex and group-by, a parquet round
    trip) that shares no code with georay."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t0 = time.perf_counter()
    html = pa.array([f'<meta content="{i * 0.01:.2f};{i * 0.02:.2f}">' for i in range(100_000)])
    hit = pc.extract_regex(html, r'content="(?P<a>[0-9.]+);(?P<b>[0-9.]+)"')
    t = pa.table({"k": pa.array(np.arange(100_000) % 97), "h": html, "m": hit})
    t.group_by("k").aggregate([("h", "count")])
    buf = io.BytesIO()
    pq.write_table(t, buf)
    pq.read_table(io.BytesIO(buf.getvalue()))
    np.sort(np.random.default_rng(0).random(300_000))
    return time.perf_counter() - t0


def dir_bytes(path: str) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    n = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            n += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return n, size


class Bench:
    def __init__(self, workload: str, seed: int):
        import gen
        import kernels

        self.workload, self.seed = workload, seed
        self.out_root = os.path.join(ROOT, ".perfbench_out")
        self.work = os.path.join(self.out_root, f"work-{os.getpid()}")
        spec = WORKLOADS[workload]
        self.src = gen.generate(workload, seed, spec["docs"], spec["files"],
                                os.path.join(ROOT, ".perfbench_cache"))
        with open(os.path.join(self.src, "meta.json")) as f:
            self.meta = json.load(f)
        self.input_bytes = dir_bytes(os.path.join(self.src, "documents.parquet"))[1]
        if workload == "dedup_near":
            import numpy as np

            self.survivors = np.load(os.path.join(self.src, "survivors.npy"))
        else:
            ref_path = os.path.join(self.src, "reference.json")
            if not os.path.exists(ref_path):
                with open(ref_path + ".tmp", "w") as f:
                    json.dump(kernels.flagship_reference(self.src), f)
                os.rename(ref_path + ".tmp", ref_path)
            with open(ref_path) as f:
                self.reference = json.load(f)
        self.attempted = self.failed = 0
        self.timed_out = False
        self.reps: list[dict] = []
        self.probes: list[float] = []
        self._probe = None  # the last probe, while no timed step followed it

    def probe(self) -> float:
        """host_probe's mean time over PROBE_REPEATS, taken now, or the last
        one if no timed step ran since: the probe between two steps serves
        both."""
        if self._probe is None:
            self._probe = fmean(host_probe() for _ in range(PROBE_REPEATS))
            self.probes.append(self._probe)
        return self._probe

    def slowdown(self, before: float) -> float:
        """How many times slower than the reference host the step just
        timed ran: the probes taken just before and just after it, averaged,
        over PROBE_REF_S."""
        self._probe = None
        return (before + self.probe()) / 2 / PROBE_REF_S

    def check(self, out: str) -> list[str]:
        import check

        if self.workload == "dedup_near":
            return check.check_dedup(out, self.survivors)
        return check.check_flagship(out, self.meta["geo_pages"], self.reference)

    def run_once(self, tracer=None) -> dict | None:
        """One checked pipeline run; its record, or None if it failed."""
        from tracing import PeakRss, duration, hooks

        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        argv = pipeline_argv(self.workload, self.src, out)
        before = self.probe()
        try:
            with PeakRss() as rss, time_limit(RUN_TIMEOUT_S):
                if tracer is None:
                    t0 = time.perf_counter()
                    run_cli(argv)
                    wall = time.perf_counter() - t0
                else:
                    with hooks(tracer), tracer.span("pipeline") as sp:
                        run_cli(argv)
                    wall = duration(sp)
        except RunTimeout as e:
            print(f"run {self.attempted} timed out: {e}", file=sys.stderr)
            self.failed += 1
            self.timed_out = True
            return None
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self._probe = None
            return None
        slowdown = self.slowdown(before)
        problems = self.check(out)
        if problems:
            print(f"run {self.attempted} output check failed: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        files, size = dir_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return {
            "wall_s": wall,
            "slowdown": slowdown,
            "docs_per_s": self.meta["docs"] / wall,
            "peak_rss_mb": rss.peak_bytes / 2**20,
            "write_amp": size / self.input_bytes,
            "files_written": files,
            "bytes_written": size,
        }

    def setup(self, times: int) -> list[tuple[float, float]]:
        """Start Ray and make the untimed warm-up run, ``times`` times; the
        last session stays up for measuring.  -> (seconds, slowdown) per
        set-up."""
        import ray

        samples = []
        warm_src, warm_out = os.path.join(self.src, "warmup"), os.path.join(self.work, "warmup")
        for i in range(times):
            if i:
                ray.shutdown()
            before = self.probe()
            t0 = time.perf_counter()
            start_ray()
            with time_limit(RUN_TIMEOUT_S):
                run_cli(pipeline_argv(self.workload, warm_src, warm_out))
            samples.append((time.perf_counter() - t0, self.slowdown(before)))
            shutil.rmtree(warm_out, ignore_errors=True)
        return samples

    def measure(self, seconds: float, min_runs: int, tracer=None) -> list[dict]:
        """Back-to-back runs for about ``seconds``, and at least
        ``min_runs``: past those, a run starts only if a run as long as
        the last one still fits."""
        reps, runs, t_start = [], 0, time.perf_counter()
        while not self.timed_out:
            runs += 1
            if tracer is not None:
                tracer.run_id = f"{self.workload}-s{self.seed}-r{self.attempted + 1}"
            rec = self.run_once(tracer)
            if rec is not None:
                rec["run_id"] = tracer.run_id if tracer is not None else None
                reps.append(rec)
            elapsed = time.perf_counter() - t_start
            last = rec["wall_s"] if rec else 0.0
            if runs >= min_runs and elapsed + last > seconds:
                break
        return reps


def end_to_end(bench: Bench, setup_samples: list[tuple[float, float]]) -> dict:
    reps = bench.reps
    return {
        "docs_per_s": median(r["docs_per_s"] * r["slowdown"] for r in reps),
        "setup_s": median(s / slowdown for s, slowdown in setup_samples),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "write_amp": median(r["write_amp"] for r in reps),
    }


def rep_layers(spans: list[dict]) -> dict:
    """Per-layer values of one traced run, from its spans."""
    from tracing import covered_s, duration

    total = lambda name: sum(duration(s) for s in spans if s["name"] == name)  # noqa: E731
    execs = [s for s in spans if s["name"] == "execute"]
    ops = [op for s in execs for op in s.get("operators", [])]
    # the layers' own time in this run is the work Ray Data's tasks did
    # (every kernel, read and write runs inside one), spread over the
    # RAY_CPUS slots; the rest of the wall is the runtime's: scheduling,
    # shuffles' data movement, idle slots and the driver's glue
    (pipeline,) = (s for s in spans if s["name"] == "pipeline")
    task_s = sum(op["wall_s"] for op in ops)
    out = {
        "runtime.overhead_s": duration(pipeline) - task_s / RAY_CPUS,
        "runtime.tasks": sum(op["tasks"] for op in ops),
        "runtime.datasets_executed": sum(1 for s in execs if s.get("operators")),
        "runtime.shuffle_s": covered_s((op["start"], op["end"]) for op in ops if op["shuffle"]),
        "flagship.geo_pass_s": total("write:tiles"),
        "flagship.join_pass_s": total("write:join_rows"),
        "flagship.agg_pass_s": total("write:cell_agg"),
        "dedup.candidates_s": total("dedup.candidates"),
        "dedup.verify_s": total("dedup.verify"),
        "dedup.components_s": total("dedup.components"),
        "dedup.apply_s": total("dedup.apply"),
    }
    # final cell merge: from the end of the partial-aggregate operator to
    # the end of the aggregate pass
    agg_ids = {s["id"] for s in spans if s["name"] == "write:cell_agg"}
    agg_ops = [op for s in execs if s["parent"] in agg_ids for op in s.get("operators", [])]
    partial_end = [op["end"] for op in agg_ops if "cell_partial_agg" in op["name"]]
    out["aggregate.merge_s"] = max(op["end"] for op in agg_ops) - max(partial_end) if partial_end else 0.0
    cand = [s["counts"]["rows_out"] for s in spans if s["name"] == "dedup.candidates"]
    verified = [s["counts"]["rows_out"] for s in spans if s["name"] == "dedup.verify"]
    out["dedup.candidate_pairs"] = sum(cand)
    out["dedup.verify_precision"] = sum(verified) / sum(cand) if sum(cand) else 0.0
    return out


def per_layer(bench: Bench, clock, extra: dict, tracer, traced: list[dict], untraced: list[dict]) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    per_rep = [rep_layers(tracer.of_run(r["run_id"])) for r in traced]
    for name in per_rep[0]:
        metrics[name] = median(r[name] for r in per_rep)
    if bench.workload == "dedup_near":
        metrics["dedup.minhash.ns_per_row"] = clock.ns_per_row("dedup.minhash")
    else:
        for layer in ("pages", "extract", "crs", "cells", "join", "aggregate"):
            metrics[f"{layer}.ns_per_row"] = clock.ns_per_row(layer)
        metrics["extract.bytes_in"] = clock.bytes_in["extract"]
        metrics["join.rows_out_per_in"] = clock.rows_out["join"] / max(1, clock.rows_in["join"])
        metrics["join.init_s"] = extra["join_init_s"]
        metrics["aggregate.combine_ratio"] = extra["partial_rows"] / max(1, extra["geo_rows"])
        metrics["flagship.files_written"] = median(r["files_written"] for r in traced)
        metrics["flagship.bytes_written"] = median(r["bytes_written"] for r in traced)
    metrics["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in untraced)
    return metrics


def report(bench: Bench, metrics: dict, units: dict, info: dict) -> int:
    correct = bench.failed == 0 and bench.attempted > 0
    for name, unit in units.items():
        print(f"{bench.workload}  {name:<28} {metrics[name]:>16.6g} {unit}")
    print(f"{bench.workload}  {'failed_frac':<28} {bench.failed / max(1, bench.attempted):>16.6g} ratio")
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def end_descendants() -> int:
    """Kill every process below this one and reap each; -> how many were
    reaped.  This process is a child subreaper, so an orphan anywhere below
    it becomes its child: when no child is left, no descendant is."""
    from tracing import tree

    reaped = 0
    while True:
        for pid in tree(os.getpid())[1:]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                reaped += 1
        except ChildProcessError:
            return reaped
        time.sleep(0.05)


def supervise(cmd: list[str], timeout: float) -> int:
    """Run ``cmd`` as a child and return its exit code, or 1 if it outlives
    ``timeout``; either way, end and reap every process it left behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def on_term(signum, _):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        # the child dies with this process, even if this one is killed
        child = subprocess.Popen(cmd, env={**os.environ, CHILD_ENV: "1"},
                                 preexec_fn=lambda: libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0))
        try:
            return child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: the benchmark outlived {timeout:.0f} s", file=sys.stderr)
            return 1
    finally:
        if left := end_descendants():
            print(f"ended {left} process(es) the benchmark left running", file=sys.stderr)


def main() -> int:
    if os.environ.get(CHILD_ENV) != "1":
        return supervise([sys.executable, os.path.abspath(__file__), *sys.argv[1:]], TOTAL_TIMEOUT_S)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)  # Ray workers import georay from this process's directory
    sys.path.insert(0, ROOT)
    try:
        import georay.__main__  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import georay from {ROOT}: {e}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    os.makedirs(bench.work, exist_ok=True)
    import ray

    info = {"workload": args.workload, "seed": args.seed, **host_cpus(),
            "ray_cpus": RAY_CPUS, "docs": bench.meta["docs"], "seconds": args.seconds}
    metrics = dict.fromkeys(PER_LAYER if args.trace else END_TO_END, 0.0)
    try:
        if args.trace:
            import kernels
            from tracing import Tracer

            info["setup_s"] = bench.setup(1)[0][0]
            tracer = Tracer()
            tracer.run_id = f"{args.workload}-s{args.seed}-kernels"
            with tracer.span("kernel_pass"):
                if bench.workload == "dedup_near":
                    clock, extra = kernels.dedup_pass(bench.src, tracer), {}
                else:
                    clock, _, extra = kernels.flagship_pass(bench.src, tracer=tracer)
            untraced = bench.measure(args.seconds / 2, 1)
            traced = bench.measure(args.seconds / 2, 1, tracer)
            bench.reps = untraced + traced
            if untraced and traced:
                metrics = per_layer(bench, clock, extra, tracer, traced, untraced)
            spans = os.path.join(bench.out_root, f"{args.workload}-s{args.seed}-spans.json")
            tracer.dump(spans, **info, kernels=clock.as_dict(), kernel_extra=extra,
                        untraced=untraced, traced=traced)
            info["spans"] = os.path.relpath(spans, ROOT)
        else:
            samples = bench.setup(SETUPS)
            info["setup_samples_s"] = [s for s, _ in samples]
            info["setup_slowdowns"] = [v for _, v in samples]
            bench.reps = bench.measure(args.seconds, MIN_RUNS)
            if bench.reps:
                metrics = end_to_end(bench, samples)
                info["raw_docs_per_s"] = median(r["docs_per_s"] for r in bench.reps)
                info["raw_setup_s"] = median(info["setup_samples_s"])
        info["runs"] = [round(r["wall_s"], 4) for r in bench.reps]
        info["slowdowns"] = [round(r["slowdown"], 4) for r in bench.reps]
        info["probes"] = [round(p, 4) for p in bench.probes]
    except Exception:
        traceback.print_exc()
        bench.attempted = max(bench.attempted, 1)
        bench.failed = max(bench.failed, 1)
    finally:
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(bench.work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)
    return report(bench, metrics, PER_LAYER if args.trace else END_TO_END, info)


if __name__ == "__main__":
    sys.exit(main())
