"""The benchmark's traced ``dedup_near`` run, end to end in this session.

``perfbench/tracing.py::hooks`` swaps the four dedup stages of
``georay.dedup`` for wrappers that ``.materialize()`` each stage's result,
so in a traced run every stage after the first gets a
``MaterializedDataset`` where the CLI alone would hand it a driver table.
This test runs ``python -m georay dedup`` under those hooks, as
``perfbench/run.py --trace 1`` does, and reads ``perfbench/`` only.
"""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_dedup_run_is_correct(ray_session, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import check
    import gen
    import kernels
    import ray
    import tracing

    from georay.__main__ import main

    src = gen.generate("dedup_near", 1, 2000, 4, str(tmp_path))
    survivors = np.load(f"{src}/survivors.npy")
    out = str(tmp_path / "out")
    # as run.run_cli: the CLI's own shutdown would end the session
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    tracer = tracing.Tracer()
    with tracing.hooks(tracer):
        main(["dedup", "--input", f"{src}/documents.parquet", "--out", out])
    assert check.check_dedup(out, survivors) == []
    names = [s["name"] for s in tracer.spans]
    assert {n: names.count(n) for n in tracing.DEDUP_STAGES.values()} == dict.fromkeys(
        tracing.DEDUP_STAGES.values(), 1
    )
    kernels.dedup_pass(src, tracer)
