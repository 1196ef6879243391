"""`python -m georay curate` — the end-to-end training-data curation CLI."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest


def test_curate_cli(tmp_path):
    out = str(tmp_path / "curated")
    proc = subprocess.run(
        [
            sys.executable, "-m", "georay", "curate",
            "--input", "/root/testdata/sf0.001/documents.parquet",
            "--out", out,
            "--min-quality-bp", "3000",
            "--min-tokens", "5",
            "--langs", "en,de,fr,es,zh",
            "--rate-bp", "8000",
            "--num-cpus", "4",
        ],
        capture_output=True, text=True, timeout=280,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["input_docs"] == 500
    assert 0 < stats["survivors"] < 500
    assert sum(stats["per_lang"].values()) == stats["survivors"]
    # partitioned-by-language hive layout on disk
    parts = [d for d in os.listdir(out) if d.startswith("lang_pred=")]
    assert parts, os.listdir(out)
    # survivors are exact-deduped: no two rows share identical text
    t = pq.read_table(out, columns=["text"])
    texts = t.column("text").to_pylist()
    assert len(texts) == len(set(texts)) == stats["survivors"]
    # the annotated-corpus checkpoint is gone once the run ends
    assert os.listdir(tmp_path) == ["curated"]


@pytest.mark.parametrize(
    "flags", [["--min-quality-bp", "10001"], ["--langs", "xx"]], ids=["quality", "langs"]
)
def test_curate_cli_keeps_nothing(tmp_path, flags):
    """A filter that keeps no document: the run still exits 0, reports no
    survivors and leaves an empty output and no checkpoint."""
    import pyarrow as pa

    docs = str(tmp_path / "docs.parquet")
    words = "the quick brown fox jumps over a lazy dog near river bank".split()
    texts = [" ".join(words[i % 5:] + words[: i % 5]) for i in range(50)]
    pq.write_table(pa.table({"doc_id": pa.array(range(50), pa.int64()), "text": texts}), docs)
    out = str(tmp_path / "curated")
    proc = subprocess.run(
        [sys.executable, "-m", "georay", "curate", "--input", docs, "--out", out,
         "--num-cpus", "2", *flags],
        capture_output=True, text=True, timeout=280,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["input_docs"] == 50
    assert stats["survivors"] == 0 and stats["per_lang"] == {}
    assert sorted(os.listdir(tmp_path)) == ["curated", "docs.parquet"]
    assert os.listdir(out) == []


def test_curate_cli_same_rows_on_both_routes(ray_session, monkeypatch, copartitions, tmp_path, capsys):
    """The survivor semi-join is one ``keyed_join``: the same summary and
    rows whether the survivor ids are broadcast (no ``copartition``) or,
    with ``BROADCAST_BYTES = 0``, co-partitioned with the corpus."""
    import ray

    from georay.__main__ import main

    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    outs = iter([str(tmp_path / "out0"), str(tmp_path / "out1")])

    def run():
        out = next(outs)
        main(["curate", "--input", "/root/testdata/sf0.001/documents.parquet", "--out", out,
              "--min-quality-bp", "3000", "--rate-bp", "8000"])
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        summary.pop("out")
        rows = pq.read_table(out).to_pandas()
        return summary, sorted(map(tuple, rows.astype(str).values.tolist()))

    broadcast = run()
    assert not copartitions
    monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
    shuffled = run()
    assert copartitions
    assert broadcast == shuffled
    assert 0 < broadcast[0]["survivors"] == len(broadcast[1])


def test_pack_cli(tmp_path):
    import duckdb

    out = str(tmp_path / "packed")
    proc = subprocess.run(
        [
            sys.executable, "-m", "georay", "pack",
            "--input", "/root/testdata/sf0.001/documents.parquet",
            "--out", out,
            "--seq-len", "512",
            "--bins-per-file", "64",
            "--num-cpus", "4",
        ],
        capture_output=True, text=True, timeout=280,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["docs"] == 500
    # offsets reconstruct the serial scan exactly
    got = duckdb.sql(
        f"SELECT doc_id, n_tokens, tok_offset FROM read_parquet('{out}/**/*.parquet') ORDER BY doc_id"
    ).df()
    want = duckdb.sql(
        "SELECT doc_id, "
        "  length(regexp_extract_all(text, '\\S+')) AS n_tokens, "
        "  CAST(COALESCE(SUM(length(regexp_extract_all(text, '\\S+'))) OVER ("
        "    ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS tok_offset "
        "FROM read_parquet('/root/testdata/sf0.001/documents.parquet') ORDER BY doc_id"
    ).df()
    assert (got.values == want.values).all()
    # partitioned by bin range: more than one partition directory
    assert len([d for d in os.listdir(out) if d.startswith("bin_range=")]) >= 1


def test_curate_failure_leaves_no_checkpoint(tmp_path):
    """A stage after the annotated-corpus checkpoint raises: the run
    fails, and no checkpoint directory is left behind, neither beside
    ``--out`` nor in the temp dir."""
    import tempfile

    import pyarrow as pa

    docs = str(tmp_path / "docs.parquet")
    words = "the quick brown fox jumps over a lazy dog near river bank".split()
    texts = [" ".join(words[i % 5:] + words[: i % 5]) for i in range(200)]
    pq.write_table(pa.table({"doc_id": pa.array(range(200), pa.int64()), "text": texts}), docs)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch), RAY_TMPDIR=tempfile.gettempdir())
    code = (
        "import sys\n"
        "import georay.partition\n"
        "def fail(*a, **k):\n"
        "    raise RuntimeError('stage after the checkpoint failed')\n"
        "georay.partition.keyed_join = fail\n"
        "from georay.__main__ import main\n"
        "main(sys.argv[1:])\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", code, "curate",
            "--input", docs,
            "--out", str(tmp_path / "curated"),
            "--min-quality-bp", "0",
            "--num-cpus", "2",
        ],
        capture_output=True, text=True, timeout=280, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode != 0
    assert "stage after the checkpoint failed" in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["docs.parquet", "tmp"]
    assert os.listdir(scratch) == []
