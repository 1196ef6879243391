"""What ``python -m georay flagship | dedup | resume`` leave in ``--out``:
a re-run replaces its outputs instead of appending to them, an input with
no geo page gives empty outputs, and ``resume`` checkpoints the
flagship's join rows per input group."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def cli(ray_session, monkeypatch, capsys):
    """``python -m georay <argv>`` in this process, on the test session's
    Ray; returns the summary line it prints."""
    import ray

    from georay.__main__ import main

    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)

    def run(*argv):
        main(list(argv))
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return run


def _sorted(path, keys):
    return pq.read_table(path).sort_by([(k, "ascending") for k in keys]).to_pydict()


class TestRerunReplacesOutputs:
    def test_flagship_twice_into_one_out(self, cli, tmp_path):
        out = str(tmp_path / "run")
        first = cli("flagship", "--sf-dir", SF, "--out", out)
        rows = _sorted(f"{out}/join_rows", ["doc_id", "polygon_id"])
        cells = _sorted(f"{out}/cell_agg", ["cell"])
        # the summary's counts are the written outputs' rows
        assert first["join_rows"] == len(rows["doc_id"]) > 0
        assert first["cells"] == len(cells["cell"]) > 0
        assert sorted(os.listdir(out)) == ["cell_agg", "join_rows", "tiles"]
        assert cli("flagship", "--sf-dir", SF, "--out", out) == first
        assert _sorted(f"{out}/join_rows", ["doc_id", "polygon_id"]) == rows
        assert _sorted(f"{out}/cell_agg", ["cell"]) == cells

    def test_dedup_twice_into_one_out(self, cli, tmp_path):
        src = f"{SF}/documents.parquet"
        out = str(tmp_path / "dedup")
        first = cli("dedup", "--input", src, "--out", out)
        survivors = _sorted(f"{out}/survivors", ["doc_id"])
        resolution = _sorted(f"{out}/resolution", ["doc_id"])
        assert first["survivors"] == len(survivors["doc_id"]) == first["input_docs"] - first["dropped"]
        assert first["clustered_docs"] == len(resolution["doc_id"]) > 0
        assert cli("dedup", "--input", src, "--out", out) == first
        assert _sorted(f"{out}/survivors", ["doc_id"]) == survivors
        assert _sorted(f"{out}/resolution", ["doc_id"]) == resolution


class TestNoGeoInput:
    def test_flagship_cli_with_out(self, cli, tmp_path):
        # the synthesis gives a page a coordinate unless doc_id % 10 == 7
        docs = pq.read_table(f"{SF}/documents.parquet")
        (tmp_path / "nogeo").mkdir()
        pq.write_table(
            docs.filter(pa.array(docs.column("doc_id").to_numpy() % 10 == 7)),
            tmp_path / "nogeo" / "documents.parquet",
        )
        out = tmp_path / "run"
        summary = cli("flagship", "--sf-dir", str(tmp_path / "nogeo"), "--out", str(out))
        assert (summary["join_rows"], summary["cells"]) == (0, 0)
        assert sorted(os.listdir(out)) == ["cell_agg", "join_rows", "tiles"]
        assert all(os.listdir(out / d) == [] for d in os.listdir(out))


class TestResumeCli:
    def test_resume_matches_flagship_and_skips_on_rerun(self, cli, tmp_path):
        from georay.pipelines.flagship import flagship
        from georay.pipelines.pages import read_pages

        docs = pq.read_table(f"{SF}/documents.parquet")
        inp = tmp_path / "in"
        inp.mkdir()
        half = docs.num_rows // 2
        pq.write_table(docs.slice(0, half), inp / "a.parquet")
        pq.write_table(docs.slice(half), inp / "b.parquet")
        out = str(tmp_path / "resume")
        argv = ("resume", "--input", str(inp), "--out", out, "--synthesize", "--group-size", "1")

        stats = cli(*argv)
        assert (stats["partitions"], stats["skipped"]) == (2, 0)
        assert stats["rows_in"] == docs.num_rows == 500
        lineage = [json.load(open(f"{out}/part-{i:05d}/lineage.json")) for i in range(2)]
        assert [r["rows_in"] for r in lineage] == [half, docs.num_rows - half]

        keys = [("doc_id", "ascending"), ("polygon_id", "ascending")]
        cols = ["doc_id", "polygon_id", "url", "predicate"]
        got = pa.concat_tables(
            pq.read_table(f"{out}/part-{i:05d}/data").select(cols) for i in range(2)
        ).sort_by(keys)
        joined, _ = flagship(read_pages(SF))
        want = pa.Table.from_pandas(joined.to_pandas()[cols], preserve_index=False).sort_by(keys)
        assert got.num_rows == stats["rows_out"] > 0
        assert got.to_pydict() == want.to_pydict()

        again = cli(*argv)
        assert (again["partitions"], again["skipped"]) == (0, 2)
