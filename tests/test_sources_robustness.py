"""Source-format plurality and invalid-UTF-8 robustness."""

import os

import pyarrow as pa
import pyarrow.csv
import pyarrow.parquet as pq
import pytest

from georay.extract import extract_geo_batch, extract_geo_columns
from georay.sources import read_parquet_grouped, read_table


class TestInvalidUtf8:
    def test_invalid_bytes_dont_poison_batch(self):
        rows = [
            b'<meta name="geo.position" content="49.33;-123.26">',
            b"\xff\xfe broken \x80 bytes",  # invalid UTF-8
            b'<body>geo: 35.68, 139.69 \xc3(</body>',  # invalid continuation mid-doc
        ]
        lon, lat, epsg, has = extract_geo_columns(pa.array(rows, pa.binary()))
        assert has[0] and lat[0] == 49.33
        assert not has[1]
        assert has[2] and lat[2] == 35.68  # coords still found around bad bytes

    def test_batch_kernel_with_invalid_bytes(self):
        batch = pa.table(
            {
                "url": ["a", "b"],
                "html": pa.array([b"\xff\xfe", b'<meta name="ICBM" content="1.5, 2.5">'], pa.binary()),
                "text": ["t1", "t2"],
                "doc_id": pa.array([1, 2], pa.int64()),
            }
        )
        out = extract_geo_batch(batch)
        assert out.column("has_geo").to_pylist() == [False, True]


class TestSourceFormats:
    @pytest.fixture()
    def doc_files(self, tmp_path):
        t = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["a b", "c d", "e f"], pa.string()),
                "lang": pa.array(["en", "de", "fr"], pa.string()),
            }
        )
        paths = {}
        pq.write_table(t, tmp_path / "docs.parquet")
        paths["parquet"] = str(tmp_path / "docs.parquet")
        pa.csv.write_csv(t, tmp_path / "docs.csv")
        paths["csv"] = str(tmp_path / "docs.csv")
        with open(tmp_path / "docs.json", "w") as f:
            for row in t.to_pylist():
                import json

                f.write(json.dumps(row) + "\n")
        paths["json"] = str(tmp_path / "docs.json")
        return paths

    @pytest.mark.parametrize("fmt", ["parquet", "csv", "json"])
    def test_same_rows_from_every_format(self, ray_session, doc_files, fmt):
        ds = read_table(doc_files[fmt], columns=["doc_id", "text"])
        df = ds.to_pandas().sort_values("doc_id", ignore_index=True)
        assert list(df.columns) == ["doc_id", "text"]
        assert df["doc_id"].tolist() == [1, 2, 3]
        assert df["text"].tolist() == ["a b", "c d", "e f"]

    def test_format_inferred_from_extension(self, ray_session, doc_files):
        ds = read_table(doc_files["csv"])
        assert ds.count() == 3

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            read_table("/tmp/x.xyz", fmt="xyz")


class TestReadParquetGrouped:
    """The one read rule: ``max(cpus, rows // TASK_ROWS)`` blocks from
    ``min(files, that)`` tasks of whole files, each task's output split
    when the files are fewer; a read for a sink is split only by its rows
    (a task of twice ``TASK_ROWS`` or more)."""

    @pytest.mark.parametrize(
        "file_rows, cpus, want, want_sink",
        [
            # perfbench flagship_uniform: 8 files, 40k rows, 2 CPUs
            ([5_000] * 8, 2, (2, 1), (2, 1)),
            # perfbench dedup_near: 4 files, 2k rows, 2 CPUs
            ([500] * 4, 2, (2, 1), (2, 1)),
            # a small input fills every slot, never one task for all
            ([20] * 5, 2, (2, 1), (2, 1)),
            ([20] * 5, 16, (5, 3), (5, 1)),
            # one file is one task, its output split across the slots
            # unless a sink fuses into the read
            ([5_000], 4, (1, 4), (1, 1)),
            # 8M pages in 400 files: the data sets the count at 4 and 16
            ([20_000] * 400, 4, (400, 1), (400, 1)),
            ([20_000] * 400, 16, (400, 1), (400, 1)),
            # ... and in 8 files (bench.py's cache built on one CPU)
            ([1_000_000] * 8, 4, (8, 50), (8, 50)),
            ([1_000_000] * 8, 16, (8, 50), (8, 50)),
            # between the slots and the files: about TASK_ROWS per task
            ([5_000] * 67, 2, (16, 1), (16, 1)),
            ([39_999], 2, (1, 2), (1, 1)),
            ([40_000], 2, (1, 2), (1, 2)),
            ([100_000] * 3, 2, (3, 5), (3, 5)),
        ],
    )
    def test_tasks_of_the_rule(self, file_rows, cpus, want, want_sink):
        from georay.sources import TASK_ROWS, read_tasks

        assert TASK_ROWS == 20_000
        assert read_tasks(file_rows, cpus) == want
        assert read_tasks(file_rows, cpus, sink=True) == want_sink

    @staticmethod
    def _read_op(ds):
        """(the read operator's name, its tasks executed) of a run of ``ds``."""
        import re

        stats = ds.materialize().stats()
        m = re.search(r"Operator \d+ (ReadParquet\S*): (\d+) tasks executed", stats)
        assert m, stats
        return m.group(1), int(m.group(2))

    @staticmethod
    def _files(root, sizes):
        root.mkdir()
        start = 0
        for i, n in enumerate(sizes):
            pq.write_table(pa.table({"x": pa.array(range(start, start + n), pa.int64())}), root / f"part-{i}.parquet")
            start += n
        return str(root), start

    @pytest.mark.parametrize(
        "sizes, task_rows, sink, read_op",
        [
            ([20] * 5, 20, False, ("ReadParquet", 5)),
            ([20] * 5, 10_000, False, ("ReadParquet", 4)),
            ([5_000], 10_000, False, ("ReadParquet->SplitBlocks(4)", 1)),
            ([5_000], 10_000, True, ("ReadParquet", 1)),
            ([5_000], 1_000, True, ("ReadParquet->SplitBlocks(5)", 1)),
        ],
    )
    def test_ray_runs_the_rule(self, ray_session, monkeypatch, tmp_path, sizes, task_rows, sink, read_op):
        """On the session's 4 CPU slots Ray runs the tasks the rule gives
        and every row is read once."""
        import georay.sources

        monkeypatch.setattr(georay.sources, "TASK_ROWS", task_rows)
        path, rows = self._files(tmp_path / "in", sizes)
        if len(sizes) == 1:
            path = f"{path}/part-0.parquet"
        ds = read_parquet_grouped(path, ["x"], sink)
        assert self._read_op(ds) == read_op
        assert sorted(ds.to_pandas()["x"]) == list(range(rows))

    def test_no_file_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        for path in (tmp_path / "empty", tmp_path / "missing"):
            with pytest.raises(FileNotFoundError, match="no parquet file"):
                read_parquet_grouped(str(path), ["x"])


@pytest.mark.skipif(
    not os.path.isdir("/root/reference/src/test/resources"), reason="reference fixture corpus not present"
)
class TestReadGml:
    def test_reference_corpus_inventory(self, ray_session):
        """Distributed GML source over the reference's own fixture corpus
        (SURVEY §2.7: XML documents are the reference's only source
        format): geometry files parse through the full G-04/EP-1 chain
        inside map_batches; non-geometry docs are inventoried as error
        rows instead of killing the job."""
        from georay.sources import read_gml

        out = read_gml("/root/reference/src/test/resources/gml").to_pandas()
        ok = out[out.error.isna()]
        assert len(ok) >= 30  # the geometry fixtures
        assert {"Point", "Curve", "Surface", "Polygon", "LineString"} <= set(ok.kind)
        # every parsed geometry has a sane 4326 envelope and coords
        assert (ok.n_coords >= 1).all()
        assert ok.minx.le(ok.maxx).all() and ok.miny.le(ok.maxy).all()
        assert ok.minx.ge(-180).all() and ok.maxx.le(180).all()
        # the known non-geometry docs (temporal, AIXM edge cases) are
        # flagged, not silently dropped: every file on disk gets a row
        import glob
        n_files = len(glob.glob("/root/reference/src/test/resources/gml/**/*.xml",
                                recursive=True))
        assert out.error.notna().sum() >= 1
        assert len(out) == n_files

    def test_strict_raises_on_mixed_corpus(self, ray_session):
        import pytest

        from georay.sources import read_gml

        # the temporal docs are valid XML but not geometries: strict mode
        # must re-raise the PARSE failure (not pass on any infra error)
        with pytest.raises(Exception, match="[Uu]nsupported|[Uu]nknown|geometry|kind"):
            read_gml(
                "/root/reference/src/test/resources/gml/temporal", strict=True
            ).to_pandas()
