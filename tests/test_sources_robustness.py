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
    """The flagship's read: whole files per task, each task at least the
    row floor when the files are of one size; a file of twice the floor
    or more is split after its read."""

    @staticmethod
    def _read_op(ds):
        """(the read operator's name, its tasks executed) of a run of ``ds``."""
        import re

        stats = ds.materialize().stats()
        m = re.search(r"Operator \d+ (ReadParquet\S*): (\d+) tasks executed", stats)
        assert m, stats
        return m.group(1), int(m.group(2))

    @staticmethod
    def _rows_per_write_task(ds, root):
        """Rows each task of ``ds.write_datasink`` got, in no order."""
        import os

        from ray.data import Datasink
        from ray.data.block import BlockAccessor

        class RowsPerTask(Datasink):
            def write(self, blocks, ctx):
                n = sum(BlockAccessor.for_block(b).num_rows() for b in blocks)
                with open(f"{root}/{ctx.task_idx}", "w") as f:
                    f.write(str(n))

        os.mkdir(root)
        ds.write_datasink(RowsPerTask())
        return [int(open(f"{root}/{name}").read()) for name in os.listdir(root)]

    @staticmethod
    def _files(root, sizes):
        root.mkdir()
        start = 0
        for i, n in enumerate(sizes):
            pq.write_table(pa.table({"x": pa.array(range(start, start + n), pa.int64())}), root / f"part-{i}.parquet")
            start += n
        return str(root), start

    @pytest.mark.parametrize(
        "sizes, floor, read_op, write_tasks",
        [
            ([20] * 5, 20, ("ReadParquet", 5), 5),
            ([20] * 5, 30, ("ReadParquet", 2), 2),
            ([20] * 5, 45, ("ReadParquet", 1), 1),
            ([20] * 5, 10_000, ("ReadParquet", 1), 1),
            ([5_000], 10_000, ("ReadParquet", 1), 1),
            ([5_000], 3_000, ("ReadParquet", 1), 1),
            ([5_000], 1_000, ("ReadParquet->SplitBlocks(5)", 1), 5),
        ],
    )
    def test_each_task_holds_the_floor(self, ray_session, tmp_path, sizes, floor, read_op, write_tasks):
        path, rows = self._files(tmp_path / "in", sizes)
        if len(sizes) == 1:
            path = f"{path}/part-0.parquet"
        ds = read_parquet_grouped(path, ["x"], floor)
        assert self._read_op(ds) == read_op
        got = self._rows_per_write_task(ds, str(tmp_path / "tasks"))
        assert len(got) == write_tasks and sum(got) == rows
        assert min(got) >= min(floor, rows), got
        assert sorted(ds.to_pandas()["x"]) == list(range(rows))

    def test_no_file_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        for path in (tmp_path / "empty", tmp_path / "missing"):
            with pytest.raises(FileNotFoundError, match="no parquet file"):
                read_parquet_grouped(str(path), ["x"], 100)


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
