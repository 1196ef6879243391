"""Flagship pipeline: the two routes ``out_dir`` selects (one streaming
write of tiles, join rows and cell partials then a small merge, or lazy
datasets that each re-derive the geo rows), the tile layout, a write task
killed mid-write, the partials' cleanup, and the plans' shape."""

import logging

import pytest

SF = "/root/testdata/sf0.001"
OUTPUTS = ["cell_agg", "join_rows", "tiles"]


def _pages():
    from georay.pipelines.pages import read_pages

    return read_pages(SF)


def _sorted_rows(ds, keys):
    return ds.to_pandas().sort_values(keys, ignore_index=True)


def _read_dir(path):
    """Every parquet file under ``path`` as one table (partition columns,
    which live in directory names, are not read)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    return pa.concat_tables(pq.read_table(f) for f in _parquet_files(path))


class TestFlagshipGeoCache:
    """How the geo rows reach the join and the aggregate: with ``out_dir``
    one streaming write emits every output and only counts come back;
    without one, lazy datasets each re-derive them and give the same rows."""

    def test_recompute_mode_matches(self, ray_session, tmp_path):
        from georay.pipelines.flagship import flagship

        j_lazy, a_lazy = flagship(_pages())
        out = str(tmp_path / "run")
        counts = flagship(_pages(), out_dir=out)
        keys = ["doc_id", "polygon_id"]
        want = _read_dir(f"{out}/join_rows").to_pandas().sort_values(keys, ignore_index=True)
        assert len(want) == counts["join_rows"]["rows"] > 0
        assert _sorted_rows(j_lazy, keys)[want.columns].equals(want)
        want = _read_dir(f"{out}/cell_agg").to_pandas().sort_values(["cell"], ignore_index=True)
        assert len(want) > 0
        assert _sorted_rows(a_lazy, ["cell"])[want.columns].equals(want)

    def test_recompute_mode_writes_nothing(self, ray_session, tmp_path, monkeypatch):
        import tempfile

        from georay.pipelines.flagship import flagship

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        joined, agg = flagship(_pages())
        assert joined.count() > 0 and agg.count() > 0
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_writes_partitioned_tiles(self, ray_session, tmp_path):
        import os

        from georay.pipelines.flagship import flagship
        from georay.sources import parquet_rows

        out = str(tmp_path / "run")
        counts = flagship(_pages(), out_dir=out)
        assert counts["join_rows"]["rows"] > 0 and parquet_rows(f"{out}/cell_agg") > 0
        assert counts["tiles"]["rows"] == _ray_free_geo().num_rows
        # partitioned layout: one directory per res-2 parent cell prefix,
        # never one giant file (resumable output contract)
        tiles = os.listdir(f"{out}/tiles")
        assert tiles and all(t.startswith("cell_prefix=") for t in tiles)
        # the per-task partials are merged into cell_agg and deleted
        assert sorted(os.listdir(out)) == OUTPUTS

    def test_partials_are_deleted_when_the_merge_raises(self, ray_session, tmp_path, monkeypatch):
        import os

        import georay.pipelines.flagship as mod

        def broken(*args, **kwargs):
            raise RuntimeError("merge failed")

        monkeypatch.setattr(mod, "hash_partition", broken)
        out = str(tmp_path / "run")
        with pytest.raises(RuntimeError, match="merge failed"):
            mod.flagship(_pages(), out_dir=out)
        assert sorted(os.listdir(out)) == OUTPUTS

    def test_killed_write_task_leaves_no_duplicate(self, ray_session, tmp_path, monkeypatch):
        """A write task whose worker dies after its tile files and before
        its join file is retried by Ray Data; the retry writes the same
        file names, so nothing is counted twice."""
        import os

        import georay.pipelines.flagship as mod

        marker = str(tmp_path / "first-attempt")

        class DiesOnce(mod.FlagshipSink):
            def _write(self, fs, path, table):
                if "/join_rows/" in path:
                    try:
                        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                    except FileExistsError:
                        pass
                    else:
                        os._exit(1)
                return super()._write(fs, path, table)

        monkeypatch.setattr(mod, "FlagshipSink", DiesOnce)
        out = str(tmp_path / "run")
        counts = mod.flagship(_pages(), out_dir=out)
        assert os.path.exists(marker)

        geo = _ray_free_geo()
        tiles = _read_dir(f"{out}/tiles").select(geo.schema.names)
        assert counts["tiles"]["rows"] == tiles.num_rows
        assert tiles.sort_by("doc_id").to_pydict() == geo.sort_by("doc_id").to_pydict()
        cols = ["doc_id", "polygon_id", "url", "predicate"]
        got = _read_dir(f"{out}/join_rows").select(cols)
        want = _ray_free_join().select(cols)
        order = [("doc_id", "ascending"), ("polygon_id", "ascending")]
        assert got.sort_by(order).to_pydict() == want.sort_by(order).to_pydict()
        assert len(set(zip(*(got.column(c).to_pylist() for c in cols[:2])))) == got.num_rows
        assert sorted(os.listdir(out)) == OUTPUTS


def _ray_free_geo():
    """The sf0.001 geo rows through the flagship's own kernels, no Ray."""
    import pyarrow.parquet as pq

    from georay.pipelines.pages import synthesize_pages_batch
    from georay.stages.geo import Reproject, cellize, extract_geo_batch, filter_has_geo

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"])
    geo = filter_has_geo(extract_geo_batch(synthesize_pages_batch(docs), keep_text=False))
    return cellize(Reproject(4326)(geo), 7)


def _ray_free_join():
    """The broadcast join of :func:`_ray_free_geo`'s rows, no Ray."""
    from georay.pipelines.polygons import build_polygon_set, polygon_payload
    from georay.stages.join import _join_batch, polygon_id_array

    pset = build_polygon_set(polygon_payload())
    return _join_batch(pset, polygon_id_array(pset), "INTERSECTS", ["doc_id", "url"], _ray_free_geo())


def _parquet_files(path):
    import glob

    return sorted(glob.glob(f"{path}/**/*.parquet", recursive=True))


class TestTileLayout:
    @pytest.fixture(scope="class")
    def run(self, ray_session, tmp_path_factory):
        from georay.pipelines.flagship import flagship

        out = str(tmp_path_factory.mktemp("flagship") / "run")
        flagship(_pages(), out_dir=out)
        return out

    def test_each_tile_file_holds_only_its_prefix(self, run):
        import os

        import pyarrow.parquet as pq

        from georay import cells

        files = _parquet_files(f"{run}/tiles")
        assert files
        for f in files:
            part = os.path.basename(os.path.dirname(f))
            assert part.startswith("cell_prefix=")
            cell = pq.read_table(f, columns=["cell"]).column("cell").to_numpy()
            assert (cells.cell_parent(cell, 2) == int(part.split("=", 1)[1])).all(), f

    def test_tile_rows_equal_geo_rows(self, run):
        import pyarrow.parquet as pq

        rows = sum(pq.read_metadata(f).num_rows for f in _parquet_files(f"{run}/tiles"))
        assert rows == _ray_free_geo().num_rows

    def test_tile_file_count_is_bounded_by_the_row_floor(self, run):
        import math
        import os

        from georay.pipelines.flagship import TILE_MIN_ROWS_PER_FILE

        files = _parquet_files(f"{run}/tiles")
        prefixes = {os.path.dirname(f) for f in files}
        geo_rows = _ray_free_geo().num_rows
        # one file per (input block, prefix) would grow with the block count
        assert len(files) <= len(prefixes) * math.ceil(geo_rows / TILE_MIN_ROWS_PER_FILE)

    def test_join_rows_equal_ray_free_join(self, run):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from georay.pipelines.polygons import build_polygon_set, polygon_payload
        from georay.stages.join import _join_batch, polygon_id_array

        pset = build_polygon_set(polygon_payload())
        want = _join_batch(pset, polygon_id_array(pset), "INTERSECTS", ["doc_id", "url"], _ray_free_geo())
        got = pa.concat_tables(pq.read_table(f) for f in _parquet_files(f"{run}/join_rows"))
        order = [("doc_id", "ascending"), ("polygon_id", "ascending")]
        cols = ["doc_id", "polygon_id", "url", "predicate"]
        assert want.num_rows > 0
        assert got.select(cols).sort_by(order).to_pydict() == want.select(cols).sort_by(order).to_pydict()


class _ExecutionPlans(logging.Handler):
    """Collects the execution plans Ray Data logs, one per executed dataset
    (operator class and fused operator names, e.g.
    ``TaskPoolMapOperator[ReadParquet->MapBatches(join_batch)->Write]``)."""

    LOGGER = "ray.data._internal.execution.streaming_executor"

    def __init__(self):
        super().__init__(logging.INFO)
        self.plans = []

    def emit(self, record):
        msg = record.getMessage()
        if "Execution plan of" in msg:
            self.plans.append(msg)

    def __enter__(self):
        logging.getLogger(self.LOGGER).addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger(self.LOGGER).removeHandler(self)


class TestJoinRunsOnTasks:
    """The broadcast join indexes in milliseconds: an actor pool would spawn
    processes on every run for nothing, and would stop the join from
    running inside the task chain that extracts and writes the rows."""

    def _join_plans(self, plans):
        joins = [p for p in plans if "join_batch" in p or "SpatialJoinActor" in p]
        assert joins, plans
        return joins

    def test_flagship_join_is_one_fused_task_chain(self, ray_session, tmp_path, monkeypatch):
        """With ``out_dir`` the flagship runs two plans, the streaming
        write and the partials' merge, on plain tasks; no output is read
        back."""
        import ray.data

        pages = _pages()
        out = str(tmp_path / "run")
        reads = []
        read_parquet = ray.data.read_parquet

        def recording(paths, *args, **kwargs):
            reads.append(str(paths))
            return read_parquet(paths, *args, **kwargs)

        monkeypatch.setattr(ray.data, "read_parquet", recording)
        from georay.pipelines.flagship import flagship

        with _ExecutionPlans() as log:
            flagship(pages, out_dir=out)
        assert len(log.plans) == 2, log.plans
        for plan in log.plans:
            assert "ActorPoolMapOperator" not in plan and "SpatialJoinActor" not in plan
        assert reads == [f"{out}/_partials"]

    @pytest.mark.parametrize("query", ["_q_bbox_join", "_q_pip_join"])
    def test_entry_joins_run_on_tasks(self, ray_session, query):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "__ray_entry__.py"
        spec = importlib.util.spec_from_file_location("_entry", path)
        entry = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(entry)
        with _ExecutionPlans() as log:
            getattr(entry, query)(SF).materialize()
        for plan in self._join_plans(log.plans):
            assert "ActorPoolMapOperator" not in plan and "SpatialJoinActor" not in plan
