"""Flagship pipeline: the two routes ``out_dir`` selects (one streaming
write of tiles, join rows and cell partials then their merge on the
driver, or lazy datasets that each re-derive the geo rows), the
partials' file-by-file merge, the tile layout, a write task killed
mid-write, the partials' cleanup, and the plans' shape."""

import functools
import logging

import pytest

from georay.pipelines.pages import read_pages

SF = "/root/testdata/sf0.001"
OUTPUTS = ["cell_agg", "join_rows", "tiles"]


def _multi_file_sf(root, files: int = 4) -> str:
    """A scale-factor directory under ``root`` whose pages input is
    sf0.001's documents split into ``files`` parquet files
    (``documents.parquet/part-*.parquet``, as perfbench writes it)."""
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF}/documents.parquet")
    (root / "documents.parquet").mkdir(parents=True)
    step = -(-docs.num_rows // files)
    for i in range(files):
        pq.write_table(docs.slice(i * step, step), root / "documents.parquet" / f"part-{i:05d}.parquet")
    return str(root)


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

        j_lazy, a_lazy = flagship(read_pages(SF))
        out = str(tmp_path / "run")
        counts = flagship(read_pages(SF, sink=True), out_dir=out)
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
        joined, agg = flagship(read_pages(SF))
        assert joined.count() > 0 and agg.count() > 0
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_writes_partitioned_tiles(self, ray_session, tmp_path):
        import os

        from georay.pipelines.flagship import flagship
        from georay.sources import parquet_rows

        out = str(tmp_path / "run")
        counts = flagship(read_pages(SF, sink=True), out_dir=out)
        assert counts["join_rows"]["rows"] > 0 and parquet_rows(f"{out}/cell_agg") > 0
        assert counts["tiles"]["rows"] == _ray_free_geo().num_rows
        # partitioned layout: one directory per res-2 parent cell prefix,
        # never one giant file (resumable output contract)
        tiles = os.listdir(f"{out}/tiles")
        assert tiles and all(t.startswith("cell_prefix=") for t in tiles)
        # the per-task partials are merged into cell_agg and deleted
        assert sorted(os.listdir(out)) == OUTPUTS

    def test_cell_agg_is_one_file_of_every_cell(self, ray_session, tmp_path):
        """The driver merges the partials into one ``cell_agg`` file with
        one row per geo cell, and the sink's row and byte counts match its
        files."""
        import os

        import pyarrow.parquet as pq

        from georay.pipelines.flagship import flagship

        out = str(tmp_path / "run")
        counts = flagship(read_pages(SF, sink=True), out_dir=out)
        assert sorted(os.listdir(out)) == OUTPUTS
        for name in ("join_rows", "tiles"):
            files = _parquet_files(f"{out}/{name}")
            assert sum(pq.read_metadata(f).num_rows for f in files) == counts[name]["rows"] > 0
            assert sum(os.path.getsize(f) for f in files) == counts[name]["bytes"]
        (agg,) = _parquet_files(f"{out}/cell_agg")
        cells = pq.read_table(agg).column("cell").to_pylist()
        assert sorted(cells) == sorted(set(_ray_free_geo().column("cell").to_pylist()))

    def test_partials_are_deleted_when_the_merge_raises(self, ray_session, tmp_path, monkeypatch):
        import os

        import georay.pipelines.flagship as mod

        def broken(*args, **kwargs):
            raise RuntimeError("merge failed")

        monkeypatch.setattr(mod, "merge_cell_partials", broken)
        out = str(tmp_path / "run")
        with pytest.raises(RuntimeError, match="merge failed"):
            mod.flagship(read_pages(SF, sink=True), out_dir=out)
        assert sorted(os.listdir(out)) == OUTPUTS

    def test_killed_write_task_leaves_no_duplicate(self, ray_session, tmp_path, monkeypatch):
        """A write task whose worker dies after its tile files and before
        its join file is retried by Ray Data; the retry writes the same
        file names, so nothing is counted twice."""
        import os

        import georay.pipelines.flagship as mod

        marker = str(tmp_path / "first-attempt")

        class DiesOnce(mod.SplitSink):
            # the route yields the join rows after the tiles, which the
            # sink has written by then
            def __init__(self, out_dir, route, outputs):
                def route_or_die(geo):
                    for rel, table in route(geo):
                        if rel == "join_rows":
                            try:
                                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                            except FileExistsError:
                                pass
                            else:
                                os._exit(1)
                        yield rel, table

                super().__init__(out_dir, route_or_die, outputs)

        monkeypatch.setattr(mod, "SplitSink", DiesOnce)
        out = str(tmp_path / "run")
        counts = mod.flagship(read_pages(SF, sink=True), out_dir=out)
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


def test_sink_tasks_run_at_once(ray_session, tmp_path, monkeypatch):
    """Two sink tasks run at the same time on an object store capped at
    200 MB, the share of perfbench's 400 MB store Ray Data plans with.
    Each task waits at a file barrier until the other has started; a
    plan that admits one task at a time lets the first one time out."""
    import os
    import time

    from ray.data import ExecutionResources

    import georay.pipelines.flagship as mod

    barrier = str(tmp_path / "barrier")
    os.mkdir(barrier)

    class Meets(mod.SplitSink):
        def write(self, blocks, ctx):
            open(f"{barrier}/started-{ctx.task_idx}", "w").close()
            deadline = time.monotonic() + 30
            while sum(f.startswith("started-") for f in os.listdir(barrier)) < 2:
                if time.monotonic() > deadline:
                    open(f"{barrier}/alone-{ctx.task_idx}", "w").close()
                    break
                time.sleep(0.05)
            return super().write(blocks, ctx)

    monkeypatch.setattr(mod, "SplitSink", Meets)
    # 500 pages in 2 files: 2 read tasks on the session's 4 CPU slots
    pages = read_pages(_multi_file_sf(tmp_path / "in", files=2), sink=True)
    pages.context.execution_options.resource_limits = ExecutionResources(object_store_memory=200 * 10**6)
    counts = mod.flagship(pages, out_dir=str(tmp_path / "run"))
    assert counts["tiles"]["rows"] == _ray_free_geo().num_rows
    marks = sorted(os.listdir(barrier))
    assert len(marks) == 2 and all(m.startswith("started-") for m in marks), marks


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


def test_partials_merge_file_by_file(tmp_path):
    """``driver_merge`` over many partial files read one at a time, their
    cells overlapping (the flagship's driver merge), equals one merge of
    them all; no merge gets more than twice the output plus one file
    (the driver never holds the input)."""
    import pyarrow.parquet as pq

    from georay.stages.aggregate import cell_partial_agg, driver_merge, merge_cell_partials

    geo = _ray_free_geo()
    for i in range(40):
        pq.write_table(cell_partial_agg(geo.take(list(range(i, geo.num_rows, 40)))), tmp_path / f"{i:02d}.parquet")
    sizes = []

    def recording(t):
        sizes.append(t.num_rows)
        return merge_cell_partials(t)

    files = _parquet_files(str(tmp_path))
    got = driver_merge((pq.read_table(f) for f in files), recording, None)
    want = cell_partial_agg(geo)
    assert got.sort_by("cell").equals(want.sort_by("cell"))
    biggest_file = max(pq.read_metadata(f).num_rows for f in files)
    assert 1 < len(sizes) < 40 and max(sizes) <= 2 * want.num_rows + biggest_file


class TestTileLayout:
    @pytest.fixture(scope="class")
    def run(self, ray_session, tmp_path_factory):
        from georay.pipelines.flagship import flagship

        out = str(tmp_path_factory.mktemp("flagship") / "run")
        flagship(read_pages(SF, sink=True), out_dir=out)
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

    def test_tile_rows_are_in_cell_then_doc_order(self, run):
        """Each tile file's rows are sorted by ``(cell, doc_id)``."""
        import numpy as np
        import pyarrow.parquet as pq

        for f in _parquet_files(f"{run}/tiles"):
            t = pq.read_table(f, columns=["cell", "doc_id"])
            cell, doc = t.column("cell").to_numpy(), t.column("doc_id").to_numpy()
            assert (np.lexsort((doc, cell)) == np.arange(t.num_rows)).all(), f

    def test_tile_rows_equal_geo_rows(self, run):
        import pyarrow.parquet as pq

        rows = sum(pq.read_metadata(f).num_rows for f in _parquet_files(f"{run}/tiles"))
        assert rows == _ray_free_geo().num_rows

    def test_tile_file_count_is_bounded_by_the_row_floor(self, run, ray_session, tmp_path, monkeypatch):
        """Each read task writes one file set, one tile file per prefix it
        holds (files are named after their task), and the read runs
        ``min(files, max(CPU slots, pages // TASK_ROWS))`` tasks.  Checked
        on the one-file sf0.001 (one task) and on an eight-file input with
        the row floor ``TASK_ROWS`` lowered to a sixth of its pages: six
        tasks, more than the session's 4 slots and fewer than the files."""
        import os

        import pyarrow.parquet as pq
        import ray

        import georay.pipelines.flagship as mod
        import georay.sources

        pages = pq.read_metadata(f"{SF}/documents.parquet").num_rows
        cpus = int(ray.cluster_resources()["CPU"])
        multi = str(tmp_path / "multi")
        monkeypatch.setattr(georay.sources, "TASK_ROWS", pages // 6)
        mod.flagship(read_pages(_multi_file_sf(tmp_path / "in", files=8), sink=True), out_dir=multi)
        assert cpus < 6
        for out, want in ((run, 1), (multi, 6)):
            files = _parquet_files(f"{out}/tiles")
            prefixes = {os.path.dirname(f) for f in files}
            tasks = {os.path.basename(f) for f in files}
            assert len(tasks) == want, out
            # one file per (input block, prefix) would grow with the block count
            assert len(files) <= len(prefixes) * len(tasks)

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


@functools.lru_cache(maxsize=None)
def _entry():
    """``__ray_entry__`` loaded once, so its memoized geo rows are shared."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    spec = importlib.util.spec_from_file_location("_entry", path)
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    return entry


class _ExecutionPlans(logging.Handler):
    """Collects the execution plans Ray Data logs, one per executed dataset
    (operator class and fused operator names, e.g.
    ``TaskPoolMapOperator[ReadParquet->MapBatches(SpatialJoin)->Write]``)."""

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
    """A broadcast stage builds its state in milliseconds: an actor pool
    would spawn processes on every run for nothing, and would stop the
    stage from running inside the task chain that extracts and writes the
    rows.  Every broadcast stage is ``cached_map(cls, ...)``, a plain
    task function named after ``cls``."""

    def _join_plans(self, plans, kernel):
        joins = [p for p in plans if f"MapBatches({kernel})" in p]
        assert joins, plans
        return joins

    def test_flagship_join_is_one_fused_task_chain(self, ray_session, tmp_path, monkeypatch):
        """With ``out_dir`` the flagship is one plan, the streaming write,
        on plain tasks; the partials are merged on the driver, and Ray
        Data reads nothing back."""
        import ray.data

        pages = read_pages(SF, sink=True)
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
        assert len(log.plans) == 1, log.plans
        assert "ActorPoolMapOperator" not in log.plans[0]
        assert reads == []
        # one operator: the read, the maps and the write share each task
        _, ops = log.plans[0].split(": ", 1)
        source, op = ops.split(" -> ")
        assert source == "InputDataBuffer[Input]", ops
        assert op.startswith("TaskPoolMapOperator[ReadParquet->") and op.endswith("->Write]"), ops

    #: each broadcast query and the class its ``cached_map`` runs
    KERNELS = {
        "_q_bbox_join": "SpatialJoin",
        "_q_pip_join": "SpatialJoin",
        "_q_knn": "KNNJoin",
        "_q_knn_grid": "KNNJoin",
        "_q_dwithin_poly": "DWithinJoin",
        "_q_ann_cosine": "BruteForceKNN",
        "_q_ann_ivf": "IVFSearch",
        "_q_zonal_stats": "ZonalStats",
        "_q_embed_dup_pairs": "BruteDup",
        "_q_kmeans": "KMeansAssign",
        "_q_poly_join": "RelateBoxes",
        "_q_segment_revenue": "KeyedJoin",
        "_q_media_decode": "ImageDecodeStage",
    }

    def test_segment_revenue_same_on_both_routes(self, ray_session, monkeypatch, copartitions):
        """``_q_segment_revenue`` joins through ``keyed_join``: the same
        rows when the customers are broadcast (no ``copartition``) and,
        with ``BROADCAST_BYTES = 0``, when they are co-partitioned."""

        def run():
            out = _entry()._q_segment_revenue(SF).to_pandas()
            return sorted(map(tuple, out[["c_mktsegment", "revenue_cents", "n_orders"]].values.tolist()))

        broadcast = run()
        assert not copartitions
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        shuffled = run()
        assert copartitions
        assert broadcast == shuffled and len(broadcast) > 1

    @pytest.mark.parametrize("query", list(KERNELS))
    def test_entry_joins_run_on_tasks(self, ray_session, query):
        with _ExecutionPlans() as log:
            out = getattr(_entry(), query)(SF)
            if hasattr(out, "materialize"):
                out.materialize()
        self._join_plans(log.plans, self.KERNELS[query])
        for plan in log.plans:
            assert "ActorPoolMapOperator" not in plan
