"""Flagship pipeline: pages -> extract -> reproject -> cellize -> spatial
join -> per-cell aggregate -> (optional) written outputs.

This is the end-to-end path BASELINE.md's throughput metric measures
(docs/sec over the CC-style pages table): ``python -m georay flagship``,
``__ray_entry__.entry``, ``resume`` and ``bench.py`` all run
:func:`flagship`, each over its own pages read, and :func:`geo_dataset`
is the one extract -> filter -> reproject -> cellize chain.  Every stage
is a streaming ``map_batches`` over zero-copy Arrow.  With an output
directory the whole run is one Ray Data plan of one operator,
``ReadParquet->...->Write`` when the pages are read with
``read_pages(sf_dir, TILE_MIN_ROWS_PER_FILE)``: each read task gets whole
files, at least ``TILE_MIN_ROWS_PER_FILE`` pages, extracts their geo rows
and streams them into :class:`FlagshipSink`, which writes the tiles, the
join rows and the per-cell partials from that same task.  The plan's block target is
``georay.sources.PLAN_BLOCK_BYTES``, so Ray Data starts its tasks together.  The
partials are already combined down to one row per (task, cell), and the
driver merges them file by file into ``cell_agg`` (``driver_merge``):
nothing shuffles.
"""

from __future__ import annotations

import uuid

import numpy as np
import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
from ray.data import Datasink

from georay import cells
from georay.partition import cached_map
from georay.pipelines.polygons import polygon_payload
from georay.sources import (
    PLAN_BLOCK_BYTES, filesystem, remove_dir, replace_dir, write_output, write_parquet_file,
)
from georay.stages.aggregate import (
    CELL_AGGS, cell_partial_agg, driver_merge, keyed_agg, merge_cell_partials,
)
from georay.stages.geo import Reproject, cellize, extract_geo_batch, filter_has_geo
from georay.stages.join import SpatialJoin


def geo_dataset(pages, res: int = 7):
    """pages Dataset -> extracted+harmonized+cellized point dataset (lon/lat
    4326), one row per page with a coordinate.

    ``text`` is dropped at the extraction edge: the spatial path only
    carries (url, warc_ts, lang, doc_id, lon, lat, epsg, cell).
    """
    from georay.registry import with_registry

    # with_registry: user-registered geometry kernels (SURVEY §2.10) are
    # snapshotted on the driver and replayed inside each worker — module
    # state does not travel to Ray workers by itself (no-op when empty)
    ds = pages.map_batches(
        with_registry(lambda b: extract_geo_batch(b, keep_text=False)),
        batch_format="pyarrow",
    )
    ds = ds.map_batches(filter_has_geo, batch_format="pyarrow")
    ds = ds.map_batches(Reproject(4326), batch_format="pyarrow")
    ds = ds.map_batches(lambda b: cellize(b, res), batch_format="pyarrow")
    return ds


#: Floor on the pages each read task of the flagship gets
#: (:func:`georay.sources.read_parquet_grouped`, which the CLI's
#: ``read_pages(sf_dir, TILE_MIN_ROWS_PER_FILE)`` and ``bench.py`` use).
#: The sink fuses into the read, so each read task is one
#: :class:`FlagshipSink` write task, and every write task
#: writes one tile file per res-2 prefix, a join file and a partials
#: file (one write task per input block gave 256 tile files of ~150 rows
#: for 40k pages).  The floor also caps the task count: 40k pages in 8
#: files run as 2 tasks of 4 files each.  A floor on the write instead
#: (``min_rows_per_write``) makes Ray bundle the sink's input, and it
#: then refuses to fuse the read into the sink's tasks.
TILE_MIN_ROWS_PER_FILE = 20_000

#: what :class:`FlagshipSink` writes under ``out_dir``; ``_partials`` only
#: lives until :func:`flagship` has merged it into ``cell_agg``
_SINK_OUTPUTS = ("tiles", "join_rows", "_partials")


class FlagshipSink(Datasink):
    """The flagship's one streaming write: each write task gets its geo
    rows once and writes

    - its tile rows under ``tiles/cell_prefix=<res-2 parent cell>/`` (the
      Hive layout SURVEY.md §2.7 / §4 asks for, never one giant file),
      each file's rows in ``(cell, doc_id)`` order;
    - its join rows (``join_fn``) under ``join_rows/``;
    - its ``cell_partial_agg`` table under ``_partials/``, which
      :func:`flagship` merges into ``cell_agg/`` after the write.

    Every file is written with :data:`georay.sources.PARQUET_WRITE` (zstd,
    no dictionary pages) and named ``<uuid>_<task index>.parquet``, the
    uuid fixed when the sink is built, so a retried task overwrites its own
    files instead of adding a second copy.  ``counts`` holds ``{output: {"rows",
    "bytes"}}`` once the write completes."""

    def __init__(self, out_dir: str, join_fn):
        self.out_dir = out_dir
        self.join_fn = join_fn
        self.uuid = uuid.uuid4().hex
        self.counts = None

    def on_write_start(self) -> None:
        # cell_agg too: a run that fails before its merge leaves no stale
        # aggregate beside fresh tiles
        for name in (*_SINK_OUTPUTS, "cell_agg"):
            replace_dir(f"{self.out_dir}/{name}")

    def write(self, blocks, ctx) -> dict:
        out = dict.fromkeys(_SINK_OUTPUTS, (0, 0))
        tables = [b for b in blocks if b.num_rows]
        if not tables:
            return out
        geo = pa.concat_tables(tables)
        fs, root = filesystem(self.out_dir)
        name = f"{self.uuid}_{ctx.task_idx}.parquet"

        # tile rows by (prefix, cell, doc_id): each tile's cells become
        # runs and its coordinates locally close, so zstd packs them tighter
        cell = geo.column("cell").to_numpy()
        prefix = cells.cell_parent(cell, 2)
        order = np.lexsort((geo.column("doc_id").to_numpy(), cell, prefix))
        keys, starts = np.unique(prefix[order], return_index=True)
        tiles = geo.take(pa.array(order))
        size = 0
        for key, start, stop in zip(keys, starts, [*starts[1:], len(order)]):
            part = f"{root}/tiles/cell_prefix={key}"
            fs.create_dir(part)
            size += write_parquet_file(tiles.slice(start, stop - start), f"{part}/{name}", fs)
        out["tiles"] = (geo.num_rows, size)

        joined = self.join_fn(geo)
        if joined.num_rows:
            out["join_rows"] = (joined.num_rows, write_parquet_file(joined, f"{root}/join_rows/{name}", fs))
        partials = cell_partial_agg(geo)
        out["_partials"] = (partials.num_rows, write_parquet_file(partials, f"{root}/_partials/{name}", fs))
        return out

    def on_write_complete(self, write_result) -> None:
        self.counts = {
            name: {
                "rows": sum(r[name][0] for r in write_result.write_returns),
                "bytes": sum(r[name][1] for r in write_result.write_returns),
            }
            for name in _SINK_OUTPUTS
        }


def flagship(pages, res: int = 7, predicate: str = "INTERSECTS", out_dir: str | None = None):
    """Run the full pipeline over a pages Dataset (``read_pages(sf_dir)``,
    or any read with the pages columns).

    The polygon side is broadcast once (``ray.put``) and the join is a
    plain task kernel (``cached_map(SpatialJoin, ...)``): its index builds
    in milliseconds and is cached per worker, so it runs inside the task
    chain instead of paying an actor-pool spawn per run.  The aggregate
    is partial-combined per task before the keyed merge (skew defence,
    stages/aggregate.py).  What runs follows ``out_dir``:

    - ``out_dir`` given (the deployment form): one plan streams the geo
      rows into :class:`FlagshipSink`, which writes ``tiles/``,
      ``join_rows/`` and the per-task cell partials from each task.  The
      sink fuses into the read, so each read task writes one file set:
      read with :func:`georay.sources.read_parquet_grouped` (as
      ``read_pages(sf_dir, TILE_MIN_ROWS_PER_FILE)`` does), or a read of
      many small blocks writes many small files.  The driver then merges the partials, one row per
      (task, cell), one file at a time
      (:func:`~georay.stages.aggregate.driver_merge`) and writes
      ``cell_agg/`` as one file (:func:`~georay.sources.write_output`),
      so the run is one plan.  The partials are deleted even if the
      merge fails.  No output
      is read back through Ray: the return value is the sink's ``{output:
      {"rows", "bytes"}}`` counts (``tiles``, ``join_rows``,
      ``_partials``), and ``cell_agg``'s row count is in its footers
      (``georay.sources.parquet_rows``).  Each output
      replaces what an earlier run left in ``out_dir``; with no geo page
      all three are empty directories.
    - ``out_dir=None``: returns lazy ``(join_rows_ds, cell_agg_ds)``; each
      re-derives ``geo`` from ``pages`` when it runs.  Nothing is written
      and nothing is pinned in the object store.
    """
    geo = geo_dataset(pages, res=res)
    join_fn = cached_map(SpatialJoin, ray.put(polygon_payload()), predicate=predicate)
    if not out_dir:
        # whole blocks: a ``batch_size`` makes Ray bundle the join's input,
        # and it then refuses to fuse the join with the read before it
        joined = geo.map_batches(join_fn, batch_format="pyarrow", batch_size=None)
        return joined, keyed_agg(geo, "cell", CELL_AGGS)

    sink = FlagshipSink(out_dir, join_fn)
    # the context the pages read made for this chain, not Ray's global
    # one: the exchanges and every other plan keep the default target
    # (``PLAN_BLOCK_BYTES`` says why the sink plan needs a smaller one)
    geo.context.target_max_block_size = PLAN_BLOCK_BYTES
    try:
        geo.write_datasink(sink)
        fs, root = filesystem(out_dir)
        if sink.counts["_partials"]["rows"]:
            files = fs.get_file_info(pafs.FileSelector(f"{root}/_partials"))
            parts = (pq.read_table(p, filesystem=fs) for p in sorted(i.path for i in files))
            write_output(driver_merge(parts, merge_cell_partials, None), f"{out_dir}/cell_agg")
    finally:
        remove_dir(f"{out_dir}/_partials")
    return sink.counts
