"""Flagship pipeline: pages -> extract -> reproject -> cellize -> spatial
join -> per-cell aggregate -> (optional) written outputs.

This is the end-to-end path BASELINE.md's throughput metric measures
(docs/sec over the CC-style pages table): ``python -m georay flagship``,
``__ray_entry__.entry``, ``resume`` and ``bench.py`` all run
:func:`flagship`, each over its own pages read, and :func:`geo_dataset`
is the one extract -> filter -> reproject -> cellize chain.  Every stage
is a streaming ``map_batches`` over zero-copy Arrow.  With an output
directory the whole run is one Ray Data plan of one operator,
``ReadParquet->...->Write`` when the pages are read by the one read rule
for a sink (``read_pages(sf_dir, sink=True)``,
:func:`georay.sources.read_parquet_grouped`): each read task gets whole
files, ``min(files, max(CPU slots, pages // TASK_ROWS))`` tasks in all,
unsplit below ``2 * TASK_ROWS`` pages a task, extracts their geo rows and
streams them into :class:`georay.sources.SplitSink` (the one partitioned
sink), whose route here gives the tiles, the join rows and the per-cell
partials of that same task.  The plan's block target is
``georay.sources.PLAN_BLOCK_BYTES``, so Ray Data starts its tasks together.  The
partials are already combined down to one row per (task, cell), and the
driver merges them file by file into ``cell_agg`` (``driver_merge``):
nothing shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from georay import cells
from georay.partition import cached_map
from georay.pipelines.polygons import polygon_payload
from georay.sources import (
    PLAN_BLOCK_BYTES, SplitSink, filesystem, parquet_files, remove_dir, replace_dir, write_output,
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


def _sink_route(join_fn):
    """The flagship's :class:`~georay.sources.SplitSink` route: a write
    task's geo rows -> its tile rows under ``tiles/cell_prefix=<res-2
    parent cell>``, each file's rows in ``(cell, doc_id)`` order, then its
    join rows (``join_fn``) under ``join_rows``, then its
    ``cell_partial_agg`` table under ``_partials``, which :func:`flagship`
    merges into ``cell_agg/`` after the write."""

    def route(geo):
        # tile rows by (prefix, cell, doc_id): each tile's cells become
        # runs and its coordinates locally close, so zstd packs them tighter
        cell = geo.column("cell").to_numpy()
        prefix = cells.cell_parent(cell, 2)
        order = np.lexsort((geo.column("doc_id").to_numpy(), cell, prefix))
        keys, starts = np.unique(prefix[order], return_index=True)
        tiles = geo.take(pa.array(order))
        for key, start, stop in zip(keys, starts, [*starts[1:], len(order)]):
            yield f"tiles/cell_prefix={key}", tiles.slice(start, stop - start)
        yield "join_rows", join_fn(geo)
        yield "_partials", cell_partial_agg(geo)

    return route


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
      rows into :class:`georay.sources.SplitSink`, which writes
      ``tiles/``, ``join_rows/`` and the per-task cell partials from each
      task (:func:`_sink_route`).  The
      sink fuses into the read, so each read task writes one file set:
      read with :func:`georay.sources.read_parquet_grouped` and
      ``sink=True`` (as ``read_pages(sf_dir, sink=True)`` does), or a
      read of many small blocks writes many small files.  Keep a ``batch_size`` off the maps and
      ``min_rows_per_write`` off the write: Ray then bundles the sink's
      input and refuses to fuse the read into its tasks.  The driver then merges the partials, one row per
      (task, cell), one file at a time
      (:func:`~georay.stages.aggregate.driver_merge`) and writes
      ``cell_agg/`` as one file (:func:`~georay.sources.write_output`),
      so the run is one plan.  The partials are deleted even if the
      merge fails.  No output
      is read back through Ray: the return value is the sink's ``{output:
      {"rows", "bytes", "nbytes"}}`` counts (``tiles``, ``join_rows``,
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

    sink = SplitSink(out_dir, _sink_route(join_fn), ("tiles", "join_rows", "_partials"))
    # the context the pages read made for this chain, not Ray's global
    # one: the exchanges and every other plan keep the default target
    # (``PLAN_BLOCK_BYTES`` says why the sink plan needs a smaller one)
    geo.context.target_max_block_size = PLAN_BLOCK_BYTES
    # a run that fails before its merge leaves no stale aggregate beside
    # fresh tiles
    replace_dir(f"{out_dir}/cell_agg")
    try:
        geo.write_datasink(sink)
        if sink.counts["_partials"]["rows"]:
            fs, _ = filesystem(out_dir)
            parts = (pq.read_table(f, filesystem=fs) for f in parquet_files(f"{out_dir}/_partials"))
            write_output(driver_merge(parts, merge_cell_partials, None), f"{out_dir}/cell_agg")
    finally:
        remove_dir(f"{out_dir}/_partials")
    return sink.counts
