"""Flagship pipeline: pages -> extract -> reproject -> cellize -> spatial
join -> salted per-cell aggregate -> (optional) partitioned write.

This is the end-to-end path BASELINE.md's throughput metric measures
(docs/sec over the CC-style pages table): ``python -m georay flagship``,
``__ray_entry__.entry``, ``resume`` and ``bench.py`` all run
:func:`flagship`, each over its own pages read, and :func:`geo_dataset`
is the one extract -> filter -> reproject -> cellize chain.  Every stage
is a streaming ``map_batches`` over zero-copy Arrow; only the final
per-cell merge shuffles, and its input is already combined down to one
row per (block, cell).
"""

from __future__ import annotations

import ray

from georay.pipelines.polygons import polygon_payload
from georay.sources import write_output
from georay.stages.aggregate import CELL_AGGS, keyed_agg
from georay.stages.geo import Reproject, cellize, extract_geo_batch, filter_has_geo
from georay.stages.join import make_spatial_join_fn


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


#: Floor on rows per tile file.  Without it ``write_parquet(partition_cols=...)``
#: writes one file per (input block, res-2 prefix): 256 files of ~150 rows
#: for 40k pages, and both consumers pay per file.  Ray meets the floor by
#: bundling the input of the fused extract->write operator, counted in
#: *page* rows, so the floor also caps that operator's task count: at 40k
#: pages on 2 CPUs, 250_000 ran the extract chain as one task, 20_000 as
#: two.  Traced ``perfbench/run.py --workload flagship_uniform --seed 1``
#: with 20_000 (and the task join, projected reads): files written
#: 261 -> 37, join pass 1.43 -> 0.47 s, aggregate pass 1.86 -> 0.63 s.
TILE_MIN_ROWS_PER_FILE = 20_000

#: columns each consumer reads back from the tiles (the read is projected:
#: a consumer never decodes a column it does not use)
_JOIN_COLUMNS = ["doc_id", "url", "lon", "lat"]
_AGG_COLUMNS = ["cell", "lon", "lat", "warc_ts"]


def _write_tiles(geo, tiles: str) -> bool:
    """Write the per-document tile assignment to ``tiles`` as partitioned
    parquet (one directory per res-2 parent cell, one file per directory
    per write task of at least ``TILE_MIN_ROWS_PER_FILE`` input rows),
    never one giant file — the resumable layout SURVEY.md §2.7 / §4
    requires.  Returns whether any tile was written (``False`` when no
    page had a coordinate)."""

    def add_prefix(b):
        import pyarrow as _pa

        from georay import cells as _cells

        prefix = _cells.cell_parent(b.column("cell").to_numpy(), 2)
        return b.append_column("cell_prefix", _pa.array(prefix, _pa.int64()))

    return write_output(
        geo.map_batches(add_prefix, batch_format="pyarrow"),
        tiles,
        partition_cols=["cell_prefix"],
        min_rows_per_file=TILE_MIN_ROWS_PER_FILE,
    )


def flagship(pages, res: int = 7, predicate: str = "INTERSECTS", out_dir: str | None = None):
    """Run the full pipeline over a pages Dataset (``read_pages(sf_dir)``,
    or any read with the pages columns); returns (join_rows_ds, cell_agg_ds).

    The polygon side is broadcast once (``ray.put``) and the join is a
    plain task ``map_batches`` (``make_spatial_join_fn``): its index builds
    in milliseconds and is cached per worker, so it fuses with the read
    and the write into one task chain instead of paying an actor-pool
    spawn per run.  The aggregate is partial-combined inside map_batches
    before the keyed merge (skew defence, stages/aggregate.py).

    The geo dataset (the per-document tile assignment) feeds both the
    join and the aggregate.  How it reaches them follows ``out_dir``:

    - ``out_dir`` given (the deployment form): the partitioned ``tiles``
      parquet is written there, a required engine artifact, and each
      consumer streams it back reading only its own columns; the join
      rows and the cell aggregate are then written beside it and the
      returned datasets read them back.  Each output replaces what an
      earlier run left in ``out_dir``.
    - ``out_dir=None``: ``geo`` stays lazy and each consumer re-derives
      it from ``pages`` when it runs.  Nothing is written and nothing is
      pinned in the object store.
    """
    import ray.data as rd

    geo = geo_dataset(pages, res=res)
    if not out_dir:
        join_src = agg_src = geo
    elif _write_tiles(geo, f"{out_dir}/tiles"):
        join_src = rd.read_parquet(f"{out_dir}/tiles", columns=_JOIN_COLUMNS)
        agg_src = rd.read_parquet(f"{out_dir}/tiles", columns=_AGG_COLUMNS)
    else:
        # no page had a coordinate: there are no tile columns to project
        join_src = agg_src = rd.from_items([])

    payload_ref = ray.put(polygon_payload())
    # whole blocks: a ``batch_size`` makes Ray bundle the join's input, and
    # it then refuses to fuse the join with the read before it
    joined = join_src.map_batches(
        make_spatial_join_fn(payload_ref, predicate), batch_format="pyarrow", batch_size=None
    )
    agg = keyed_agg(agg_src, "cell", CELL_AGGS)

    if out_dir:
        write_output(joined, f"{out_dir}/join_rows")
        write_output(agg, f"{out_dir}/cell_agg")
        return rd.read_parquet(f"{out_dir}/join_rows"), rd.read_parquet(f"{out_dir}/cell_agg")
    return joined, agg
