"""Ray-free kernel pass: the workload's own input blocks (one per parquet
file) pushed through the same public kernels the pipelines map over, in
this process, with a timer around each call.

It serves twice: its join rows are the reference the checker compares
the pipeline's join output against, and its per-kernel times are the
per-row cost of each layer without any runtime around it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

from check import join_digest, parquet_files


class LayerClock:
    """Accumulates seconds, rows and bytes per layer name; with a tracer,
    also records one span per call, carrying the same counts."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = defaultdict(float)
        self.rows_in = defaultdict(int)
        self.rows_out = defaultdict(int)
        self.bytes_in = defaultdict(int)

    def call(self, layer: str, fn, batch: pa.Table, *args):
        span = self.tracer.span(layer) if self.tracer else contextlib.nullcontext({"counts": {}})
        with span as sp:
            t0 = time.perf_counter()
            out = fn(batch, *args)
            self.seconds[layer] += time.perf_counter() - t0
        sp["counts"].update(rows_in=batch.num_rows, rows_out=out.num_rows, bytes_in=batch.nbytes)
        self.rows_in[layer] += batch.num_rows
        self.rows_out[layer] += out.num_rows
        self.bytes_in[layer] += batch.nbytes
        return out

    def ns_per_row(self, layer: str) -> float:
        return 1e9 * self.seconds[layer] / max(1, self.rows_in[layer])

    def as_dict(self) -> dict:
        return {
            name: {
                "seconds": self.seconds[name],
                "rows_in": self.rows_in[name],
                "rows_out": self.rows_out[name],
                "bytes_in": self.bytes_in[name],
                "ns_per_row": self.ns_per_row(name),
            }
            for name in self.seconds
        }


def flagship_pass(src_dir: str, tracer=None):
    """-> (LayerClock, join-row table, extra) over ``src_dir``'s documents.

    ``extra`` holds what the layers do not carry themselves: the join
    index build time, the geo rows, the partial-aggregate rows and the
    total ``n_docs`` after the final merge."""
    from georay.pipelines.pages import synthesize_pages_batch
    from georay.pipelines.polygons import polygon_payload
    from georay.stages.aggregate import cell_partial_agg, merge_cell_partials
    from georay.stages.geo import Reproject, cellize, extract_geo_batch, filter_has_geo
    from georay.stages.join import SpatialJoinActor

    clock = LayerClock(tracer)
    t0 = time.perf_counter()
    join = SpatialJoinActor(polygon_payload())
    join_init_s = time.perf_counter() - t0
    reproject = Reproject(4326)

    def extract(pages):
        return filter_has_geo(extract_geo_batch(pages, keep_text=False))

    joins, partials = [], []
    for f in parquet_files(f"{src_dir}/documents.parquet"):
        docs = pq.read_table(f, columns=["doc_id", "text", "lang"])
        pages = clock.call("pages", synthesize_pages_batch, docs)
        geo = clock.call("extract", extract, pages)
        geo = clock.call("crs", reproject, geo)
        geo = clock.call("cells", cellize, geo, 7)  # the flagship's default res
        joins.append(clock.call("join", join, geo))
        partials.append(clock.call("aggregate", cell_partial_agg, geo))
    merged = clock.call("aggregate.merge", merge_cell_partials, pa.concat_tables(partials))
    extra = {
        "join_init_s": join_init_s,
        "geo_rows": clock.rows_in["join"],
        "partial_rows": clock.rows_out["aggregate"],
        "n_docs": int(pa.compute.sum(merged.column("n_docs")).as_py()),
    }
    return clock, pa.concat_tables(joins), extra


def flagship_reference(src_dir: str) -> dict:
    """The expected join output of ``src_dir``, computed without Ray."""
    _, rows, extra = flagship_pass(src_dir)
    return {"join_rows": rows.num_rows, "join_digest": join_digest(rows), "geo_rows": extra["geo_rows"]}


def dedup_pass(src_dir: str, tracer) -> LayerClock:
    """MinHash + LSH banding over ``src_dir``'s documents, one block per file."""
    from georay.dedup import minhash_band_batch

    clock = LayerClock(tracer)
    for f in parquet_files(f"{src_dir}/documents.parquet"):
        clock.call("dedup.minhash", minhash_band_batch, pq.read_table(f, columns=["doc_id", "text"]))
    return clock
