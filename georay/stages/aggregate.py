"""Keyed aggregates: one spec, two derived kernels, one exchange.

SURVEY.md §7.4: design every aggregate as partial + final.  A keyed
aggregate is ``keyed_agg(ds, on, aggs)``, where ``aggs`` is an ordered
``{out_name: (column, op)}`` dict with ``op`` in ``sum``/``count``/
``min``/``max`` (``count`` counts the column's non-null values).  The
two kernels derive from that spec:

1. :func:`combiner` runs inside ``map_batches`` and combines each batch
   down to one row per distinct key (pyarrow C++ group_by), so the keyed
   merge sees at most ``#blocks x keys_per_block`` rows instead of every
   row.  This bounds hot-key fan-in to #blocks regardless of row skew —
   the combiner IS the primary skew defence.
2. :func:`merger` re-aggregates the partials (``count`` becomes ``sum``);
   it is associative and commutative, so it may run on any subset.
   :func:`keyed_agg` runs it once per partition of one ``hash_partition``
   on the key (:mod:`georay.partition`), where every partial of a key
   meets, so each partition's merge is final.

Reductions that keep another route (the fused scan) take their kernels
from the same two functions.  A KEYLESS reduction (many partials, one
small result) is :func:`driver_merge`, on the driver: no exchange.
"""

from __future__ import annotations

import pyarrow as pa

from georay.partition import _names, hash_partition, partitions

_OPS = ("sum", "count", "min", "max")


def _group(keys: list, cols: list, spec: list, out: list, name: str):
    """A kernel grouping ``t``'s ``cols`` by ``keys`` with ``spec`` and
    naming the result ``out``.  An empty result keeps its typed columns
    as one empty chunk each (Ray treats zero-chunk columns as no schema)."""

    def kernel(t: pa.Table) -> pa.Table:
        g = t.select(cols).group_by(keys).aggregate(spec).rename_columns(out)
        return g if g.num_rows else g.schema.empty_table()

    kernel.__name__ = kernel.__qualname__ = name
    return kernel


def combiner(on, aggs: dict):
    """Batch -> one partial row per distinct key of ``on``: the key
    columns, then one column per ``aggs`` entry in its order.  Named
    ``<keys joined by _>_partial_agg``, so the Ray operator says which
    aggregate it is."""
    keys = _names(on)
    bad = {op for _, op in aggs.values()} - set(_OPS)
    if bad:
        raise ValueError(f"unsupported aggregate op(s) {sorted(bad)}; use {_OPS}")
    cols = list(dict.fromkeys(keys + [c for c, _ in aggs.values()]))
    return _group(keys, cols, list(aggs.values()), keys + list(aggs),
                  "_".join(keys) + "_partial_agg")


def merger(on, aggs: dict):
    """Merge of :func:`combiner` partials (same columns in, same out):
    each output column re-aggregated, a ``count`` by ``sum``."""
    keys = _names(on)
    out = list(aggs)
    spec = [(name, "sum" if op == "count" else op) for name, (_, op) in aggs.items()]
    return _group(keys, keys + out, spec, keys + out, "merge_" + "_".join(keys) + "_partials")


def keyed_agg(ds, on, aggs: dict):
    """Per-key aggregate of ``ds`` (see :func:`combiner` for the output
    columns): each block combined to partials, then one
    :func:`~georay.partition.hash_partition` on ``on`` merges them with
    :func:`merger`.  The partition count follows ``ds``'s rows
    (:func:`~georay.partition.partitions`), so no task holds every key.
    Lazy: nothing runs until the result is consumed.

    A materialized ``ds`` with no row gives the typed empty result
    without an exchange: the exchange runs no kernel over an empty
    partition, so its output would have no schema."""
    from ray.data.dataset import MaterializedDataset

    combine, merge = combiner(on, aggs), merger(on, aggs)
    schema = ds.schema() if isinstance(ds, MaterializedDataset) and ds.count() == 0 else None
    if schema is not None and isinstance(schema.base_schema, pa.Schema):
        import ray.data

        return ray.data.from_arrow(merge(combine(schema.base_schema.empty_table())))
    # sized by ds, whose row count may be free plan metadata; the lazy
    # partials' never is, so they would always get the floor
    partials = ds.map_batches(combine, batch_format="pyarrow")
    return hash_partition(partials, on, merge, partitions(ds))


#: the per-cell aggregate: (cell, n_docs, minlon, minlat, maxlon, maxlat,
#: t_min, t_max).  The envelope is A-01's expand-to-include loop as
#: min/max (Extents.java:73-120); the temporal partial feeds T-04.
CELL_AGGS = {
    "n_docs": ("cell", "count"),
    "minlon": ("lon", "min"),
    "minlat": ("lat", "min"),
    "maxlon": ("lon", "max"),
    "maxlat": ("lat", "max"),
    "t_min": ("warc_ts", "min"),
    "t_max": ("warc_ts", "max"),
}
cell_partial_agg = combiner("cell", CELL_AGGS)
merge_cell_partials = merger("cell", CELL_AGGS)


def blocks(ds):
    """``ds``'s blocks streamed to the driver as Arrow tables: the
    ``parts`` of :func:`driver_merge` for a Dataset."""
    return ds.iter_batches(batch_size=None, batch_format="pyarrow")


def driver_merge(parts, merge, empty):
    """The one KEYLESS reduce: many small partials -> one small result,
    merged on the driver.  ``parts`` is any iterable of Arrow tables (a
    Dataset's :func:`blocks`, or per-file ``pq.read_table`` calls); empty
    ones are skipped.  ``merge`` must be associative and commutative (it
    sees the running result concatenated with the tables read since the
    last merge), and ``empty`` is returned when no row arrives, so the
    typed-empty result is decided here once.

    The pending tables are merged into the running result once they hold
    at least as many rows as it does, so the driver holds about twice the
    output plus one part, never the whole input, and all merges together
    take about twice the input.  A keyless result is small by nature:
    an exchange would move the same partials through a sort barrier to
    end in one task anyway (at 902k flagship partial rows the exchange
    took 2.9-3.5 s, this merge 0.6-0.8 s; BASELINE.md)."""
    merged, pending, n_pending = [], [], 0  # merged: [] or [the running result]
    for t in parts:
        if t.num_rows:
            pending.append(t)
            n_pending += t.num_rows
            if n_pending >= sum(map(len, merged)):
                merged, pending, n_pending = [merge(pa.concat_tables(merged + pending))], [], 0
    if pending:
        merged = [merge(pa.concat_tables(merged + pending))]
    return merged[0] if merged else empty
