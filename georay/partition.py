"""Hash co-partitioning: the one keyed two-input exchange georay uses.

:func:`copartition` brings every left and right row with equal keys into
one task without Ray's ``Dataset.join``.  Each side is tagged with its
partition ``part_of(key, P)`` and a side flag, padded to one shared
schema with typed nulls, and the union goes through a single sort whose
boundaries are the partition numbers: plain tasks, no actor pool.  (Every
``Dataset.join`` starts a fresh pool of hash-shuffle aggregator actors,
one worker process each; at dedup scale that start-up was the whole cost
of the join, and the processes held hundreds of MB.)  ``kernel(L, R)``
then joins, anti-joins or scores the partition's two typed tables
locally, so a join and the computation after it are one stage.

Partition count policy stays with the caller (``num_partitions``); the
output has that many non-empty blocks at most (so at most that many
files when written), whatever the input block count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: most partitions one exchange may use
MAX_PARTITIONS = 65_536

_MIX = np.uint64(0x9E3779B97F4A7C15)
_PART, _SIDE = "_part", "_side"
_PREFIX = ("l:", "r:")


def part_of(keys, num_partitions: int) -> np.ndarray:
    """Partition index in ``[0, num_partitions)`` of integer keys: one
    array, or a sequence of equal-length arrays for a composite key.
    A multiply-xorshift mix, so consecutive ids spread evenly."""
    if isinstance(keys, np.ndarray):
        keys = [keys]
    h = np.zeros(len(keys[0]), np.uint64)
    for k in keys:
        h = (h ^ np.asarray(k).astype(np.uint64)) * _MIX
        h ^= h >> np.uint64(29)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _with_schema(ds):
    """(ds, its Arrow schema).  A side whose schema plan metadata does not
    give is materialized first: reading the schema of a lazy plan runs
    it, and a plan that ends in a shuffle would otherwise run twice."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        ds = ds.materialize()
        schema = ds.schema(fetch_if_missing=False)
    if schema is None or not isinstance(schema.base_schema, pa.Schema):
        raise ValueError(f"copartition needs an Arrow-typed dataset, got schema {schema}")
    return ds, schema.base_schema


def copartition(left, right, left_on, right_on, kernel, num_partitions: int):
    """Co-partition ``left`` and ``right`` on integer keys (a column name
    or a list of names each) and run ``kernel(L, R) -> pa.Table`` once per
    non-empty partition.  ``L`` and ``R`` carry each side's columns under
    their own names and types; either may be empty.  Rows with equal keys
    always share a partition, so an inner, anti or semi join of ``L`` and
    ``R`` is the same join restricted to that partition."""
    left_on = [left_on] if isinstance(left_on, str) else list(left_on)
    right_on = [right_on] if isinstance(right_on, str) else list(right_on)
    left, ls = _with_schema(left)
    right, rs = _with_schema(right)
    common = pa.schema(
        [pa.field(_PART, pa.int32()), pa.field(_SIDE, pa.int8())]
        + [pa.field(p + f.name, f.type) for p, s in zip(_PREFIX, (ls, rs)) for f in s]
    )

    def tag(side: int, on: list):
        def fn(b: pa.Table) -> pa.Table:
            n = b.num_rows
            cols = [
                pa.array(part_of([b.column(c).to_numpy() for c in on], num_partitions)),
                pa.array(np.full(n, side, np.int8)),
            ]
            for f in list(common)[2:]:
                prefix, name = f.name[:2], f.name[2:]  # both prefixes are 2 chars
                own = prefix == _PREFIX[side]
                cols.append(b.column(name).cast(f.type) if own else pa.nulls(n, f.type))
            return pa.Table.from_arrays(cols, schema=common)

        return fn

    def split(g: pa.Table, side: int, names: list) -> pa.Table:
        rows = g.filter(pc.equal(g.column(_SIDE), side))
        return rows.select([_PREFIX[side] + c for c in names]).rename_columns(names)

    def run(block: pa.Table) -> pa.Table:
        return kernel(split(block, 0, ls.names), split(block, 1, rs.names))

    # a sort with one boundary per partition: block i holds exactly
    # partition i, with no sampling pass (``groupby(...).map_groups``
    # ignores ``num_partitions`` under the sort shuffle and emits one
    # block per input block).  An empty boundary list would mean "sample",
    # so P=1 keeps the boundary 1 and an empty second block.
    return (
        left.map_batches(tag(0, left_on), batch_format="pyarrow")
        .union(right.map_batches(tag(1, right_on), batch_format="pyarrow"))
        .sort(_PART, boundaries=list(range(1, max(num_partitions, 2))))
        .map_batches(run, batch_size=None, batch_format="pyarrow")
    )
