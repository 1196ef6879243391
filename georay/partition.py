"""Hash partitioning: georay's keyed exchanges, their one sizing rule, the
one rule that skips them, the one kernel that streams past a broadcast
side, and the one join against a small keyed side.

Two exchange primitives, one broadcast rule, one broadcast kernel and
the join that picks between them:

- :func:`hash_partition` (one input) runs ``kernel(t)`` once per
  partition with every row of each key the partition holds: per-user
  sessions, per-host quotas, n-gram top-k, LSH bucket verification and
  label delivery are all this shape.
- :func:`copartition` (two inputs) brings every left and right row with
  equal keys into one task.  Each side is tagged with a side flag and
  padded to one shared schema with typed nulls; ``kernel(L, R)`` then
  joins, anti-joins or scores the partition's two typed tables locally,
  so a join and the computation after it are one stage.
- :func:`broadcast_or_none` decides whether a two-input stage needs the
  exchange at all: it measures the small side and, when it fits
  ``BROADCAST_BYTES``, hands it back as one table for the caller to
  ``ray.put``, so the large side streams through a plain map with no
  shuffle; a one-input step whose whole input fits (the LSH bucket
  pairing) runs on that table on the driver.  A side over the budget
  keeps the exchange.  :func:`fits_broadcast` is its comparison against
  the budget.  A Dataset made by :func:`from_table` (a driver step's
  result) already has its table: ``broadcast_or_none`` sizes that table
  and runs no plan, so a chain of driver steps passes tables.
- :func:`cached_map` is that plain map: it builds the stage's class from
  the broadcast refs once per worker process and calls it on each batch,
  so a broadcast stage runs as plain tasks, never an actor pool.  The
  payloads a worker keeps across stages fit the same budget.
- :func:`keyed_join` is the one join of a streamed left side with a
  smaller keyed right side (dedup's candidate split, its Jaccard verify
  and its apply, curate's survivor semi-join, ``segment_revenue``):
  ``broadcast_or_none`` on the right side, then one ``cached_map`` over
  the left side or one ``copartition``, with the same ``kernel(L, R)`` on
  both routes; when both sides are driver tables the kernel runs on the
  driver.  It is the only caller of ``copartition``.

Both exchanges tag each row with ``part_of(key, P)`` and run the union
through a single sort whose boundaries are the partition numbers: block
i holds exactly partition i, no sampling pass, plain tasks, no actor
pool.
(``groupby(...).map_groups`` ignores ``num_partitions`` under Ray's
sort shuffle and samples first; every ``Dataset.join`` starts a fresh
pool of hash-shuffle aggregator actors, one worker process each.)  The
output has at most P non-empty blocks (so at most P files when
written), whatever the input block count.

One sizing rule, :func:`partitions`: ``max(4, 2 x cluster CPUs,
ceil(rows / rows_per_partition))`` with rows from free plan metadata —
one rows-per-partition cost model (*To Partition, or Not to Partition*,
SIGMOD 2021); past ``MAX_PARTITIONS`` it raises instead of clamping.
The same paper grounds the broadcast rule: a non-partitioned join wins
while its build side is small.
"""

from __future__ import annotations

import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: most partitions one exchange may use
MAX_PARTITIONS = 65_536
#: largest measured side, in bytes, that :func:`broadcast_or_none` hands
#: back for a broadcast instead of an exchange.  The crossover is not
#: measured: every timed side is far below it (dedup_near's banded
#: (band, key, id) rows about 1.3 MB, its 589 pairs 9 KB, its 401
#: candidate texts 355 KB, its resolution 6 KB; the segment_revenue
#: customers 308 KB at sf0.1), and none sits near it.
#: At 64 MiB the driver would run FastSV on about 4M edges and the
#: Jaccard verify over 64 MiB of texts; whether that still beats the
#: exchange is open.  It also bounds the payload bytes each worker's
#: :func:`cached_map` instances keep between batches.
BROADCAST_BYTES = 64 << 20

_MIX = np.uint64(0x9E3779B97F4A7C15)
#: the one 16-byte SipHash key for string and binary keys: fixed, so a
#: key lands in the same partition in every process (Python's ``hash``
#: is salted per process)
_STR_KEY = "0123456789123456"
_PART, _SIDE = "_part", "_side"
#: fewest rows one tagging task takes over blocks already made (a
#: materialized or driver-side input, :func:`_tag`): small blocks are
#: bundled, so the sort's map side runs a few tasks instead of one per
#: small block (its task count was the exchange's fixed cost at small
#: scale: tagging each of a materialized read's 16 default blocks in a
#: task of its own added 0.1-0.3 s to each small exchange query of
#: ``tools/check_correctness.py`` at sf0.01)
_TAG_ROWS = 8192
_PREFIX = ("l:", "r:")


def _as_uint64(k) -> np.ndarray:
    if isinstance(k, (pa.Array, pa.ChunkedArray)):
        k = k.to_numpy(zero_copy_only=False)
    k = np.asarray(k)
    if k.dtype.kind in "OSU":
        return pd.util.hash_array(k.astype(object), hash_key=_STR_KEY)
    return k.astype(np.uint64)


def part_of(keys, num_partitions: int) -> np.ndarray:
    """Partition index in ``[0, num_partitions)`` of integer, string or
    binary keys: one array (numpy or Arrow), or a sequence of
    equal-length arrays for a composite key.  Strings are hashed to
    uint64 first; then a multiply-xorshift mix per column, so
    consecutive ids spread evenly."""
    if isinstance(keys, (np.ndarray, pa.Array, pa.ChunkedArray)):
        keys = [keys]
    h = np.zeros(len(keys[0]), np.uint64)
    for k in keys:
        h = (h ^ _as_uint64(k)) * _MIX
        h ^= h >> np.uint64(29)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def partitions(ds=None, *, n_rows: int | None = None,
               rows_per_partition: int = 2_000_000) -> int:
    """The partition count of every exchange: ``max(4, 2 x cluster CPUs,
    ceil(rows / rows_per_partition))``.  The floor keeps each CPU busy
    with two tasks; past it the count grows with the data, so one task's
    share stays bounded.  ``rows`` is the larger of ``n_rows`` and
    ``ds``'s row count from free plan metadata (``_meta_count`` never
    runs a plan, so a lazy dataset keeps the floor).  A count past
    ``MAX_PARTITIONS`` raises ``ValueError``."""
    import ray

    rows = int(n_rows or 0)
    if ds is not None:
        try:
            rows = max(rows, int(ds._meta_count() or 0))
        except Exception:
            pass
    cpus = int(ray.cluster_resources().get("CPU", 4))
    p = max(4, 2 * cpus, -(-rows // rows_per_partition))
    if p > MAX_PARTITIONS:
        raise ValueError(
            f"{rows} rows at {rows_per_partition} rows per partition need {p} "
            f"partitions, more than MAX_PARTITIONS={MAX_PARTITIONS}; raise "
            "rows_per_partition or split the input"
        )
    return p


def fits_broadcast(nbytes: int) -> bool:
    """Whether ``nbytes`` fit ``BROADCAST_BYTES``: the one comparison
    against the budget (a broadcast side's measured size, the payloads
    :func:`cached_map` keeps), read per call so a test can lower it."""
    return nbytes <= BROADCAST_BYTES


#: the driver table behind each Dataset :func:`from_table` made; weak, so
#: an entry goes with its Dataset
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def from_table(t: pa.Table):
    """A Dataset of the one block ``t``, with ``t`` kept for it:
    :func:`broadcast_or_none` on it gives ``t`` back without running a
    plan, and :func:`driver_table` gives it to a step that runs on the
    driver.  Every driver step that hands a small result to the next
    stage returns it this way."""
    import ray.data

    # ``from_blocks`` is a ``DeveloperAPI``: it computes the block's
    # metadata here, where ``from_arrow`` starts a task for it and waits
    ds = ray.data.from_blocks([t])
    _TABLES[ds] = t
    return ds


def driver_table(ds) -> pa.Table | None:
    """The table a :func:`from_table` Dataset holds (or one that
    :func:`broadcast_or_none` fetched for it), else ``None``; never runs a
    plan."""
    return _TABLES.get(ds)


def broadcast_or_none(ds):
    """``(table, ds)`` when the measured ``size_bytes()`` of ``ds``'s
    materialized blocks fits ``BROADCAST_BYTES``, else ``(None, ds)``;
    ``ds`` comes back materialized either way, so the caller's exchange
    route does not run its plan again.  The table holds every row of
    ``ds`` (schemaless empty blocks dropped; no columns when ``ds`` has
    no rows and no known schema).  A Dataset from :func:`from_table` is
    sized by its table's ``nbytes`` and comes back as it is: no plan
    runs.  A fetched table is kept for the returned Dataset the same
    way, so asking again about it runs no plan either."""
    table = driver_table(ds)
    if table is not None:
        return (table if fits_broadcast(table.nbytes) else None), ds
    ds = ds.materialize()
    if not fits_broadcast(ds.size_bytes()):
        return None, ds
    blocks = [b for b in ds.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
    if blocks:
        table = pa.concat_tables(blocks)
    else:
        schema = ds.schema(fetch_if_missing=False)
        typed = schema is not None and isinstance(schema.base_schema, pa.Schema)
        table = schema.base_schema.empty_table() if typed else pa.table({})
    _TABLES[ds] = table
    return table, ds


#: per-worker-process instances built by :func:`cached_map`, keyed by
#: (class, ref hexes, sorted kwargs), each with its payloads' ``nbytes``.
#: Bounded, oldest out first: at most 8, and their payloads fit
#: ``BROADCAST_BYTES`` together (the newest alone may exceed it), so a
#: long-lived session cycling many payloads neither grows worker memory
#: nor keeps more than one budget of finished stages' broadcasts pinned
#: in the object store (the payloads are zero-copy views of it).  An
#: evicted instance is rebuilt on its next batch.
_INSTANCES: dict = {}
_INSTANCES_MAX = 8


def _instance(key, cls, refs, kwargs):
    hit = _INSTANCES.get(key)
    if hit is None:
        import ray

        payloads = ray.get(list(refs))
        hit = cls(*payloads, **kwargs), sum(getattr(p, "nbytes", 0) for p in payloads)
        while _INSTANCES and (
            len(_INSTANCES) >= _INSTANCES_MAX
            or not fits_broadcast(hit[1] + sum(n for _, n in _INSTANCES.values()))
        ):
            _INSTANCES.pop(next(iter(_INSTANCES)))
        _INSTANCES[key] = hit
    return hit[0]


def cached_map(cls, *refs, **kwargs):
    """A plain ``map_batches`` function, named after ``cls``, that calls
    ``cls(*ray.get(refs), **kwargs)`` on each batch; each worker process
    builds that instance once per (``cls``, refs, kwargs) and keeps it
    (within the bounds of ``_INSTANCES``).

    This is the one form of a stage over a broadcast side (``refs`` from
    ``ray.put``) or with costly setup: plain tasks reuse warm workers and
    fuse with the maps around them, where an actor pool spawns processes
    on every run.  Every positional argument must be an ``ObjectRef``
    (``TypeError`` otherwise): the cache keys on ref hexes, which are
    unique, while the ``id()`` of a plain payload can be reused by a
    later one and would serve a stale instance.  ``kwargs`` must be
    hashable."""
    import ray

    for r in refs:
        if not isinstance(r, ray.ObjectRef):
            raise TypeError(f"cached_map({cls.__name__}, ...) takes ObjectRefs, got {type(r).__name__}")
    key = (cls, tuple(r.hex() for r in refs), tuple(sorted(kwargs.items())))
    hash(key)  # unhashable kwargs fail here, on the driver

    def fn(batch):
        # fn is pickled by value, and so would be a dict it read directly
        # (a fresh cache per task); _instance is pickled by reference, so
        # the cache is the worker's own module state, kept across tasks
        return _instance(key, cls, refs, kwargs)(batch)

    fn.__name__ = fn.__qualname__ = cls.__name__
    return fn


def _names(on) -> list:
    return [on] if isinstance(on, str) else list(on)


def _tag(ds, fn):
    """``ds.map_batches(fn)``, the tag map before an exchange.  Over a plan
    whose every source is a file read, whole blocks: the read rule
    (:func:`georay.sources.read_parquet_grouped`) has sized its tasks, and
    the tag fuses into them (a ``batch_size`` would keep it out of the
    read's tasks and bundle them: 8 files read as 8 tasks, then tagged in
    1).  Over blocks already made, ``_TAG_ROWS`` rows a task or more."""
    from ray.data._internal.logical.operators.read_operator import Read

    todo, read = [ds._logical_plan.dag], True
    while todo:
        op = todo.pop()
        todo.extend(op.input_dependencies)
        read = read and (bool(op.input_dependencies) or isinstance(op, Read))
    return ds.map_batches(fn, batch_size=None if read else _TAG_ROWS, batch_format="pyarrow")


def _exchange(tagged, run, num_partitions: int):
    """Sort ``_part``-tagged rows into ``num_partitions`` blocks and map
    ``run`` over each whole block.  An empty boundary list would mean
    "sample", so P=1 keeps the boundary 1 and an empty second block."""
    return (
        tagged.sort(_PART, boundaries=list(range(1, max(num_partitions, 2))))
        .map_batches(run, batch_size=None, batch_format="pyarrow")
    )


def hash_partition(ds, on, kernel, num_partitions: int):
    """Hash-partition ``ds`` on ``on`` (a column name or a list of names)
    and run ``kernel(t) -> pa.Table`` once per non-empty partition.
    ``t`` has the input's columns and every row of each key it holds,
    in no particular order."""
    on = _names(on)

    def tag(b: pa.Table) -> pa.Table:
        part = part_of([b.column(c) for c in on], num_partitions)
        return b.append_column(_PART, pa.array(part))

    def run(block: pa.Table) -> pa.Table:
        return kernel(block.drop_columns([_PART]))

    return _exchange(_tag(ds, tag), run, num_partitions)


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
    """Co-partition ``left`` and ``right`` on their keys (a column name or
    a list of names each) and run ``kernel(L, R) -> pa.Table`` once per
    non-empty partition.  ``L`` and ``R`` carry each side's columns under
    their own names and types; either may be empty.  Rows with equal keys
    always share a partition, so an inner, anti or semi join of ``L`` and
    ``R`` is the same join restricted to that partition."""
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
                pa.array(part_of([b.column(c) for c in on], num_partitions)),
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

    left, right = _tag(left, tag(0, _names(left_on))), _tag(right, tag(1, _names(right_on)))
    return _exchange(left.union(right), run, num_partitions)


class KeyedJoin:
    """:func:`keyed_join`'s broadcast kernel (``cached_map(KeyedJoin,
    ray.put(right), ray.put(kernel))``): ``kernel(batch, right)``."""

    def __init__(self, right: pa.Table, kernel):
        self.right, self.kernel = right, kernel

    def __call__(self, b: pa.Table) -> pa.Table:
        return self.kernel(b, self.right)


def keyed_join(left, right, left_on, right_on, kernel):
    """Join the streamed ``left`` with the smaller keyed ``right`` by
    ``kernel(L, R) -> pa.Table``, where ``kernel`` keeps rows of ``L`` and
    attaches rows of ``R`` whose keys match (an inner, semi or anti join),
    so it gives the same rows whatever slice of ``L`` holds a key.

    While ``right`` fits ``BROADCAST_BYTES`` (:func:`broadcast_or_none`)
    and ``left`` is a driver table (:func:`driver_table`) too, ``kernel``
    runs once on the driver and the result is a :func:`from_table`
    Dataset.  While only ``right`` fits it goes out with one ``ray.put``
    and ``left`` streams through one plain map (:class:`KeyedJoin` under
    :func:`cached_map`) that calls ``kernel(batch, whole right)``: no
    shuffle, so a read before it and a write after it fuse into the same
    tasks.  Past the budget both sides are co-partitioned on their keys
    (:func:`copartition`), sized by :func:`partitions` from ``left``'s
    metadata and ``right``'s rows.  ``right`` needs an Arrow schema on
    every route."""
    import ray

    table, right = broadcast_or_none(right)
    if table is None:
        n = partitions(left, n_rows=right.count())
        return copartition(left, right, left_on, right_on, kernel, n)
    left_table = driver_table(left)
    if left_table is not None:
        return from_table(kernel(left_table, table))
    # the kernel is a second ref, so the instance key is the same in
    # every task (a kernel closure unpickled per task would not be)
    join = cached_map(KeyedJoin, ray.put(table), ray.put(kernel))
    return left.map_batches(join, batch_format="pyarrow")
