"""Sequence packing for LLM training data: a distributed exclusive
prefix-sum ("scan") over per-document token counts.

The standard training-data layout concatenates every document in a
deterministic global order (here: ascending ``doc_id``) into one token
stream and slices it into fixed-length training sequences.  The operator
each pipeline needs is therefore NOT the slicing itself (that is a local
reshape once offsets are known) but the global scan: *at which token
offset does each document start, and which training sequence (bin) does
that offset fall into?*

A scan looks inherently sequential; the classic two-pass formulation
(Blelloch 1990, "Prefix Sums and Their Applications") distributes it:

  pass 1  per-batch vectorized token counts -> per-BUCKET partial sums
          (bucket = contiguous key range), combined per block; the
          per-block refs (O(1) rows each under key locality) concat to
          ONE small table of <= num_buckets + num_blocks rows;
  driver  exclusive cumsum over the <= num_buckets bucket sums (tiny);
          broadcast the per-bucket global offsets via ray.put;
  pass 2  hash-partition buckets across the cluster (every bucket lives
          wholly in one partition), one VECTORIZED multi-bucket kernel
          per partition: lexsort by (bucket, key), running cumsum,
          per-bucket rebase, add the broadcast bucket offset.

Scale shape: the only driver-side state is the num_buckets-row sum table
(default 4096 rows regardless of corpus size); the only shuffle is the
bucket hash partition of the SLIM (id, n_tokens, bucket) projection —
16 B/row, ~300x narrower than the raw pages.  Both passes read the slim
token table, so it is computed once and either materialized (default;
fine for the slim projection) or written through to parquet
(``out_dir``) exactly like the flagship's write-through mode — the full
text NEVER flows twice and is never pinned.

SQL mirror (oracle):
  SUM(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING AND
  1 PRECEDING) -- i.e. the exclusive window sum; bin = offset // seq_len.

No analog in the reference (geomatics-geotk is a geometry utility
library); this is part of the mandated large-scale training-data
surface, same tier as dedup/ANN (SURVEY §2.8 extras).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay.partition import hash_partition, partitions
from georay.stages.aggregate import combiner, merger
from georay.text import token_counts

DEFAULT_NUM_BUCKETS = 4096


def count_tokens_batch(batch: pa.Table, id_col: str = "doc_id",
                       text_col: str = "text") -> pa.Table:
    """(id, text) -> slim (id, n_tokens); the same vectorized RE2 count
    (and SQL mirror) as georay.text.token_counts."""
    text = batch.column(text_col).combine_chunks()
    nt = token_counts(text)["n_tokens"]
    return pa.table({
        id_col: batch.column(id_col),
        "n_tokens": pa.array(nt, pa.int64()),
    })


def _bucket_width(key_max: int, num_buckets: int) -> int:
    return max(1, -(-(key_max + 1) // num_buckets))  # ceil div


#: tokens per id bucket
_BUCKET_SUMS = {"sum_tokens": ("n_tokens", "sum")}


def _bucket_sums_partial(t: pa.Table, id_col: str, width: int) -> pa.Table:
    key = t.column(id_col).to_numpy(zero_copy_only=False)
    b = pa.table({"bucket": pa.array(key // width, pa.int64()), "n_tokens": t.column("n_tokens")})
    return combiner("bucket", _BUCKET_SUMS)(b)


def _scan_partition(g: pa.Table, offsets: np.ndarray, seq_len: int,
                    id_col: str) -> pa.Table:
    """One vectorized multi-bucket exclusive scan over a partition's
    Arrow block (numpy views, no pandas copy).  Every bucket is wholly
    inside this partition, so the partition-local per-bucket running
    sums are the bucket-global ones."""
    key = g.column(id_col).to_numpy(zero_copy_only=False)
    nt = g.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
    bucket = g.column("bucket").to_numpy()
    order = np.lexsort((key, bucket))
    key, nt, bucket = key[order], nt[order], bucket[order]
    exc = np.cumsum(nt) - nt
    starts = np.r_[0, np.flatnonzero(bucket[1:] != bucket[:-1]) + 1]
    base = np.repeat(exc[starts], np.diff(np.r_[starts, len(bucket)]))
    off = offsets[bucket] + (exc - base)
    return pa.table({
        id_col: pa.array(key.astype(np.int64), pa.int64()),
        "n_tokens": pa.array(nt, pa.int64()),
        "tok_offset": pa.array(off.astype(np.int64), pa.int64()),
        "bin": pa.array((off // seq_len).astype(np.int64), pa.int64()),
    })


def pack_sequences(ds, seq_len: int = 512, id_col: str = "doc_id",
                   text_col: str = "text",
                   num_buckets: int = DEFAULT_NUM_BUCKETS,
                   num_partitions: int | None = None,
                   key_max: int | None = None,
                   out_dir: str | None = None):
    """Concatenate-and-chunk packing index: one row per document with its
    global token offset (exclusive prefix sum in ascending ``id_col``
    order) and training-sequence ``bin = tok_offset // seq_len``.

    ``key_max``: upper bound on ``id_col`` (defines the bucket width).
    If None it is computed with ``ds.max`` — one extra slim pass; pass it
    when known (e.g. row count of an id-dense corpus) to skip that pass.
    ``out_dir``: write the slim token table through parquet instead of
    materializing it in the object store (the 100-TB deployment form,
    mirroring the flagship's write-through mode)."""
    import ray.data as _rd

    slim = ds.map_batches(
        lambda b: count_tokens_batch(b, id_col, text_col),
        batch_format="pyarrow",
    )
    if out_dir is not None:
        slim.write_parquet(out_dir)
        slim = _rd.read_parquet(out_dir)
    else:
        # slim projection only (id + count, ~16 B/row) — NOT the raw text
        slim = slim.materialize()

    if key_max is None:
        key_max = slim.max(id_col)
    if key_max is None:  # empty corpus
        return _rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "tok_offset": pa.array([], pa.int64()),
            "bin": pa.array([], pa.int64()),
        }))
    width = _bucket_width(int(key_max), num_buckets)

    # pass 1: per-bucket sums combined per block.  Each block touches
    # ~ceil(its key span / width) buckets — with any key locality in the
    # layout that's O(1) rows per block — but with randomly-placed ids a
    # block can touch up to num_buckets, so the driver-side concat is
    # gated on block count: up to _DIRECT_MERGE_MAX_BLOCKS refs are
    # concatenated directly (cheaper than a merge shuffle — the Dataset
    # tree_merge variant paid two repartition barriers, ~3 s at sf0.1,
    # to merge a few-thousand-row table); above that, remote fan-in
    # tasks reduce the partials where they live until at most one
    # fan-in's worth remain, so driver rows stay
    # O(fanout x num_buckets) regardless of num_blocks.
    st = slim.map_batches(
        lambda t: _bucket_sums_partial(t, id_col, width),
        batch_format="pyarrow",
    ).to_arrow_refs()
    import ray as _ray

    refs = list(st)
    while len(refs) > _DIRECT_MERGE_MAX_BLOCKS:
        task = _merge_partials_remote()
        refs = [
            task.remote(*refs[i : i + _MERGE_FANOUT])
            for i in range(0, len(refs), _MERGE_FANOUT)
        ]
    merged = _bucket_sums_partial_merge(
        pa.concat_tables(_ray.get(refs))
    )
    n_dense = num_buckets
    if merged.num_rows:
        bi = merged.column("bucket").to_numpy(zero_copy_only=False)
        sv = merged.column("sum_tokens").to_numpy(zero_copy_only=False)
        if bi.max() >= num_buckets:  # keys above the caller's key_max hint
            n_dense = int(bi.max()) + 1
    dense = np.zeros(n_dense, np.int64)
    if merged.num_rows:
        dense[bi] = sv
    offsets = np.cumsum(dense) - dense  # exclusive per-bucket offsets
    offsets_ref = _ray.put(offsets)

    def with_bucket(b: pa.Table) -> pa.Table:
        key = b.column(id_col).to_numpy(zero_copy_only=False)
        return b.append_column("bucket", pa.array(key // width, pa.int64()))

    def kernel(g: pa.Table) -> pa.Table:
        return _scan_partition(g, _ray.get(offsets_ref), seq_len, id_col)

    # slim is materialized (or a parquet read), so its row count is free
    # plan metadata — the partition count scales with the data, not just
    # the cluster (at 10^12 rows a fixed cap would put ~62 GB in one task)
    return hash_partition(
        slim.map_batches(with_bucket, batch_format="pyarrow"), "bucket", kernel,
        num_partitions or partitions(slim),
    )


#: direct driver concat is allowed up to this many per-block partial
#: refs — worst case 64 x num_buckets (4096) = 256k 16-B rows on the
#: driver; beyond that, fan-in tasks reduce remotely first.
_DIRECT_MERGE_MAX_BLOCKS = 64
_MERGE_FANOUT = 64


_bucket_sums_partial_merge = merger("bucket", _BUCKET_SUMS)


_MERGE_TASK = None


def _merge_partials_remote():
    """Lazily-defined fan-in reduce task (ray import stays function-local,
    matching the rest of this module): concat + re-group a handful of
    per-block bucket partials where they live; output <= num_buckets rows."""
    global _MERGE_TASK
    if _MERGE_TASK is None:
        import ray as _ray

        @_ray.remote
        def merge_bucket_partials(*parts: pa.Table) -> pa.Table:
            return _bucket_sums_partial_merge(pa.concat_tables(list(parts)))

        _MERGE_TASK = merge_bucket_partials
    return _MERGE_TASK
