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
          driver merges the blocks as they stream (O(1) rows each under
          key locality, <= num_buckets without) into ONE table of
          <= num_buckets rows;
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
token table, so it is computed once and materialized (fine for the slim
projection) — the full text NEVER flows twice and is never pinned.

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

from georay.partition import cached_map, hash_partition
from georay.stages.aggregate import blocks, combiner, driver_merge, merger
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


_bucket_sums_merge = merger("bucket", _BUCKET_SUMS)


class BucketScan:
    """Broadcast kernel (``cached_map(BucketScan, ray.put(offsets), ...)``)
    of pass 2: the exclusive scan of one partition, each bucket rebased
    on its global offset."""

    def __init__(self, offsets: np.ndarray, seq_len: int, id_col: str):
        self.offsets, self.seq_len, self.id_col = offsets, seq_len, id_col

    def __call__(self, g: pa.Table) -> pa.Table:
        return _scan_partition(g, self.offsets, self.seq_len, self.id_col)


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
                   key_max: int | None = None):
    """Concatenate-and-chunk packing index: one row per document with its
    global token offset (exclusive prefix sum in ascending ``id_col``
    order) and training-sequence ``bin = tok_offset // seq_len``.

    ``key_max``: upper bound on ``id_col`` (defines the bucket width).
    If None it is computed with ``ds.max`` — one extra slim pass; pass it
    when known (e.g. row count of an id-dense corpus) to skip that pass."""
    import ray

    # slim projection only (id + count, ~16 B/row) — NOT the raw text
    slim = ds.map_batches(
        lambda b: count_tokens_batch(b, id_col, text_col),
        batch_format="pyarrow",
    ).materialize()

    if key_max is None:
        key_max = slim.max(id_col) or 0  # None: an empty corpus
    width = _bucket_width(int(key_max), num_buckets)

    # pass 1: per-bucket sums combined per block, merged on the driver.
    # Each block touches ~ceil(its key span / width) buckets: O(1) rows
    # with any key locality in the layout, up to num_buckets with
    # randomly-placed ids, so the driver holds O(num_buckets) rows
    # regardless of the block count.
    st = slim.map_batches(
        lambda t: _bucket_sums_partial(t, id_col, width),
        batch_format="pyarrow",
    )
    merged = driver_merge(blocks(st), _bucket_sums_merge, None)
    if merged is None:  # empty corpus: the exchange below would lose the schema
        return ray.data.from_arrow(pa.table({
            c: pa.array([], pa.int64()) for c in (id_col, "n_tokens", "tok_offset", "bin")
        }))
    bi = merged.column("bucket").to_numpy()
    # keys above the caller's key_max hint land past num_buckets
    dense = np.zeros(max(num_buckets, int(bi.max()) + 1), np.int64)
    dense[bi] = merged.column("sum_tokens").to_numpy()
    offsets = np.cumsum(dense) - dense  # exclusive per-bucket offsets

    def with_bucket(b: pa.Table) -> pa.Table:
        key = b.column(id_col).to_numpy(zero_copy_only=False)
        return b.append_column("bucket", pa.array(key // width, pa.int64()))

    return hash_partition(
        slim.map_batches(with_bucket, batch_format="pyarrow"), "bucket",
        cached_map(BucketScan, ray.put(offsets), seq_len=seq_len, id_col=id_col),
    )
