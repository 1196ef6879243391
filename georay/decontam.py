"""Benchmark decontamination: flag training documents sharing word
k-grams with a (small) evaluation set — the standard pre-training
decontamination pass (no reference analog; training-data extra).

Scale design: the eval set is SMALL BY CONTRACT (benchmarks are a few
thousand documents); its distinct shingle hashes are collected once via
per-batch distinct partials, merged on the driver, and broadcast with
``ray.put``.  The corpus pass is a stateless streaming ``map_batches``:
shingle each document
with the shared vectorized kernels (``georay.dedup``), hash, and count
membership via ``np.searchsorted`` against the sorted broadcast array —
no shuffle, no join, corpus never materialized.

Matching is on 64-bit siphash values (fixed key) rather than raw shingle
strings: the membership test is a vectorized uint64 binary search, and
at benchmark-set cardinality (<= 10^6 shingles) the collision
probability against any corpus shingle is ~1e-7 per 10^12 comparisons —
documented, not load-bearing for the oracle at test scale.

Shingle layout matches ``_shingle_strings`` (and the MinHash SQL
mirror): documents with >= k tokens emit their m-k+1 rolling k-grams,
shorter non-empty documents fall back to their raw tokens.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from georay.dedup import _shingle_strings, _tokens_nonempty, segment_reduce
from georay.partition import cached_map
from georay.stages.aggregate import blocks, driver_merge

_HASH_KEY = "georay-decontam1"


def _shingle_hashes(text: pa.Array, k: int):
    tok_np, offsets = _tokens_nonempty(text)
    grams, goffs = _shingle_strings(tok_np, offsets, k)
    if len(grams) == 0:
        return np.empty(0, np.uint64), goffs
    return pd.util.hash_array(grams, hash_key=_HASH_KEY).astype(np.uint64), goffs


def eval_shingle_set(eval_ds, k: int = 8, text_col: str = "text") -> np.ndarray:
    """Distinct shingle hashes of the eval set, as a SORTED uint64 array
    ready for ``ray.put`` broadcast.  Per-batch distinct partials keep
    driver traffic bounded by the eval set's vocabulary, not its length."""

    def distinct_partial(b: pa.Table) -> pa.Table:
        h, _ = _shingle_hashes(b.column(text_col).combine_chunks(), k)
        return pa.table(
            {"h": pa.array(np.unique(h).astype(np.int64), pa.int64())}
        )

    def distinct(t: pa.Table) -> pa.Table:
        return pa.table({"h": pc.unique(t.column("h"))})

    parts = eval_ds.map_batches(distinct_partial, batch_format="pyarrow")
    empty = pa.table({"h": pa.array([], pa.int64())})
    h = driver_merge(blocks(parts), distinct, empty).column("h").to_numpy()
    # int64 storage wraps back losslessly to the original uint64 hashes
    return np.sort(h.astype(np.uint64))


def contamination_batch(
    batch: pa.Table,
    eval_hashes: np.ndarray,
    k: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Per-document contamination counts against the broadcast eval-shingle
    array: n_shingles (occurrences), n_hits (occurrences present in the
    eval set), contaminated (n_hits > 0)."""
    h, goffs = _shingle_hashes(batch.column(text_col).combine_chunks(), k)
    n_shingles = np.diff(goffs).astype(np.int64)
    if len(h) and len(eval_hashes):
        pos = np.searchsorted(eval_hashes, h)
        pos[pos == len(eval_hashes)] = len(eval_hashes) - 1
        hit = (eval_hashes[pos] == h).astype(np.int64)
    else:
        hit = np.zeros(len(h), np.int64)
    n_hits = segment_reduce(np.add, hit, goffs, 0)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_shingles": pa.array(n_shingles, pa.int64()),
            "n_hits": pa.array(n_hits, pa.int64()),
            "contaminated": pa.array(n_hits > 0),
        }
    )


class Contamination:
    """Broadcast kernel (``cached_map(Contamination, ray.put(eval_hashes),
    ...)``): :func:`contamination_batch` against the eval shingle set,
    fetched once per worker."""

    def __init__(self, eval_hashes: np.ndarray, k: int, text_col: str, id_col: str):
        self.eval_hashes, self.k, self.text_col, self.id_col = eval_hashes, k, text_col, id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        return contamination_batch(b, self.eval_hashes, self.k, self.text_col, self.id_col)


def decontaminate(docs_ds, eval_ds, k: int = 8, text_col: str = "text", id_col: str = "doc_id"):
    """Corpus -> per-document contamination stats vs the eval set.

    The eval shingle set is built once (small by contract), shipped via
    ``ray.put``, and fetched once per worker by the scoring map
    (``cached_map(Contamination, ...)``)."""
    import ray

    score = cached_map(Contamination, ray.put(eval_shingle_set(eval_ds, k, text_col)),
                       k=k, text_col=text_col, id_col=id_col)
    return docs_ds.map_batches(score, batch_format="pyarrow")
