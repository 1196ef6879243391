"""Deterministic stratified sampling — the corpus-subsampling operator a
training-data pipeline runs before expensive stages (per-language /
per-source rate control).

Scale design: the sampling decision is a PURE FUNCTION of the row
(stratum rate + a deterministic hash of the id), so the operator is a
stateless ``map_batches`` filter — no shuffle, no RNG state, and
resumed / re-run partitions select identical rows (the resumability
requirement `georay.state.checkpoint` relies on).  Rates are integer
BASIS POINTS compared against ``hash(id) % 10000`` so the SQL oracle
reproduces the predicate exactly (no float thresholds).

Hash backends (same pattern as simhash/fingerprint): ``fast`` =
pandas' vectorized C hash kernel (production); ``md5`` = DuckDB's
``md5_number_lower`` mirror (oracle parity; hashes per unique id, the
documented oracle-surface cost).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from georay.dedup import md5_u64
from georay.stages.aggregate import combiner, merger


def _id_hash(ids: np.ndarray, hash_impl: str) -> np.ndarray:
    if hash_impl == "md5":
        return md5_u64(ids.astype(str).astype(object))
    return pd.util.hash_array(ids).astype(np.uint64)


def stratified_sample_batch(
    batch: pa.Table,
    rates_bp: dict[str, int],
    default_bp: int = 0,
    key_col: str = "lang",
    id_col: str = "doc_id",
    hash_impl: str = "fast",
    keep_cols: tuple[str, ...] | None = None,
) -> pa.Table:
    """Keep a row iff ``hash(id) % 10000 < rates_bp.get(stratum,
    default_bp)`` — vectorized per-stratum Bernoulli selection with a
    deterministic, re-run-stable decision per document."""
    if batch.num_rows == 0:
        cols = keep_cols or batch.column_names
        return batch.select(list(cols))
    ids = batch.column(id_col).to_numpy()
    strata = batch.column(key_col).to_numpy(zero_copy_only=False)
    h = _id_hash(ids, hash_impl) % np.uint64(10_000)
    thresh = np.full(len(ids), default_bp, dtype=np.uint64)
    for stratum, bp in rates_bp.items():
        thresh[strata == stratum] = bp
    out = batch.filter(pa.array(h < thresh))
    if keep_cols is not None:
        out = out.select(list(keep_cols))
    return out


def stratified_sample(ds, rates_bp: dict[str, int], default_bp: int = 0,
                      key_col: str = "lang", id_col: str = "doc_id",
                      hash_impl: str = "fast",
                      keep_cols: tuple[str, ...] | None = None):
    """Dataset form: one stateless map_batches filter over the stream."""
    return ds.map_batches(
        lambda b: stratified_sample_batch(
            b, rates_bp, default_bp, key_col, id_col, hash_impl, keep_cols
        ),
        batch_format="pyarrow",
    )


def group_counts(ds, key_col: str = "lang") -> dict[str, int]:
    """Exact per-stratum row counts via per-block pyarrow combine +
    driver merge of the per-block refs — no shuffle.  Bounded by the
    stratum VOCABULARY (languages/sources: O(10^2-10^3) rows per block
    and on the driver), not the corpus."""
    import ray as _ray

    counts = {"cnt": (key_col, "count")}
    refs = ds.map_batches(combiner(key_col, counts), batch_format="pyarrow").to_arrow_refs()
    parts = [t for t in _ray.get(refs) if t.num_rows]
    if not parts:
        return {}
    g = merger(key_col, counts)(pa.concat_tables(parts))
    return dict(zip(g.column(0).to_pylist(), g.column(1).to_pylist()))


def mixture_rates_bp(counts: dict[str, int], weights_bp: dict[str, int],
                     total_rows: int) -> dict[str, int]:
    """Per-stratum keep rates (basis points) that steer the output toward
    the target mixture: desired_g = total_rows * w_g // 10000, rate_g =
    min(10000, desired_g * 10000 // count_g).  All-integer so the SQL
    oracle reproduces it exactly.  A stratum whose corpus share is below
    its target saturates at 10000 (can't oversample without replacement
    — documented, mirrors the SQL LEAST)."""
    rates: dict[str, int] = {}
    for g, w in weights_bp.items():
        c = counts.get(g, 0)
        if c <= 0:
            continue
        desired = (total_rows * w) // 10_000
        rates[g] = min(10_000, (desired * 10_000) // c)
    return rates


def mixture_sample(ds, weights_bp: dict[str, int], total_rows: int,
                   key_col: str = "lang", id_col: str = "doc_id",
                   hash_impl: str = "fast",
                   keep_cols: tuple[str, ...] | None = None):
    """Rebalance the corpus toward a target mixture (e.g. language
    weights) with an output budget of ~``total_rows`` rows: ONE cheap
    vocabulary-bounded counting pass derives per-stratum keep rates,
    then the stateless deterministic hash filter selects rows — no
    shuffle, resumable, re-run-stable.  Strata without a weight are
    dropped (rate 0)."""
    counts = group_counts(ds, key_col)
    rates = mixture_rates_bp(counts, weights_bp, total_rows)
    return stratified_sample(ds, rates, 0, key_col, id_col, hash_impl, keep_cols)
