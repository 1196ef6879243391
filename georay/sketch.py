"""Mergeable value-histogram sketch -> exact distributed percentiles.

The mandate's custom-operator list names "a novel sketch" as an
engine-level family: this is the simplest production-grade instance —
per-block value histograms are ASSOCIATIVE, COMMUTATIVE partials
(exactly like the per-cell envelope partials in stages/aggregate.py),
so a percentile query over 10^12 rows moves only
``#blocks × distinct-values-per-block`` histogram rows to the driver,
which merges them as they stream (``stages.aggregate.driver_merge``),
instead of sorting the corpus.  For INTEGER-valued columns
(lengths, counts, ages-in-days) the result is EXACT — decided in
integer arithmetic, so the DuckDB ``quantile_disc`` oracle matches
bit-for-bit.  For unbounded/continuous domains, quantize first (the
histogram then yields quantile bounds at quantization resolution);
that trade-off is the caller's, stated here rather than hidden.

quantile_disc parity (verified empirically): the p-quantile of n values
is the smallest value whose cumulative count reaches ``ceil(p * n)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from georay.stages.aggregate import blocks, combiner, driver_merge, merger


def value_count_partial(batch: pa.Table, group_col: str, value_col: str) -> pa.Table:
    """Per-batch combine: one (group, value, n) row per distinct pair
    (pyarrow C++ group_by) — the mergeable sketch partial.  NULL values
    are excluded (SQL aggregate semantics); a group whose values are all
    NULL therefore emits NO output row (where SQL would emit a NULL
    quantile) — documented divergence."""
    t = batch.filter(pc.is_valid(batch.column(value_col)))
    return combiner([group_col, value_col], {"n": (value_col, "count")})(t)


def merge_value_counts(batch: pa.Table, group_col: str, value_col: str) -> pa.Table:
    """Associative+commutative merge of histogram partials."""
    return merger([group_col, value_col], {"n": (value_col, "count")})(batch)


def percentiles_from_counts(batch: pa.Table, ps, group_col: str, value_col: str) -> pa.Table:
    """Final kernel over the fully-merged histogram (one small block):
    per group, sort by value, cumulative-sum, and for each p pick the
    smallest value whose cumulative count >= ceil(p * n) — exact
    quantile_disc semantics."""
    gtype = batch.schema.field(group_col).type
    df = batch.to_pandas().sort_values([group_col, value_col], kind="stable")
    out_g, out_p, out_v = [], [], []
    for g, sub in df.groupby(group_col, sort=False):
        vals = sub[value_col].to_numpy()
        cum = sub["n"].to_numpy().cumsum()
        n = int(cum[-1])
        for p in ps:
            # rank in EXACT rational arithmetic: float ceil(p*n) lands one
            # rank high whenever p*n is exactly representable as an
            # integer in decimal but not in binary (0.55*100 ->
            # 55.000000000000007 -> ceil 56; DuckDB returns rank 55)
            k = math.ceil(Fraction(str(p)) * n)
            v = vals[int(np.searchsorted(cum, k, side="left"))]
            out_g.append(g)
            out_p.append(float(p))
            out_v.append(int(v))
    return pa.table(
        {group_col: pa.array(out_g, gtype),
         "p": pa.array(out_p, pa.float64()),
         "value": pa.array(out_v, pa.int64())}
    )


def grouped_percentiles(ds, group_col: str, value_col: str, ps=(0.5, 0.9, 0.99)):
    """Dataset -> (group, p, value) exact percentiles as a one-block
    Dataset: per-block histogram partials, merged on the driver as they
    stream, then one tiny final kernel; all of it runs when this is
    called.  The only data movement is the already-combined histograms
    (rows bounded by groups × distinct values, NOT corpus rows), which
    is also the LIMIT of this operator: the merged histogram must fit
    the driver, so groups × distinct values should stay ≤ a few million
    (quantize wide domains first).  An empty corpus gives the typed
    empty result, with a string group column."""
    import ray.data

    h = ds.map_batches(
        lambda b: value_count_partial(b, group_col, value_col),
        batch_format="pyarrow", batch_size=None,
    )
    empty = pa.table({group_col: pa.array([], pa.string()), value_col: pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())})
    merged = driver_merge(blocks(h), lambda b: merge_value_counts(b, group_col, value_col), empty)
    return ray.data.from_arrow(percentiles_from_counts(merged, ps, group_col, value_col))
