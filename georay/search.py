"""BM25 full-text scoring over a document corpus (training-data /
retrieval extra; no reference analog — the classic two-pass distributed
ranking shape).

Scale design:
- Pass 1 (corpus statistics): per-batch partials — document count, token
  count, per-query-term document frequency — combined in-block, then a
  coalesce-merge tree (``stages.aggregate.tree_merge``).  The partial
  table is ``len(terms)+1`` rows regardless of corpus size; only that
  reaches the driver.
- Pass 2 (scoring): the tiny stats dict is BROADCAST into a second
  streaming pass that computes per-document BM25 against the query
  terms, prunes to top-k per block, then runs a global sort over
  <= top x blocks rows.  The corpus is never shuffled.

Determinism / oracle parity: per-term scores are computed in double with
a FIXED operation order mirrored token-for-token by the SQL oracle
(DuckDB shares glibc libm, so ``ln`` is bit-identical — verified), then
quantized to int64 via floor(s*1e9 + 0.5); the per-document score is the
integer SUM of per-term quanta, so summation order cannot perturb the
result on either side.  Token membership is tested on 64-bit siphash
values (``pd.util.hash_array``, fixed key) — vectorized uint64 compare
instead of per-row string equality.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from georay.dedup import _tokens_nonempty, segment_reduce
from georay.stages.aggregate import merger, tree_merge

K1 = 1.2
B = 0.75
SCORE_SCALE = 1e9
_HASH_KEY = "georay-bm25terms"

#: sentinel term for the corpus-level (n_docs, n_tokens) row in the
#: stats partial table (real terms are non-empty tokens, so '' is free)
_STATS_ROW = ""


def _hash_tokens(values: np.ndarray) -> np.ndarray:
    if len(values) == 0:
        return np.empty(0, np.uint64)
    return pd.util.hash_array(values, hash_key=_HASH_KEY).astype(np.uint64)


def _stats_partial(batch: pa.Table, terms: list[str], text_col: str) -> pa.Table:
    tok_np, offsets = _tokens_nonempty(batch.column(text_col).combine_chunks())
    h = _hash_tokens(tok_np)
    th = _hash_tokens(np.asarray(terms, object))
    dfs = np.zeros(len(terms), np.int64)
    for i in range(len(terms)):
        per_doc = segment_reduce(np.add, (h == th[i]).astype(np.int64), offsets, 0)
        dfs[i] = int((per_doc > 0).sum())
    return pa.table(
        {
            "term": pa.array([_STATS_ROW] + list(terms), pa.string()),
            "df": pa.array(np.r_[0, dfs], pa.int64()),
            "n_docs": pa.array(
                np.r_[batch.num_rows, np.zeros(len(terms), np.int64)], pa.int64()
            ),
            "n_tokens": pa.array(
                np.r_[len(tok_np), np.zeros(len(terms), np.int64)], pa.int64()
            ),
        }
    )


#: merge of the per-term document frequencies and the ``_STATS_ROW`` totals
_stats_merge = merger(
    "term", {"df": ("df", "sum"), "n_docs": ("n_docs", "sum"), "n_tokens": ("n_tokens", "sum")}
)


def corpus_stats(docs_ds, terms: list[str], text_col: str = "text") -> dict:
    """Pass 1: (N docs, total tokens, df per term) — tree-merged partials;
    only len(terms)+1 rows reach the driver."""
    partials = docs_ds.map_batches(
        lambda b: _stats_partial(b, terms, text_col), batch_format="pyarrow"
    )
    rows = tree_merge(partials, _stats_merge).take_all()
    stats = {r["term"]: r for r in rows}
    if _STATS_ROW not in stats:  # empty corpus: Ray skips UDFs on empty blocks
        return {"n_docs": 0, "n_tokens": 0, "df": {t: 0 for t in terms}}
    head = stats[_STATS_ROW]
    return {
        "n_docs": int(head["n_docs"]),
        "n_tokens": int(head["n_tokens"]),
        "df": {t: int(stats[t]["df"]) if t in stats else 0 for t in terms},
    }


def _score_batch(
    batch: pa.Table,
    terms: list[str],
    idf: np.ndarray,
    avgdl: float,
    text_col: str,
    id_col: str,
) -> pa.Table:
    tok_np, offsets = _tokens_nonempty(batch.column(text_col).combine_chunks())
    h = _hash_tokens(tok_np)
    th = _hash_tokens(np.asarray(terms, object))
    dl = np.diff(offsets).astype(np.float64)
    r = dl / avgdl  # fixed op order: dl/avgdl first, shared with the SQL mirror
    den_base = K1 * ((1.0 - B) + B * r)
    score_q = np.zeros(batch.num_rows, np.int64)
    for i in range(len(terms)):
        tf = segment_reduce(np.add, (h == th[i]).astype(np.int64), offsets, 0).astype(
            np.float64
        )
        s = idf[i] * ((tf * (K1 + 1.0)) / (tf + den_base))
        score_q += np.floor(s * SCORE_SCALE + 0.5).astype(np.int64)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "score_q": pa.array(score_q, pa.int64()),
        }
    )


def bm25_topk(
    docs_ds,
    terms: list[str],
    top: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
    stats: dict | None = None,
):
    """Two-pass BM25 top-k.  ``stats`` may be precomputed (e.g. cached
    across queries over the same corpus); otherwise pass 1 runs here.

    SQL mirror (k1=1.2, b=0.75; identical op order, scores quantized to
    int64 before the per-document sum):

        idf   = ln((n_docs - df + 0.5)/(df + 0.5) + 1.0)
        s_t   = idf * ((tf*(1.2+1.0)) /
                       (tf + 1.2*((1.0-0.75) + 0.75*(dl/(CAST(n_tokens AS DOUBLE)/n_docs)))))
        q_t   = CAST(FLOOR(s_t*1000000000.0 + 0.5) AS BIGINT)
        score_q = SUM(q_t) per doc; ORDER BY score_q DESC, doc_id LIMIT top
    """
    import pyarrow.compute as pc

    if stats is None:
        stats = corpus_stats(docs_ds, terms, text_col)
    n_docs, n_tokens = stats["n_docs"], stats["n_tokens"]
    if n_docs == 0:
        return docs_ds.map_batches(
            lambda b: pa.table(
                {id_col: pa.array([], pa.int64()), "score_q": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    avgdl = float(n_tokens) / n_docs
    idf = np.array(
        [
            np.log((n_docs - stats["df"][t] + 0.5) / (stats["df"][t] + 0.5) + 1.0)
            for t in terms
        ],
        np.float64,
    )

    scored = docs_ds.map_batches(
        lambda b: _score_batch(b, terms, idf, avgdl, text_col, id_col),
        batch_format="pyarrow",
    )

    def block_topk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "score_q": pa.array([], pa.int64())}
            )
        idx = pc.sort_indices(
            b, sort_keys=[("score_q", "descending"), (id_col, "ascending")]
        )
        return b.take(idx[:top])

    return (
        scored.map_batches(block_topk, batch_format="pyarrow")
        .sort(["score_q", id_col], descending=[True, False])
        .limit(top)
    )
