"""Web-crawl curation operators over the Common-Crawl-style pages table.

Host-level statistics are the first thing a crawl-curation pipeline
computes (per-host doc counts, content volume, recency) — the key space
is millions of hosts at 10^12 docs, so the shape is: vectorized host
extraction (RE2, same engine DuckDB uses) + per-batch pyarrow combine,
then ONE hash shuffle of combined partials keyed by host.  No driver
state, no broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from georay.partition import hash_partition
from georay.stages.aggregate import keyed_agg

#: scheme://authority prefix; group 1 = the authority (host[:port]).
#: RE2 syntax on both sides: pyarrow.compute and DuckDB regexp_extract.
HOST_PATTERN = r"^[a-z][a-z0-9+.\-]*://(?P<host>[^/?#]+)"


def extract_host(url: pa.Array) -> pa.Array:
    """Vectorized url -> host; '' when the url has no scheme://authority
    prefix (DuckDB regexp_extract returns '' on no-match — mirror it)."""
    hit = pc.extract_regex(url, HOST_PATTERN)
    host = pc.struct_field(hit, "host")
    return pc.fill_null(host, "")


#: per-host stats: (host, n_docs, sum_chars, max_ts_us)
HOST_AGGS = {"n_docs": ("host", "count"), "sum_chars": ("chars", "sum"), "max_ts_us": ("ts", "max")}


def host_rows(batch: pa.Table) -> pa.Table:
    """Per-document (host, chars, ts) rows: ``chars`` in codepoints,
    ``ts`` in micros since epoch."""
    return pa.table(
        {
            "host": extract_host(batch.column("url").combine_chunks()),
            "chars": pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
            "ts": pc.cast(batch.column("warc_ts"), pa.int64()),
        }
    )


def host_stats(pages_ds):
    """Pages dataset -> per-host stats (host, n_docs, sum_chars, max_ts).

    Shuffle volume = sum over blocks of distinct-hosts-per-block — the
    combined partials, never the documents.
    """
    agg = keyed_agg(pages_ds.map_batches(host_rows, batch_format="pyarrow"), "host", HOST_AGGS)

    def finish(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("max_ts_us"), pa.timestamp("us"))
        return b.drop_columns(["max_ts_us"]).append_column("max_ts", ts)

    return agg.map_batches(finish, batch_format="pyarrow")


def _quota_truncate(t: pa.Table, quota: int, host_col: str = "host",
                    id_col: str = "doc_id") -> pa.Table:
    """Keep the <= ``quota`` lowest ids per host WITHIN this table.
    Safe as a pre-shuffle combiner: a row kept by the GLOBAL quota has
    global per-host rank < quota, so its rank within any subset that
    contains it is also < quota — pre-truncation never drops a final
    keeper, it only bounds shuffle volume to quota x hosts-per-block."""
    if t.num_rows == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         host_col: pa.array([], pa.string())})
    host = t.column(host_col).combine_chunks()
    codes = pc.dictionary_encode(host).indices.to_numpy(zero_copy_only=False)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, codes))
    c = codes[order]
    starts = np.r_[0, np.flatnonzero(c[1:] != c[:-1]) + 1]
    rank = np.arange(len(c)) - np.repeat(starts, np.diff(np.r_[starts, len(c)]))
    keep = order[rank < quota]
    keep.sort()  # preserve input order (cosmetic; output is set-compared)
    return t.select([id_col, host_col]).take(pa.array(keep))


def host_quota(pages_ds, quota: int):
    """Per-host document cap: keep the ``quota`` lowest doc_ids of every
    host (deterministic curation quota — the standard guard against a
    single host dominating a training mix).

    Shape: slim (doc_id, host) projection -> per-block PRE-TRUNCATION to
    quota/host (combiner; bounds the shuffle to quota x hosts-per-block
    rows regardless of host skew) -> ONE hash shuffle on host -> the
    same vectorized multi-host rank kernel per partition for the exact
    global cut.  SQL mirror: ROW_NUMBER() OVER (PARTITION BY host
    ORDER BY doc_id) <= quota."""
    def slim(b: pa.Table) -> pa.Table:
        t = pa.table({
            "doc_id": b.column("doc_id"),
            "host": extract_host(b.column("url").combine_chunks()),
        })
        return _quota_truncate(t, quota)

    return hash_partition(
        pages_ds.map_batches(slim, batch_format="pyarrow"), "host",
        lambda g: _quota_truncate(g, quota),
    )
