"""Driver contract for the georay engine (Ray Data target).

``entry()`` runs the flagship pipeline at sf0.001; ``queries()`` /
``oracle_sql()`` expose each implemented operator for the sf0.01
DuckDB correctness gate.  Ray is initialised by the driver BEFORE this
module is imported — nothing here calls ``ray.init``/``ray.shutdown``.

Float-parity design note: every oracle-checked query either emits
integers/strings/timestamps, or doubles produced by the *identical*
IEEE-754 operation sequence on both sides (see georay/pipelines/pages.py
printf round-trip) so order-insensitive value hashes match exactly.
Distributed float SUMs are avoided in checked outputs (addition-order
nondeterminism) by summing integer cents instead.
"""

from __future__ import annotations

import datetime
import hashlib
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Max, Min

from georay import cells
from georay.partition import cached_map, keyed_join
from georay.pipelines.flagship import flagship, geo_dataset
from georay.pipelines.pages import PAGES_SQL_CTE, read_pages
from georay.pipelines.polygons import (
    N_RECT_COLS,
    N_RECT_ROWS,
    polygon_payload,
    rect_bounds,
    star_edges_sql_values,
)
from georay.stages.aggregate import CELL_AGGS, blocks, driver_merge, keyed_agg
from georay.stages.join import KNNJoin, SpatialJoin

def _cents(v: np.ndarray) -> np.ndarray:
    """Money -> integer cents with HALF-AWAY-FROM-ZERO rounding, matching
    DuckDB's round() exactly for either sign (np.round is half-to-even —
    a latent 1-cent divergence whenever a value lands on an exact .5 of a
    cent; plain floor(x*100+0.5) is half-UP, wrong for negative values)."""
    return (np.sign(v) * np.floor(np.abs(v) * 100 + 0.5)).astype(np.int64)


SF001 = "/root/testdata/sf0.001"
CELL_RES = 7

#: session memo of the materialized upstreams several queries share,
#: keyed by (what, sf_dir): the extracted+cellized geo dataset (~10 geo
#: queries), the MinHash-verified pairs (`minhash_pairs`,
#: `minhash_pairs_join`, `dedup_resolve`) and their resolution
#: (`dedup_resolve`, `dedup_apply`).  Each is built once per driver
#: session; the first call still runs the pipeline.
_MEMO: dict[tuple, Any] = {}


def _memo(key: tuple, build: Callable[[], Any]):
    if key not in _MEMO:
        _MEMO[key] = build()
    return _MEMO[key]


def _geo(sf_dir: str):
    return _memo(("geo", sf_dir), lambda: geo_dataset(read_pages(sf_dir), res=CELL_RES).materialize())


#: session-scoped memo of table reads, beside `_MEMO` for its size cap —
#: the driver's correctness gate runs all 70 queries in one session, ~40
#: of which re-read the same (documents, [doc_id, text]) projection;
#: decoding it once cuts the suite's fixed cost.  Only SMALL files are
#: materialized (gate scales are MBs) — above the cap the lazy read is
#: returned uncached, so the memo never pins big data in the object store.
_READ_CACHE: dict[tuple, Any] = {}
_READ_CACHE_MAX_BYTES = 256 * 2**20


def _size_on_disk(path: str) -> int:
    """Bytes of a table: one file, or every file under a directory-shaped
    (partitioned) table — the directory entry's own size says nothing."""
    import os

    if not os.path.isdir(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    key = (sf_dir, table, tuple(columns) if columns else None)
    ds = _READ_CACHE.get(key)
    if ds is None:
        path = f"{sf_dir}/{table}.parquet"
        ds = ray.data.read_parquet(path, columns=columns)
        if _size_on_disk(path) > _READ_CACHE_MAX_BYTES:
            return ds  # big input: stay lazy, don't memo
        ds = _READ_CACHE[key] = ds.materialize()
    return ds

# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline on sf0.001: extract -> reproject -> cellize ->
    broadcast spatial join -> per-cell aggregate; returns the aggregate."""
    joined, agg = flagship(read_pages(SF001), res=CELL_RES)
    # consume the join branch so the whole DAG executes; return the agg
    n = joined.count()
    assert n >= 0
    return agg


# ---------------------------------------------------------------------------
# query helpers
# ---------------------------------------------------------------------------

def _rect_payload():
    return [p for p in polygon_payload() if p["polygon_id"].startswith("rect-")]


def _star_payload():
    return [p for p in polygon_payload() if p["polygon_id"].startswith("star-")]


def _ref_points():
    """kNN broadcast side: the 24 rect centers."""
    ids, lons, lats = [], [], []
    for rid in range(N_RECT_COLS * N_RECT_ROWS):
        minlon, minlat, maxlon, maxlat = rect_bounds(rid)
        ids.append(rid)
        lons.append((minlon + maxlon) / 2.0)
        lats.append((minlat + maxlat) / 2.0)
    return {"ref_id": np.asarray(ids, dtype=np.int64), "lon": np.asarray(lons), "lat": np.asarray(lats)}


def _q_geo_extract(sf_dir: str):
    ds = _geo(sf_dir)
    return ds.map_batches(
        lambda b: b.select(["doc_id", "lon", "lat"]), batch_format="pyarrow"
    )


def _q_tile_assign(sf_dir: str):
    ds = _geo(sf_dir)
    return ds.map_batches(lambda b: b.select(["doc_id", "cell"]), batch_format="pyarrow")


def _q_cell_agg(sf_dir: str):
    return keyed_agg(_geo(sf_dir), "cell", CELL_AGGS)


def _q_bbox_join(sf_dir: str):
    geo = _geo(sf_dir)
    ref = ray.put(_rect_payload())
    return geo.map_batches(
        cached_map(SpatialJoin, ref, predicate="BBOX", keep_cols=("doc_id",)), batch_format="pyarrow"
    ).map_batches(lambda b: b.select(["doc_id", "polygon_id"]), batch_format="pyarrow")


def _q_pip_join(sf_dir: str):
    geo = _geo(sf_dir)
    ref = ray.put(_star_payload())
    return geo.map_batches(
        cached_map(SpatialJoin, ref, predicate="WITHIN", keep_cols=("doc_id",)), batch_format="pyarrow"
    ).map_batches(lambda b: b.select(["doc_id", "polygon_id"]), batch_format="pyarrow")


def _q_knn(sf_dir: str):
    geo = _geo(sf_dir)
    ref = ray.put(_ref_points())
    return geo.map_batches(
        cached_map(KNNJoin, ref, k=3, exact=False, keep_cols=("doc_id",)), batch_format="pyarrow"
    ).map_batches(lambda b: b.select(["doc_id", "ref_id", "rank"]), batch_format="pyarrow")


def _q_knn_grid(sf_dir: str):
    """kNN via the cell-neighbourhood GRID path: 5000 reference points
    (above the brute-force threshold) force ring expansion with the
    provable distance bound; oracle is an exact cross-join top-3.
    Ref coordinates derive from integer arithmetic so the SQL mirrors
    them without a VALUES blob."""
    i = np.arange(5000, dtype=np.int64)
    refs = {
        "ref_id": i,
        "lon": (i * 104729 + 17) % 36000 / 100.0 - 180.0,
        "lat": (i * 7919 + 11) % 17000 / 100.0 - 85.0,
    }
    ref = ray.put(refs)
    return _geo(sf_dir).map_batches(
        cached_map(KNNJoin, ref, k=3, exact=False, index_res=6, keep_cols=("doc_id",)),
        batch_format="pyarrow",
    ).map_batches(lambda b: b.select(["doc_id", "ref_id", "rank"]), batch_format="pyarrow")


def _q_text_invariant(sf_dir: str):
    """md5 of the text each page carries == md5 of the source document text
    (byte-identical extracted text per url)."""

    def md5_batch(b: pa.Table) -> pa.Table:
        hs = [hashlib.md5(t.encode()).hexdigest() for t in b.column("text").to_pylist()]
        return pa.table({"doc_id": b.column("doc_id"), "text_md5": pa.array(hs, pa.string())})

    return read_pages(sf_dir).map_batches(md5_batch, batch_format="pyarrow")


def _q_dedup_exact(sf_dir: str):
    """Exact text dedup: keep min doc_id per distinct text (hash-partition
    on a vectorized 128-bit content key + per-group min; only 16-byte keys
    shuffle; SURVEY.md §2.8 exact dedup)."""
    from georay.dedup import text_key_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    keyed = ds.map_batches(text_key_batch, batch_format="pyarrow")
    agg = keyed_agg(keyed, ["h1", "h2"], {"doc_id": ("doc_id", "min")})
    return agg.map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def _q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style per-flag aggregate; money summed as integer cents
    for exact distributed addition."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        qty = _cents(b.column("l_quantity").to_numpy())
        price = _cents(b.column("l_extendedprice").to_numpy())
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty_c": pa.array(qty),
                "price_c": pa.array(price),
            }
        )

    return keyed_agg(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty_cents": ("qty_c", "sum"),
            "sum_price_cents": ("price_c", "sum"),
            "count_order": ("qty_c", "count"),
        },
    )


def _q_top_customers(sf_dir: str):
    """Join orders x customer, top 10 by total spend (cents), computed
    when called."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        c = _cents(b.column("o_totalprice").to_numpy())
        return pa.table({"o_custkey": b.column("o_custkey"), "price_c": pa.array(c)})

    per_cust = keyed_agg(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        "o_custkey",
        {"total_cents": ("price_c", "sum"), "n_orders": ("price_c", "count")},
    )

    def local_top(b: pa.Table) -> pa.Table:
        return b.sort_by(
            [("total_cents", "descending"), ("o_custkey", "ascending")]
        ).slice(0, 10)

    # per-block top-10 partials merged on the driver instead of a global
    # sort shuffle; names are attached there, to the 10 rows
    empty = pa.table({"o_custkey": pa.array([], pa.int64()), "total_cents": pa.array([], pa.int64()),
                      "n_orders": pa.array([], pa.int64())})
    parts = per_cust.map_batches(local_top, batch_format="pyarrow", batch_size=None)
    top = driver_merge(blocks(parts), local_top, empty)
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    names = cust.column("c_name").take(pc.index_in(top.column("o_custkey"), cust.column("c_custkey")))
    return ray.data.from_arrow(
        top.append_column("c_name", names).select(["o_custkey", "c_name", "total_cents", "n_orders"])
    )


def _q_events_by_type(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        c = _cents(b.column("value").to_numpy())
        return pa.table({"event_type": b.column("event_type"), "ts": b.column("ts"), "value_c": pa.array(c)})

    return keyed_agg(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        "event_type",
        {
            "n_events": ("value_c", "count"),
            "ts_min": ("ts", "min"),
            "ts_max": ("ts", "max"),
            "value_cents": ("value_c", "sum"),
        },
    )


# ---------------------------------------------------------------------------
# training-data ops (text / dedup / ANN) + temporal + hierarchy queries
# ---------------------------------------------------------------------------

def _q_token_stats(sf_dir: str):
    """Token counting + quality scoring (georay.text), oracle-checked."""
    from georay.text import quality_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow")


def _q_pagerank(sf_dir: str):
    """Integer fixed-point PageRank (3 rounds) over a deterministic
    3-outlink synthetic doc graph — one superstep a round on the BSP
    engine's resident actor partitions (georay.graph); oracle = 3
    unrolled SQL join+aggregate rounds."""
    from georay.graph import pagerank, synthesize_outlinks_batch

    ids = _read(sf_dir, "documents", ["doc_id"])
    n = int(ids.max("doc_id")) + 1
    edges = ids.map_batches(
        lambda b: synthesize_outlinks_batch(b, num_nodes=n, k=3),
        batch_format="pyarrow",
    )
    return pagerank(edges, iters=3)


def _q_pagerank_dangling(sf_dir: str):
    """PageRank with uniform dangling-mass redistribution (2 rounds):
    only EVEN doc_ids emit outlinks, so odd nodes are dangling and their
    damped mass is re-added uniformly each round — integer-exact
    (georay.graph dangling='redistribute'); oracle = 2 unrolled SQL
    rounds each with a dangling-sum CTE."""
    from georay.graph import pagerank, synthesize_outlinks_batch

    ids = _read(sf_dir, "documents", ["doc_id"])
    n = int(ids.max("doc_id")) + 1

    def even_outlinks(b):
        import pyarrow.compute as _pc

        evens = b.filter(_pc.equal(_pc.bit_wise_and(b.column("doc_id"), 1), 0))
        return synthesize_outlinks_batch(evens, num_nodes=n, k=3)

    edges = ids.map_batches(even_outlinks, batch_format="pyarrow")
    return pagerank(edges, iters=2, dangling="redistribute")


def _q_mixture_sample(sf_dir: str):
    """Mixture rebalancing: vocabulary-bounded counting pass -> integer
    per-lang keep rates toward a 40/15/15/15/15 target at ~250 rows ->
    deterministic hash filter (md5 oracle surface)."""
    from georay.sample import mixture_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return mixture_sample(
        ds,
        weights_bp={"en": 4000, "de": 1500, "fr": 1500, "es": 1500, "zh": 1500},
        total_rows=250,
        hash_impl="md5",
        keep_cols=("doc_id", "lang"),
    )


def _q_chunk_text(sf_dir: str):
    """Overlapping 200-char windows (stride 150) per document —
    chunk-index-vectorized explode, no shuffle."""
    from georay.text import chunk_text

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_text(ds, size=200, stride=150)


def _q_pack_sequences(sf_dir: str):
    """Sequence-packing index: global exclusive token prefix-scan in
    doc_id order + training bin (seq_len 512) per document — the
    distributed two-pass scan (georay.pack), oracle = SQL window sum."""
    from georay.pack import pack_sequences

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(ds, seq_len=512)


def _q_langid(sf_dir: str):
    """Heuristic language ID (rows-only check; accuracy tested in pytest)."""
    from georay.text import langid_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(langid_batch, batch_format="pyarrow")


def _q_text_normalize(sf_dir: str):
    """Canonical text normalization (NFC + lower + whitespace collapse) —
    all pyarrow C++ kernels; DuckDB shares the utf8proc + RE2 semantics,
    so the normalized STRINGS themselves are oracle-compared byte for
    byte, not just counts."""
    from georay.text import normalize_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(normalize_batch, batch_format="pyarrow")


def _q_top_ngrams(sf_dir: str):
    """Global top-20 word trigrams: in-block combiner -> one groupby ->
    per-block EXACT top-k prune -> small global sort.  Rank column
    materialized from the sorted order so the oracle verifies the
    ordering itself (ties break lexicographically)."""
    from georay.text import top_ngrams

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    df = top_ngrams(ds, k=3, top=20).to_pandas().reset_index(drop=True)
    df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df


def _q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (class prototypes): per-block
    int64-quantized partial sums -> merged on the driver -> one explode.
    Exact-integer sums make the result order-independent; the single
    final division is the only float op (see georay.ann.label_centroids)."""
    from georay.ann import label_centroids

    ds = _read(sf_dir, "embeddings", ["embedding", "label"])
    return label_centroids(ds)


def _q_redact(sf_dir: str):
    """PII-style pattern redaction (URL -> email -> long-digit-run, in
    that order) with per-type match counts — pure pyarrow RE2 kernels;
    DuckDB shares RE2, so the redacted STRINGS are oracle-compared byte
    for byte."""
    from georay.text import redact_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(redact_batch, batch_format="pyarrow")


def _q_repetition(sf_dir: str):
    """Gopher-style word-repetition quality stats (top-word/top-bigram
    multiplicity, distinct fraction, token chars) as EXACT integers plus
    a float-free keep verdict — one C groupby per batch, no per-doc
    Python."""
    from georay.text import repetition_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(repetition_stats_batch, batch_format="pyarrow")


#: fixed BM25 query (terms from the synthetic corpus vocabulary)
_BM25_TERMS = ["table", "scan", "hash", "window", "spark"]


def _q_bm25(sf_dir: str):
    """BM25 top-10: pass 1 merges the (n_docs, n_tokens, df/term)
    partials, len(terms)+1 rows per block, on the driver; pass 2
    broadcasts the stats and scores per batch, per-block top-k prune,
    top-k merge on the driver.  Per-term scores are int64-quantized
    before the per-doc sum, so summation order cannot perturb the result
    (georay.search)."""
    from georay.search import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, _BM25_TERMS, top=10)


def _q_decontam(sf_dir: str):
    """Benchmark decontamination: docs sharing any word 8-gram with the
    eval split (doc_id % 97 == 0 — small by contract) are flagged.  The
    eval shingle-hash set is broadcast once via ray.put; the corpus pass
    is a stateless streaming map_batches with a vectorized uint64 binary
    search — no shuffle, no join (georay.decontam)."""
    from georay.decontam import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    ev = docs.map_batches(
        lambda b: b.filter(
            pa.array(b.column("doc_id").to_numpy(zero_copy_only=False) % 97 == 0)
        ),
        batch_format="pyarrow",
    )
    return decontaminate(docs, ev, k=8)


def _q_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means (k=4, 2 assignment rounds): init = the
    k smallest-id vectors; centroids broadcast per round; recompute via
    int64-quantized partial sums merged on the driver.  Per-dimension
    squared distances are quantized to int64 BEFORE summing, so the
    argmin (and its lowest-cluster tie-break) is exact and
    SQL-reproducible — the oracle replays both rounds in CTEs
    (georay.ann.kmeans_assign)."""
    from georay.ann import kmeans_assign

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_assign(ds, k=4, iters=2)


def _q_fingerprint(sf_dir: str):
    """Winnowing fingerprints with the md5 hash backend, whose shingle
    hash DuckDB mirrors exactly via md5_number_lower — full value oracle."""
    from georay.text import fingerprint_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: fingerprint_batch(b, hash_impl="md5"), batch_format="pyarrow"
    )


def _q_simhash(sf_dir: str):
    """SimHash with the md5 token-hash backend (DuckDB-mirrorable) —
    full value oracle reconstructs every bit via majority vote in SQL."""
    from georay.dedup import simhash_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: simhash_batch(b, hash_impl="md5"), batch_format="pyarrow"
    ).map_batches(lambda b: b.select(["doc_id", "simhash"]), batch_format="pyarrow")


def _q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs via the permuted multi-index (20 tables of
    ~32-bit block-subset keys, georay/dedup.py simhash_index_keys):
    hamming<=3 implies a shared table key — pigeonhole, so recall is
    exactly 1 — and pairs verify INLINE by exact hamming on the simhash
    payload riding the bucket shuffle.  The SQL oracle reproduces the
    exact pair set through its own (equivalent, recall-1) 4x16-bit
    pigeonhole prefilter + bit_count<=3; both sides emit precisely the
    hamming<=3 pairs, so index layout differences are invisible."""
    from georay.dedup import simhash_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3, hash_impl="md5")


def _minhash_verified_pairs(sf_dir: str):
    from georay.dedup import near_dup_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return _memo(("minhash_pairs", sf_dir), lambda: near_dup_pairs(docs)[0].materialize())


def _q_minhash_pairs(sf_dir: str):
    """MinHash+LSH candidates (``band_bucket_pairs``: on the driver while
    the banded rows fit ``BROADCAST_BYTES``, else keyed exchanges on
    (band, key), then on the pair) verified with EXACT 3-shingle Jaccard
    >= 1/2 decided in integer arithmetic.  Oracle-checkable: the SQL
    mirror computes all-pairs exact Jaccard; LSH recall at the planted-pair similarity (J >= 0.9 in the
    testdata, 32 bands x 4 rows) has miss probability ~(1-0.9^4)^32 ≈
    1e-15, so both sides emit the identical pair set."""
    return _minhash_verified_pairs(sf_dir)


def _q_minhash_pairs_join(sf_dir: str):
    """Same verified MinHash+LSH pair set as `minhash_pairs`, by the same
    route: ``band_bucket_pairs`` pairs the buckets on the driver while the
    banded rows fit ``BROADCAST_BYTES``, and past it runs two keyed
    exchanges sized by the data, which serve unbounded bucket-table
    cardinality (10^12-doc corpora) with no single merge task.  The query
    keeps its name and its SQL mirror, which is identical to
    `minhash_pairs`'s."""
    return _minhash_verified_pairs(sf_dir)


def _q_dedup_resolve(sf_dir: str):
    """Dedup RESOLUTION: near-dup candidate pairs -> connected components
    -> canonical survivor (component-minimum doc_id) per clustered doc —
    the step a training-data dedup applies after candidate generation.
    ``connected_components`` labels on the driver (FastSV) while the
    pairs fit ``BROADCAST_BYTES``, else by the same FastSV rounds on the
    BSP engine of georay.graph; oracle = recursive transitive closure in
    SQL over the same verified pair set."""
    return _minhash_resolution(sf_dir)


def _minhash_resolution(sf_dir: str):
    from georay.dedup import connected_components

    return _memo(
        ("resolution", sf_dir), lambda: connected_components(_minhash_verified_pairs(sf_dir)).materialize()
    )


def _q_dedup_apply(sf_dir: str):
    """End-to-end dedup APPLICATION: corpus -> survivors only (every doc
    whose resolution row names a different survivor is dropped) via
    ``apply_dedup``'s ``keyed_join`` anti kernel (the resolution
    broadcast while it fits ``BROADCAST_BYTES``, else co-partitioned) —
    the step a training-data pipeline ships after candidate generation +
    resolution.  Oracle: NOT IN over the same recursive-closure
    resolution."""
    from georay.dedup import apply_dedup

    res = _minhash_resolution(sf_dir)
    docs = _read(sf_dir, "documents", ["doc_id"])
    return apply_dedup(docs, res)


def _q_dedup_stream(sf_dir: str):
    """ONLINE exact dedup through the sharded shared mutable seen-index
    (raw Ray actors — the one op family the Dataset API can't express):
    each content key is admitted exactly once across the whole stream as
    batches arrive.  WHICH duplicate survives is arrival-order dependent,
    so the deterministic (oracle-checked) surface is the admitted KEY
    set, which must equal the corpus's distinct md5(text) set."""
    from georay.dedup import md5_batch
    from georay.state.seen_index import StreamDedupStage, make_seen_index

    shards = make_seen_index()
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    keyed = ds.map_batches(md5_batch, batch_format="pyarrow")
    admitted = keyed.map_batches(
        StreamDedupStage(shards, key_col="h"), batch_format="pyarrow"
    )
    # materialize: the stage mutates the shared index, so the plan must
    # execute exactly once even if the consumer iterates the result twice
    return admitted.map_batches(
        lambda b: b.select(["h"]), batch_format="pyarrow"
    ).materialize()


def _q_embed_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs (>= 0.30): the BRUTE baseline,
    distributed as a map_batches sweep of the streaming vector dataset
    against a broadcast unit matrix (explicitly the small-broadcast-side
    path — the LSH query is the scale path).  Each batch emits its
    (batch_row < broadcast_row) pairs, so every pair appears exactly
    once.  Oracle via DuckDB list_cosine_similarity on DOUBLE lists
    (0.30 sits >5e-7 from every pair similarity at all sfs, so f64
    op-order differences cannot flip rows)."""
    from georay.ann import _to_matrix

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    vecs = _to_matrix(t.column("embedding"))
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    ref = ray.put({"ids": t.column("vec_id").to_numpy(), "unit": vecs / norms[:, None]})

    class BruteDup:
        def __init__(self, payload):
            self.all_ids = np.asarray(payload["ids"], dtype=np.int64)
            self.unit = np.asarray(payload["unit"], dtype=np.float64)

        def __call__(self, b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.table(
                    {"vec_a": pa.array([], pa.int64()), "vec_b": pa.array([], pa.int64())}
                )
            v = _to_matrix(b.column("embedding"))
            n = np.linalg.norm(v, axis=1)
            n[n == 0] = 1.0
            sim = (v / n[:, None]) @ self.unit.T
            ids = b.column("vec_id").to_numpy()
            ia, ib = np.nonzero((sim >= 0.30) & (ids[:, None] < self.all_ids[None, :]))
            return pa.table(
                {
                    "vec_a": pa.array(ids[ia], pa.int64()),
                    "vec_b": pa.array(self.all_ids[ib], pa.int64()),
                }
            )

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(cached_map(BruteDup, ref), batch_format="pyarrow")


def _q_ann_cosine(sf_dir: str):
    """Brute-force cosine top-k ANN baseline: batch matmul against a
    broadcast query matrix, per-batch partials, tiny final merge."""
    from georay.ann import BruteForceKNN, merge_topk_partials, _to_matrix

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qsel = qt.slice(0, 4)
    queries_payload = {
        "query_id": qsel.column("vec_id").to_numpy(),
        "vectors": _to_matrix(qsel.column("embedding")),
    }
    ref = ray.put(queries_payload)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    partials = ds.map_batches(cached_map(BruteForceKNN, ref, k=5), batch_format="pyarrow")
    return merge_topk_partials(partials, k=5)


def _q_embed_lsh_pairs(sf_dir: str):
    """LSH-bucketed embedding near-dup (scale path): hyperplane keys ->
    ``band_bucket_pairs`` (on the driver while the banded rows fit
    ``BROADCAST_BYTES``, else keyed exchanges on (band, key), then on
    the pair) -> exact-cosine verification inside each bucket.  Full value
    oracle: the SQL mirror recomputes the hyperplane keys from the same
    plane matrix (passed as VALUES), joins on (table, key), and applies
    the same cosine >= 0.30 filter."""
    from georay.dedup import embed_lsh_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # 4 planes/table: collision prob for a cos=0.30 pair is ~0.6^4=0.13 per
    # table (~2/3 over 8 tables); true NEAR-dup workloads (cos>0.9) use the
    # default 12 planes — see tests/test_dedup.py planted-duplicate recall
    return embed_lsh_pairs(ds, threshold=0.30, n_planes=4)


def _q_ann_ivf(sf_dir: str):
    """Distributed IVF ANN (the scale path): centroids built from a
    BOUNDED sample (the only data that reaches the driver), then
    assignment + probing run as a broadcast map_batches over the
    streaming vector dataset — no full-table read, no shuffle.  Probing
    ALL lists makes the result exact, so the brute-force SQL oracle
    applies verbatim; partial-probe recall is covered in pytest."""
    from georay.ann import IVFSearch, lloyd_centroids, merge_topk_partials, _to_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # bounded quantizer sample + the 4 query vectors (first rows by file order)
    sample_tbl = pa.concat_tables(ray.get(ds.limit(256).to_arrow_refs()))
    sample = _to_matrix(sample_tbl.column("embedding"))
    centroids = lloyd_centroids(sample, n_lists=16)
    qsel = sample_tbl.slice(0, 4)
    payload = {
        "query_id": qsel.column("vec_id").to_numpy(),
        "vectors": _to_matrix(qsel.column("embedding")),
        "centroids": centroids,
    }
    ref = ray.put(payload)
    partials = ds.map_batches(
        cached_map(IVFSearch, ref, k=5, nprobe=len(centroids)), batch_format="pyarrow"
    )
    return merge_topk_partials(partials, k=5)


def _q_dwithin(sf_dir: str):
    """DWithin point join: docs within 1500 km (great-circle) of any of
    the 24 reference points — P-04 semantics with the sphere distance so
    the oracle can mirror the formula exactly."""
    from georay.crs.geodesy import haversine_m

    refs = _ref_points()
    rlon, rlat, rids = refs["lon"], refs["lat"], refs["ref_id"]

    def dwithin(b: pa.Table) -> pa.Table:
        lon = b.column("lon").to_numpy()
        lat = b.column("lat").to_numpy()
        d = haversine_m(lat[:, None], lon[:, None], rlat[None, :], rlon[None, :])
        pi, ri = np.nonzero(d < 1_500_000.0)
        return pa.table(
            {
                "doc_id": b.column("doc_id").take(pa.array(pi, pa.int64())),
                "ref_id": pa.array(rids[ri], pa.int64()),
            }
        )

    return _geo(sf_dir).map_batches(dwithin, batch_format="pyarrow")


def _q_antipode(sf_dir: str):
    """A-08/A-09 antipodes of every extracted point."""
    from georay.geom.envelope import get_antipode

    def ap(b: pa.Table) -> pa.Table:
        coords = np.column_stack([b.column("lat").to_numpy(), b.column("lon").to_numpy()])
        out = get_antipode(coords)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "ap_lat": pa.array(out[:, 0], pa.float64()),
                "ap_lon": pa.array(out[:, 1], pa.float64()),
            }
        )

    return _geo(sf_dir).map_batches(ap, batch_format="pyarrow")


def _q_temporal_extent(sf_dir: str):
    """T-04: global temporal extent of events, padded +/- 1 hour."""
    from georay.temporal import HOUR_US

    ds = _read(sf_dir, "events", ["ts"])
    mm = ds.aggregate(Min("ts"), Max("ts"))
    tmin = mm["min(ts)"]
    tmax = mm["max(ts)"]
    pad = np.timedelta64(HOUR_US, "us")
    return pa.table(
        {
            "t_begin": pa.array([np.datetime64(tmin, "us") - pad], pa.timestamp("us")),
            "t_end": pa.array([np.datetime64(tmax, "us") + pad], pa.timestamp("us")),
        }
    )


def _q_temporal_split(sf_dir: str):
    """T-06: split the events time range into 4 contiguous sub-intervals
    (interval n MEETS n+1) — the time-partition boundary generator."""
    from georay.temporal import split_interval

    ds = _read(sf_dir, "events", ["ts"])
    mm = ds.aggregate(Min("ts"), Max("ts"))
    b_us = np.datetime64(mm["min(ts)"], "us").astype(np.int64)
    e_us = np.datetime64(mm["max(ts)"], "us").astype(np.int64)
    parts = split_interval(int(b_us), int(e_us), 4)
    return pa.table(
        {
            "interval_idx": pa.array(np.arange(4, dtype=np.int64), pa.int64()),
            "t_begin": pa.array(parts[:, 0].astype("datetime64[us]"), pa.timestamp("us")),
            "t_end": pa.array(parts[:, 1].astype("datetime64[us]"), pa.timestamp("us")),
        }
    )


def _q_cell_rollup(sf_dir: str):
    """Hierarchical rollup: res-7 cells -> res-4 parents, doc counts."""
    def parentize(b: pa.Table) -> pa.Table:
        parent = cells.cell_parent(b.column("cell").to_numpy(), 4)
        return pa.table({"parent_cell": pa.array(parent, pa.int64())})

    ds = _geo(sf_dir).map_batches(parentize, batch_format="pyarrow")
    return keyed_agg(ds, "parent_cell", {"n_docs": ("parent_cell", "count")})


def _q_top_cells(sf_dir: str):
    """Global Dataset.sort (the engine's total-order operator): densest
    20 cells by doc count, rank materialized from the sorted order so the
    oracle verifies the ORDERING itself (the gate's value hash is
    order-insensitive, the rank column is not)."""
    agg = keyed_agg(_geo(sf_dir), "cell", CELL_AGGS)
    top = agg.sort(["n_docs", "cell"], descending=[True, False]).limit(20)
    df = top.to_pandas().reset_index(drop=True)[["cell", "n_docs"]]
    df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df


def _q_dwithin_poly(sf_dir: str):
    """P-04 DWithin against broadcast polygons: planar nearest point on the
    boundary (DistanceOp analog) then surface distance vs 300 km; interior
    points are distance 0.  Great-circle variant so the oracle mirrors the
    exact formula; Vincenty (exact=True) is the reference default."""
    from georay.stages.join import DWithinJoin

    geo = _geo(sf_dir)
    ref = ray.put(_star_payload())
    return geo.map_batches(
        cached_map(DWithinJoin, ref, distance_m=300_000.0, exact=False, keep_cols=("doc_id",)),
        batch_format="pyarrow",
    ).map_batches(lambda b: b.select(["doc_id", "polygon_id"]), batch_format="pyarrow")


def _q_media_decode(sf_dir: str):
    """Multimodal plumbing as a driver-checked pipeline: synthesize an
    opaque binary media payload per document, run the decode
    stage (codec stubbed — no media libs in this container — with the
    DuckDB-mirrorable md5 fake backend) and the resize stage, and emit
    the typed metadata columns.  The SQL oracle reconstructs payload hex,
    the fake decode's width/height/luma bit-slices, and the resize
    truncation exactly."""
    from georay.multimodal import ImageDecodeStage, ResizeStage, synth_media_batch

    ds = _read(sf_dir, "documents", ["doc_id"])
    media = ds.map_batches(
        lambda b: synth_media_batch(b, hash_impl="md5"), batch_format="pyarrow"
    )
    decoded = media.map_batches(
        cached_map(ImageDecodeStage, fake=True, hash_impl="md5"),
        batch_format="pyarrow",
        batch_size=64,  # media rows are wide: keep each batch small
    )
    resized = decoded.map_batches(cached_map(ResizeStage, max_side=256, fake=True), batch_format="pyarrow")
    return resized.map_batches(
        lambda b: b.select(["media_id", "width", "height", "n_channels", "mean_luma"]),
        batch_format="pyarrow",
    )


def _q_conformance_vectors(sf_dir: str):
    """Every pytest-only conformance operator family (R-02..R-09, G-01/02/
    08/09/10, C-03..C-14, A-03/06/07/08/09, T-02/03/05, P-04/P-05) run on
    its reference fixture; the oracle is a literal VALUES table of the
    JUnit expectations (see georay/conformance.py for per-case citations)."""
    from georay.conformance import conformance_table

    return conformance_table()


def _q_poly_join(sf_dir: str):
    """Area-area DE-9IM join (the raster-tile-clip vs admin-polygon case):
    each doc becomes an axis-aligned clip box (half-width a pure function
    of doc_id), streamed against the broadcast star polygons; emits every
    intersecting pair with its CONTAINS/WITHIN/TOUCHES/OVERLAPS/EQUALS
    flags.  Exact float arithmetic end to end — the SQL oracle mirrors
    every orientation/parity comparison term for term
    (TopologicalRelationships.java:74-91 semantics)."""
    from georay.pipelines.polygons import N_STARS, rect_bounds, star_ring

    stars = []
    for sid in range(N_STARS):
        minlon, minlat, maxlon, maxlat = rect_bounds(sid)
        stars.append(
            (
                f"star-{sid}",
                star_ring(sid),
                ((minlon + maxlon) / 2.0, (minlat + maxlat) / 2.0),
            )
        )
    return _geo(sf_dir).map_batches(cached_map(RelateBoxes, ray.put(stars)), batch_format="pyarrow")


class RelateBoxes:
    """``_q_poly_join``'s broadcast kernel over the star polygons
    ``(polygon_id, ring, interior point)``: each doc's clip box against
    every star, one row per intersecting pair with its relation flags."""

    FLAGS = ("contains", "within", "touches", "overlaps", "equals")

    def __init__(self, stars):
        self.stars = stars

    def __call__(self, b: pa.Table) -> pa.Table:
        from georay.geom.relate import box_polygon_relations

        did = b.column("doc_id").to_numpy()
        lon = b.column("lon").to_numpy()
        lat = b.column("lat").to_numpy()
        hw = 0.1 + (did % 8).astype(np.float64) * 5.0
        minx, miny, maxx, maxy = lon - hw, lat - hw, lon + hw, lat + hw
        out_doc, out_pid, cols = [], [], {k: [] for k in self.FLAGS}
        for pid, ring, ip in self.stars:
            rel = box_polygon_relations(minx, miny, maxx, maxy, ring, ip)
            m = rel["intersects"]
            if not m.any():
                continue
            out_doc.append(did[m])
            out_pid.extend([pid] * int(m.sum()))
            for k in cols:
                cols[k].append(rel[k][m])
        if not out_doc:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "polygon_id": pa.array([], pa.string()),
                    **{k: pa.array([], pa.bool_()) for k in cols},
                }
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                "polygon_id": pa.array(out_pid, pa.string()),
                **{k: pa.array(np.concatenate(v), pa.bool_()) for k, v in cols.items()},
            }
        )


def _q_segment_revenue(sf_dir: str):
    """Join + keyed merge: revenue per market segment in integer cents.
    One ``georay.partition.keyed_join`` of the orders with the customers:
    while the customer side fits the budget the orders stream through one
    fused read -> join map, past it one ``copartition`` joins per
    partition.  One ``keyed_agg`` on the segment sums the joined rows."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = keyed_join(orders, cust, "o_custkey", "c_custkey", _segment_join)
    return keyed_agg(
        joined, "c_mktsegment", {"revenue_cents": ("price_c", "sum"), "n_orders": ("price_c", "count")}
    )


def _segment_join(L: pa.Table, R: pa.Table) -> pa.Table:
    """orders ``L`` joined to customers ``R``: (segment, price in cents)."""
    b = L.join(R, keys="o_custkey", right_keys="c_custkey")
    c = _cents(b.column("o_totalprice").to_numpy())
    return pa.table({"c_mktsegment": b.column("c_mktsegment"), "price_c": pa.array(c)})


def _q_geo_explode(sf_dir: str):
    """Multi-geometry pages: every coordinate pair, one row per match
    (flat_map/explode path; every 7th geo page carries a second pair)."""
    from georay.extract import extract_all_geo_batch
    from georay.registry import with_registry

    return read_pages(sf_dir).map_batches(
        with_registry(extract_all_geo_batch), batch_format="pyarrow"
    )


def _q_distinct_segments(sf_dir: str):
    """Set op: distinct market segments (Dataset.unique analog) via one
    keyed count."""
    ds = _read(sf_dir, "customer", ["c_mktsegment"])
    return keyed_agg(ds, "c_mktsegment", {"n_customers": ("c_mktsegment", "count")})


def _q_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min): windowed aggregate custom op."""
    from georay.pipelines.events import sessionize

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return sessionize(ds)


def _q_asof_purchase(sf_dir: str):
    """As-of join: latest strictly-earlier purchase per event."""
    from georay.pipelines.events import asof_purchase

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return asof_purchase(ds)


def _q_cell_polygons(sf_dir: str):
    """Raster -> vector: each occupied res-4 cell back to its clip-polygon
    bbox (A-05 envelopeAsPolygon over the tile grid; corners decoded from
    the packed cell id so the SQL oracle mirrors the integer decode)."""

    def vectorize(b: pa.Table) -> pa.Table:
        cell = b.column("parent_cell").to_numpy()
        minlon, minlat, maxlon, maxlat = cells.cell_to_bbox(cell)
        return pa.table(
            {
                "parent_cell": b.column("parent_cell"),
                "n_docs": b.column("n_docs"),
                "minlon": pa.array(minlon, pa.float64()),
                "minlat": pa.array(minlat, pa.float64()),
                "maxlon": pa.array(maxlon, pa.float64()),
                "maxlat": pa.array(maxlat, pa.float64()),
            }
        )

    return _q_cell_rollup(sf_dir).map_batches(vectorize, batch_format="pyarrow")


def _q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window aggregate per event type (time-windowed
    groupby): window key = integer floor of epoch-us to the hour, exact
    on both sides."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    HOUR_US = 3_600_000_000

    def windowed(b: pa.Table) -> pa.Table:
        ts_us = b.column("ts").cast(pa.int64()).to_numpy()
        win = (ts_us // HOUR_US) * HOUR_US
        cents = _cents(b.column("value").to_numpy())
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "window_start": pa.array(win.astype("datetime64[us]"), pa.timestamp("us")),
                "value_cents": pa.array(cents),
            }
        )

    return keyed_agg(
        ds.map_batches(windowed, batch_format="pyarrow"),
        ["event_type", "window_start"],
        {"n_events": ("value_cents", "count"), "value_cents": ("value_cents", "sum")},
    )


def _q_events_topk(sf_dir: str):
    """Windowed top-k (k=2): each user's two highest-value events with
    rank — hash-partitioned vectorized kernel, no per-user dispatch."""
    from georay.pipelines.events import window_topk

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    return window_topk(ds, k=2)


def _q_doc_length_percentiles(sf_dir: str):
    """Exact per-language length percentiles via the mergeable
    value-histogram sketch (driver merge of per-block histograms — the
    corpus is never sorted); integer values make the result exact, so
    quantile_disc mirrors it bit-for-bit."""
    from georay.sketch import grouped_percentiles

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_percentiles(ds, "lang", "n_chars", ps=(0.5, 0.9, 0.99))


#: stratified sampling rates (basis points vs hash(doc_id) % 10000) —
#: shared between the Ray query and its SQL mirror
_SAMPLE_RATES_BP = {"en": 5000, "de": 2500}
_SAMPLE_DEFAULT_BP = 1000


def _q_doc_sample(sf_dir: str):
    """Deterministic stratified corpus sampling (per-language rates in
    basis points against a hashed doc id): a stateless streaming filter
    whose decision is a pure function of the row, so re-runs and resumed
    partitions select identical documents.  md5 hash backend — DuckDB
    mirrors the exact predicate via md5_number_lower."""
    from georay.sample import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(
        ds, _SAMPLE_RATES_BP, default_bp=_SAMPLE_DEFAULT_BP,
        hash_impl="md5", keep_cols=("doc_id", "lang"),
    )


def _q_events_sliding(sf_dir: str):
    """Sliding (trailing 1-hour) window count per event over its
    event_type — range-partitioned by (type, day) with OVERLAP
    REPLICATION so no per-type funnel exists at corpus scale; oracle is
    the SQL RANGE-frame window (ties included on both sides)."""
    from georay.pipelines.events import events_sliding

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    return events_sliding(ds)


def _q_events_window(sf_dir: str):
    """Windowed top-1: highest-value event per user, hash-partitioned on
    user with ONE vectorized multi-user kernel per partition (the same
    shape as sessionize — no per-user map_groups dispatch)."""
    from georay.pipelines.events import window_top1

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    return window_top1(ds)


def _q_dup_spans(sf_dir: str):
    """Cross-document duplicate 5-token windows over the documents table
    (window-granular exact-substring dedup)."""
    from georay.dedup import dup_spans

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dup_spans(ds, w=5)


def _q_host_stats(sf_dir: str):
    """Per-host crawl-curation stats: vectorized RE2 host extraction +
    per-batch combine, one hash shuffle of combined partials."""
    from georay.pipelines.pages import read_pages
    from georay.web import host_stats

    return host_stats(read_pages(sf_dir))


def _q_host_quota(sf_dir: str):
    """Per-host quota curation: keep the 40 lowest doc_ids per host.
    Pre-truncating combiner bounds the host shuffle under skew."""
    from georay.pipelines.pages import read_pages
    from georay.web import host_quota

    return host_quota(read_pages(sf_dir), quota=40)


def _q_rasterize(sf_dir: str):
    """Vector -> raster: geo points binned into dense 8x8-pixel tiles on
    the res-7 cell grid, exploded back to per-pixel rows (zeros included)
    so the dense fill itself is oracle-checked."""
    from georay.raster import rasterize, raster_pixels

    return raster_pixels(rasterize(_geo(sf_dir), res=CELL_RES, tile=8), tile=8, n="band")


def _q_raster_pyramid(sf_dir: str):
    """Raster pyramid: res-7 raster downsampled 4x (block-sum) to res-5.
    Oracle is DIRECT rasterization at res-5 — the pyramid invariant
    downsample(rasterize(r), f) == rasterize(r - log2 f)."""
    from georay.raster import downsample, raster_pixels, rasterize

    fine = rasterize(_geo(sf_dir), res=CELL_RES, tile=8)
    coarse = downsample(fine, res=CELL_RES, tile=8, factor=4)
    return raster_pixels(coarse, tile=8, n="band")


def _q_raster_vectorize(sf_dir: str):
    """Raster -> vector extraction: coarse (res CELL_RES-2) pixels with
    >= 2 documents become vector features with cell-polygon bounds
    (shared cell arithmetic). Coarse so the threshold actually selects
    at sf0.01 — at res 7 no pixel holds two docs."""
    from georay.raster import raster_vectorize, rasterize

    return raster_vectorize(
        rasterize(_geo(sf_dir), res=CELL_RES - 2, tile=8),
        threshold=2,
        res=CELL_RES - 2,
        tile=8,
    )


def _q_raster_focal(sf_dir: str):
    """3x3 focal sum over the rasterized grid via tile halo exchange
    (no global raster materialization); output over occupied tiles."""
    from georay.raster import raster_focal, raster_pixels, rasterize

    return raster_pixels(
        raster_focal(rasterize(_geo(sf_dir), res=CELL_RES, tile=8), res=CELL_RES, tile=8),
        tile=8,
        focal="band",
    )


def _q_raster_diff(sf_dir: str):
    """Change detection (binary map algebra): rasterize the before/after-2024-01-04 page slices
    (ts = doc_id*1337 s wraps one year, so this cut is non-empty on BOTH
    sides at every test scale factor) onto the same grid, align tiles
    (outer-join semantics), subtract bands; exploded to per-pixel rows."""
    import pyarrow.compute as _pc

    from georay.raster import raster_diff, raster_pixels

    cut = pa.scalar(datetime.datetime(2024, 1, 4), pa.timestamp("us"))
    geo = _geo(sf_dir)

    def before(b: pa.Table) -> pa.Table:
        return b.filter(_pc.less(b.column("warc_ts"), cut))

    def after(b: pa.Table) -> pa.Table:
        return b.filter(_pc.greater_equal(b.column("warc_ts"), cut))

    a = geo.map_batches(before, batch_format="pyarrow")
    bds = geo.map_batches(after, batch_format="pyarrow")
    return raster_pixels(
        raster_diff(a, bds, res=CELL_RES, tile=8), tile=8, n_a="band_a", n_b="band_b", diff="band_diff"
    )


def _q_zonal_stats(sf_dir: str):
    """Raster -> vector: per-star-polygon pixel statistics over the
    rasterized point grid (zones broadcast once, raster streams, partials
    merged on the driver)."""
    from georay.raster import rasterize, zonal_stats

    ref = ray.put(_star_payload())
    return zonal_stats(rasterize(_geo(sf_dir), res=CELL_RES, tile=8), ref, res=CELL_RES, tile=8)


def queries() -> dict[str, Callable[[str], Any]]:
    # Order matters operationally: a budgeted correctness run walks this
    # dict in insertion order (round 5 covered only the first 50 of 70).
    # The 20 queries with no row in CORRECTNESS_r05.json therefore run
    # FIRST, so every query gets a recent green row; the round-5-verified
    # ones follow in their round-5 order.
    return {
        "temporal_split": _q_temporal_split,
        "cell_rollup": _q_cell_rollup,
        "cell_polygons": _q_cell_polygons,
        "dup_spans": _q_dup_spans,
        "host_stats": _q_host_stats,
        "host_quota": _q_host_quota,
        "rasterize": _q_rasterize,
        "raster_pyramid": _q_raster_pyramid,
        "raster_vectorize": _q_raster_vectorize,
        "raster_focal": _q_raster_focal,
        "raster_diff": _q_raster_diff,
        "zonal_stats": _q_zonal_stats,
        "dwithin_poly": _q_dwithin_poly,
        "top_cells": _q_top_cells,
        "segment_revenue": _q_segment_revenue,
        "geo_explode": _q_geo_explode,
        "distinct_segments": _q_distinct_segments,
        "media_decode": _q_media_decode,
        "conformance_vectors": _q_conformance_vectors,
        "poly_join": _q_poly_join,
        "sessionize": _q_sessionize,
        "asof_purchase": _q_asof_purchase,
        "events_window": _q_events_window,
        "events_sliding": _q_events_sliding,
        "events_topk": _q_events_topk,
        "doc_sample": _q_doc_sample,
        "doc_length_percentiles": _q_doc_length_percentiles,
        "events_hourly": _q_events_hourly,
        "geo_extract": _q_geo_extract,
        "tile_assign": _q_tile_assign,
        "cell_agg": _q_cell_agg,
        "bbox_join": _q_bbox_join,
        "pip_join": _q_pip_join,
        "knn": _q_knn,
        "knn_grid": _q_knn_grid,
        "text_invariant": _q_text_invariant,
        "dedup_exact": _q_dedup_exact,
        "lineitem_agg": _q_lineitem_agg,
        "top_customers": _q_top_customers,
        "events_by_type": _q_events_by_type,
        "token_stats": _q_token_stats,
        "pack_sequences": _q_pack_sequences,
        "pagerank": _q_pagerank,
        "pagerank_dangling": _q_pagerank_dangling,
        "chunk_text": _q_chunk_text,
        "mixture_sample": _q_mixture_sample,
        "langid": _q_langid,
        "text_normalize": _q_text_normalize,
        "top_ngrams": _q_top_ngrams,
        "label_centroids": _q_label_centroids,
        "redact": _q_redact,
        "repetition": _q_repetition,
        "bm25": _q_bm25,
        "decontam": _q_decontam,
        "kmeans": _q_kmeans,
        "fingerprint": _q_fingerprint,
        "simhash": _q_simhash,
        "simhash_pairs": _q_simhash_pairs,
        "minhash_pairs": _q_minhash_pairs,
        "minhash_pairs_join": _q_minhash_pairs_join,
        "dedup_resolve": _q_dedup_resolve,
        "dedup_apply": _q_dedup_apply,
        "dedup_stream": _q_dedup_stream,
        "embed_dup_pairs": _q_embed_dup_pairs,
        "ann_cosine": _q_ann_cosine,
        "ann_ivf": _q_ann_ivf,
        "embed_lsh_pairs": _q_embed_lsh_pairs,
        "dwithin": _q_dwithin,
        "antipode": _q_antipode,
        "temporal_extent": _q_temporal_extent,
    }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_CELL_SQL = (
    f"{CELL_RES}*288230376151711744 "
    f"+ CAST(floor((lat+90.0)/180.0*{1 << CELL_RES}) AS BIGINT)*536870912 "
    f"+ CAST(floor((lon+180.0)/360.0*{1 << CELL_RES}) AS BIGINT)"
)


def _rect_sql_values() -> str:
    rows = []
    for rid in range(N_RECT_COLS * N_RECT_ROWS):
        minlon, minlat, maxlon, maxlat = rect_bounds(rid)
        rows.append(f"('rect-{rid}',{minlon!r},{minlat!r},{maxlon!r},{maxlat!r})")
    return ",\n    ".join(rows)


def _ref_sql_values() -> str:
    refs = _ref_points()
    return ",\n    ".join(
        f"({int(i)},{lo!r},{la!r})" for i, lo, la in zip(refs["ref_id"], refs["lon"], refs["lat"])
    )


def _star_center_sql_values() -> str:
    from georay.pipelines.polygons import N_STARS, rect_bounds

    rows = []
    for sid in range(N_STARS):
        minlon, minlat, maxlon, maxlat = rect_bounds(sid)
        rows.append(f"('star-{sid}',{(minlon + maxlon) / 2.0!r},{(minlat + maxlat) / 2.0!r})")
    return ",\n    ".join(rows)


def _lsh_plane_sql_values(n_tables: int = 8, n_planes: int = 4, dim: int = 64) -> str:
    """The hyperplane matrices used by georay.dedup.hyperplane_keys
    (seed 11+t), emitted as SQL list literals; repr() round-trips float64
    exactly, so DuckDB recomputes the identical dot products."""
    rows = []
    for t in range(n_tables):
        rng = np.random.default_rng(11 + t)
        planes = rng.standard_normal((dim, n_planes))
        for j in range(n_planes):
            vec = ",".join(repr(v) for v in planes[:, j])
            rows.append(f"({t},{j},[{vec}])")
    return ",\n    ".join(rows)


def _langid_case_sql() -> str:
    """Chained tie-break CASE mirroring np.argmax's first-max rule over
    the profile order in georay.text._LANG_PROFILES."""
    from georay.text import _LANG_PROFILES

    langs = list(_LANG_PROFILES)
    parts = []
    for i, lang in enumerate(langs[:-1]):
        cond = " AND ".join(f"s_{lang} >= s_{r}" for r in langs[i + 1 :])
        parts.append(f"WHEN {cond} THEN '{lang}'")
    parts.append(f"ELSE '{langs[-1]}'")
    return "\n                 ".join(parts)


def _langid_score_sql() -> str:
    from georay.text import _LANG_PROFILES

    cols = []
    for lang, prof in _LANG_PROFILES.items():
        words = ",".join(f"'{w}'" for w in sorted(prof))
        cols.append(
            f"len(list_filter(tk, t -> t IN ({words}))) AS s_{lang}"
        )
    return ",\n                     ".join(cols)


def oracle_sql() -> dict[str, str]:
    from georay.conformance import conformance_sql
    from georay.text import BPE_RE, STOPWORD_RE
    from georay.web import HOST_PATTERN

    geo_pages = f"WITH {PAGES_SQL_CTE}, geo AS (SELECT * FROM pages WHERE has_geo)"
    ix7 = f"CAST(floor((lon+180.0)/360.0*{1 << CELL_RES}) AS BIGINT)"
    iy7 = f"CAST(floor((lat+90.0)/180.0*{1 << CELL_RES}) AS BIGINT)"
    minhash_ctes = """base AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            shl AS (
              SELECT doc_id,
                CASE WHEN len(tk) >= 3
                  THEN list_distinct(list_transform(range(1, len(tk)-1),
                                                    i -> tk[i]||' '||tk[i+1]||' '||tk[i+2]))
                  ELSE list_distinct(tk) END AS s
              FROM base),
            cnt AS (SELECT doc_id, len(s) AS c FROM shl),
            ex AS (SELECT doc_id, unnest(s) AS g FROM shl),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2)"""
    minhash_final = """
            SELECT doc_a, doc_b
            FROM inter JOIN cnt ca ON ca.doc_id = doc_a JOIN cnt cb ON cb.doc_id = doc_b
            WHERE 2*i >= ca.c + cb.c - i
            UNION ALL
            SELECT a.doc_id, b.doc_id FROM cnt a, cnt b
            WHERE a.c = 0 AND b.c = 0 AND a.doc_id < b.doc_id"""
    simhash_ctes = """toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '')) AS tok
              FROM documents),
            th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks),
            bits AS (
              SELECT doc_id, b.bit
              FROM th, (SELECT unnest(range(64)) AS bit) b
              GROUP BY doc_id, b.bit
              HAVING 2*SUM(CASE WHEN (h >> b.bit) & 1 = 1 THEN 1 ELSE 0 END) > COUNT(*)),
            packed AS (
              SELECT doc_id, SUM(1::HUGEINT << bit) AS uval FROM bits GROUP BY doc_id)"""
    simhash_final = """
            SELECT d.doc_id,
                   CAST(CASE WHEN p.uval IS NULL THEN 0
                             WHEN p.uval >= 9223372036854775808 THEN p.uval - 18446744073709551616
                             ELSE p.uval END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN packed p USING (doc_id)"""
    return {
        "pagerank": """
            WITH e AS (
              SELECT doc_id AS src,
                     (doc_id*2654435761 + j*40503)
                       % (SELECT MAX(doc_id)+1 FROM documents) AS dst
              FROM documents, range(1, 4) t(j)),
            nodes AS (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
            nn AS (SELECT COUNT(*) AS n FROM nodes),
            od AS (SELECT src, COUNT(*) AS c FROM e GROUP BY 1),
            r0 AS (SELECT node, CAST(1000000000000 // n AS BIGINT) AS pr
                   FROM nodes, nn),
            it1 AS (
              SELECT nd.node,
                     CAST((15 * (1000000000000 // nn.n)) // 100
                          + COALESCE(SUM((85 * r.pr // 100) // od.c), 0)
                          AS BIGINT) AS pr
              FROM nodes nd CROSS JOIN nn
              LEFT JOIN e ON e.dst = nd.node
              LEFT JOIN r0 r ON r.node = e.src
              LEFT JOIN od ON od.src = e.src
              GROUP BY nd.node, nn.n),
            it2 AS (
              SELECT nd.node,
                     CAST((15 * (1000000000000 // nn.n)) // 100
                          + COALESCE(SUM((85 * r.pr // 100) // od.c), 0)
                          AS BIGINT) AS pr
              FROM nodes nd CROSS JOIN nn
              LEFT JOIN e ON e.dst = nd.node
              LEFT JOIN it1 r ON r.node = e.src
              LEFT JOIN od ON od.src = e.src
              GROUP BY nd.node, nn.n),
            it3 AS (
              SELECT nd.node,
                     CAST((15 * (1000000000000 // nn.n)) // 100
                          + COALESCE(SUM((85 * r.pr // 100) // od.c), 0)
                          AS BIGINT) AS pr
              FROM nodes nd CROSS JOIN nn
              LEFT JOIN e ON e.dst = nd.node
              LEFT JOIN it2 r ON r.node = e.src
              LEFT JOIN od ON od.src = e.src
              GROUP BY nd.node, nn.n)
            SELECT node, pr FROM it3""",
        "pagerank_dangling": """
            WITH e AS (
              SELECT doc_id AS src,
                     (doc_id*2654435761 + j*40503)
                       % (SELECT MAX(doc_id)+1 FROM documents) AS dst
              FROM documents, range(1, 4) t(j)
              WHERE doc_id % 2 = 0),
            nodes AS (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
            nn AS (SELECT COUNT(*) AS n FROM nodes),
            od AS (SELECT src, COUNT(*) AS c FROM e GROUP BY 1),
            r0 AS (SELECT node, CAST(1000000000000 // n AS BIGINT) AS pr
                   FROM nodes, nn),
            d0 AS (SELECT COALESCE(SUM(pr), 0) AS d FROM r0
                   WHERE node NOT IN (SELECT src FROM e)),
            it1 AS (
              SELECT nd.node,
                     CAST((15 * (1000000000000 // nn.n)) // 100
                          + (85 * d0.d // 100) // nn.n
                          + COALESCE(SUM((85 * r.pr // 100) // od.c), 0)
                          AS BIGINT) AS pr
              FROM nodes nd CROSS JOIN nn CROSS JOIN d0
              LEFT JOIN e ON e.dst = nd.node
              LEFT JOIN r0 r ON r.node = e.src
              LEFT JOIN od ON od.src = e.src
              GROUP BY nd.node, nn.n, d0.d),
            d1 AS (SELECT COALESCE(SUM(pr), 0) AS d FROM it1
                   WHERE node NOT IN (SELECT src FROM e)),
            it2 AS (
              SELECT nd.node,
                     CAST((15 * (1000000000000 // nn.n)) // 100
                          + (85 * d1.d // 100) // nn.n
                          + COALESCE(SUM((85 * r.pr // 100) // od.c), 0)
                          AS BIGINT) AS pr
              FROM nodes nd CROSS JOIN nn CROSS JOIN d1
              LEFT JOIN e ON e.dst = nd.node
              LEFT JOIN it1 r ON r.node = e.src
              LEFT JOIN od ON od.src = e.src
              GROUP BY nd.node, nn.n, d1.d)
            SELECT node, pr FROM it2""",
        "mixture_sample": """
            WITH c AS (SELECT lang, COUNT(*) AS cnt FROM documents GROUP BY 1),
            w(lang, wbp) AS (VALUES ('en', 4000), ('de', 1500), ('fr', 1500),
                                    ('es', 1500), ('zh', 1500)),
            r AS (SELECT c.lang,
                         LEAST(10000, ((250 * wbp // 10000) * 10000) // cnt) AS bp
                  FROM c JOIN w ON c.lang = w.lang)
            SELECT d.doc_id, d.lang FROM documents d JOIN r ON d.lang = r.lang
            WHERE md5_number_lower(CAST(d.doc_id AS VARCHAR)) % 10000 < r.bp""",
        "chunk_text": """
            SELECT doc_id, j AS chunk_id, substr(text, j*150 + 1, 200) AS chunk
            FROM (SELECT doc_id, text,
                         UNNEST(range(0, CAST(ceil(GREATEST(length(text), 1)
                                                   / 150.0) AS BIGINT))) AS j
                  FROM documents)""",
        "pack_sequences": """
            WITH t AS (
              SELECT doc_id,
                     length(regexp_extract_all(text, '\\S+')) AS n_tokens
              FROM documents),
            s AS (
              SELECT doc_id, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                       AS BIGINT) AS tok_offset
              FROM t)
            SELECT doc_id, n_tokens, tok_offset, tok_offset // 512 AS bin
            FROM s""",
        "token_stats": f"""
            SELECT doc_id, n_chars, n_tokens, n_bpe, n_punct, n_stop,
                   CAST(floor((0.4*(n_stop / GREATEST(n_tokens, 1))
                             + 0.3*LEAST(1.0, n_tokens/100.0)
                             + 0.3*(1.0 - LEAST(1.0, n_punct / GREATEST(n_tokens, 1))))
                             * 10000 + 0.5) AS BIGINT) AS quality_bp
            FROM (
              SELECT doc_id,
                     length(text) AS n_chars,
                     length(regexp_extract_all(text, '\\S+')) AS n_tokens,
                     length(regexp_extract_all(text, '{BPE_RE}')) AS n_bpe,
                     length(regexp_extract_all(text, '[.,;:!?]')) AS n_punct,
                     length(regexp_extract_all(lower(text), '{STOPWORD_RE}')) AS n_stop
              FROM documents)""",
        "langid": f"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\\W+'), t -> t <> '') AS tk,
                     length(regexp_extract_all(text, '[一-鿿]')) AS cjk
              FROM documents),
            scored AS (
              SELECT doc_id, cjk,
                     {_langid_score_sql()}
              FROM toks)
            SELECT doc_id, CASE
                 WHEN cjk > 0 THEN 'zh'
                 WHEN GREATEST(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                 {_langid_case_sql()} END AS lang_pred
            FROM scored""",
        "text_normalize": """
            SELECT doc_id,
                   trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'), ' ')
                     AS norm_text,
                   CAST(length(trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'), ' '))
                     AS BIGINT) AS n_norm_chars,
                   trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'), ' ') <> text
                     AS changed
            FROM documents""",
        "top_ngrams": """
            WITH base AS (
              SELECT list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            g AS (
              SELECT unnest(CASE WHEN len(tk) >= 3
                  THEN list_transform(range(1, len(tk)-1), i -> tk[i]||' '||tk[i+1]||' '||tk[i+2])
                  ELSE tk END) AS ngram
              FROM base),
            agg AS (
              SELECT ngram, CAST(COUNT(*) AS BIGINT) AS cnt FROM g GROUP BY ngram)
            SELECT ngram, cnt,
                   CAST(ROW_NUMBER() OVER (ORDER BY cnt DESC, ngram) AS BIGINT) AS rank
            FROM agg ORDER BY cnt DESC, ngram LIMIT 20""",
        "label_centroids": """
            WITH e AS (
              SELECT label, unnest(range(1, len(embedding)+1)) AS pos,
                     unnest(embedding) AS v
              FROM embeddings),
            q AS (
              SELECT label, pos,
                     CAST(FLOOR(CAST(v AS DOUBLE)*1000000 + 0.5) AS BIGINT) AS qv
              FROM e)
            SELECT CAST(label AS BIGINT) AS label, CAST(pos AS BIGINT) AS pos,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(qv) AS DOUBLE)/(1000000.0*COUNT(*)) AS centroid
            FROM q GROUP BY label, pos""",
        "redact": """
            WITH s0 AS (
              SELECT doc_id, text,
                CAST(len(regexp_extract_all(text, 'https?://\\S+')) AS BIGINT) AS n_url,
                regexp_replace(text, 'https?://\\S+', '<URL>', 'g') AS t
              FROM documents),
            s1 AS (
              SELECT doc_id, text, n_url,
                CAST(len(regexp_extract_all(t,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
                regexp_replace(t,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t
              FROM s0),
            s2 AS (
              SELECT doc_id, text, n_url, n_email,
                CAST(len(regexp_extract_all(t, '[0-9]{6,}')) AS BIGINT) AS n_num,
                regexp_replace(t, '[0-9]{6,}', '<NUM>', 'g') AS t
              FROM s1)
            SELECT doc_id, t AS red_text, n_url, n_email, n_num,
                   t <> text AS changed
            FROM s2""",
        "repetition": """
            WITH base AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            w AS (SELECT doc_id, unnest(tk) AS w FROM base),
            wc AS (SELECT doc_id, w, COUNT(*) AS c FROM w GROUP BY doc_id, w),
            pw AS (
              SELECT doc_id, MAX(c) AS top_word_cnt, COUNT(*) AS n_unique,
                     SUM(c) AS n_words, SUM(c * length(w)) AS n_token_chars
              FROM wc GROUP BY doc_id),
            bg AS (
              SELECT doc_id,
                     unnest(list_transform(range(1, len(tk)), i -> tk[i]||' '||tk[i+1])) AS b
              FROM base WHERE len(tk) >= 2),
            bc AS (SELECT doc_id, b, COUNT(*) AS c FROM bg GROUP BY doc_id, b),
            pb AS (SELECT doc_id, MAX(c) AS top_bigram_cnt FROM bc GROUP BY doc_id)
            SELECT base.doc_id,
                   CAST(COALESCE(pw.n_words, 0) AS BIGINT) AS n_words,
                   CAST(COALESCE(pw.n_unique, 0) AS BIGINT) AS n_unique,
                   CAST(COALESCE(pw.top_word_cnt, 0) AS BIGINT) AS top_word_cnt,
                   CAST(COALESCE(pb.top_bigram_cnt, 0) AS BIGINT) AS top_bigram_cnt,
                   CAST(COALESCE(pw.n_token_chars, 0) AS BIGINT) AS n_token_chars,
                   (5*COALESCE(pw.top_word_cnt, 0) <= COALESCE(pw.n_words, 0))
                     AND (2*COALESCE(pw.n_unique, 0) >= COALESCE(pw.n_words, 0)) AS keep
            FROM base LEFT JOIN pw USING (doc_id) LEFT JOIN pb USING (doc_id)""",
        "bm25": """
            WITH tkt AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            st AS (SELECT COUNT(*) AS n_docs, CAST(SUM(len(tk)) AS BIGINT) AS n_tokens FROM tkt),
            terms(term) AS (VALUES ('table'), ('scan'), ('hash'), ('window'), ('spark')),
            df AS (
              SELECT term, COUNT(*) FILTER (WHERE list_contains(tk, term)) AS df
              FROM terms, tkt GROUP BY term),
            tf AS (
              SELECT doc_id, term,
                     CAST(len(list_filter(tk, x -> x = term)) AS DOUBLE) AS tf,
                     CAST(len(tk) AS DOUBLE) AS dl
              FROM tkt, terms),
            q AS (
              SELECT doc_id,
                CAST(FLOOR(
                  ln((CAST(st.n_docs AS DOUBLE) - df.df + 0.5)/(CAST(df.df AS DOUBLE) + 0.5) + 1.0)
                  * ((tf.tf * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
                     / (tf.tf + CAST(1.2 AS DOUBLE)
                        * ((CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE))
                           + CAST(0.75 AS DOUBLE)
                             * (tf.dl / (CAST(st.n_tokens AS DOUBLE) / st.n_docs)))))
                  * 1000000000.0 + 0.5) AS BIGINT) AS qt
              FROM tf, st, df WHERE tf.term = df.term)
            SELECT doc_id, CAST(SUM(qt) AS BIGINT) AS score_q
            FROM q GROUP BY doc_id
            ORDER BY score_q DESC, doc_id LIMIT 10""",
        "decontam": f"""
            WITH base AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            sh AS (
              SELECT doc_id,
                CASE WHEN len(tk) >= 8
                  THEN list_transform(range(1, len(tk)-6),
                         i -> {"||' '||".join(f"tk[i+{j}]" if j else "tk[i]" for j in range(8))})
                  ELSE tk END AS hs
              FROM base),
            ev AS (SELECT DISTINCT unnest(hs) AS s FROM sh WHERE doc_id % 97 = 0),
            occ AS (SELECT doc_id, unnest(hs) AS s FROM sh),
            hits AS (
              SELECT o.doc_id, COUNT(*) AS nh
              FROM occ o JOIN ev ON o.s = ev.s GROUP BY o.doc_id)
            SELECT sh.doc_id,
                   CAST(len(sh.hs) AS BIGINT) AS n_shingles,
                   CAST(COALESCE(h.nh, 0) AS BIGINT) AS n_hits,
                   COALESCE(h.nh, 0) > 0 AS contaminated
            FROM sh LEFT JOIN hits h USING (doc_id)""",
        "kmeans": """
            WITH e AS (
              SELECT vec_id, unnest(range(1, len(embedding)+1)) AS pos,
                     CAST(unnest(embedding) AS DOUBLE) AS v
              FROM embeddings),
            seeds AS (
              SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
              FROM (SELECT DISTINCT vec_id FROM embeddings ORDER BY vec_id LIMIT 4)),
            c0 AS (SELECT s.cluster, e.pos, e.v AS c
                   FROM seeds s JOIN e ON e.vec_id = s.vec_id),
            d1 AS (
              SELECT e.vec_id, c0.cluster,
                     SUM(CAST(FLOOR((e.v - c0.c)*(e.v - c0.c)*1000000000000.0 + 0.5)
                              AS BIGINT)) AS qd
              FROM e JOIN c0 USING (pos) GROUP BY e.vec_id, c0.cluster),
            a1 AS (
              SELECT vec_id, cluster FROM (
                SELECT vec_id, cluster,
                       ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY qd, cluster) AS rn
                FROM d1) WHERE rn = 1),
            q AS (SELECT vec_id, pos, CAST(FLOOR(v*1000000 + 0.5) AS BIGINT) AS qv FROM e),
            c1n AS (
              SELECT a1.cluster, q.pos,
                     CAST(SUM(q.qv) AS DOUBLE)/(1000000.0*COUNT(*)) AS c
              FROM q JOIN a1 USING (vec_id) GROUP BY a1.cluster, q.pos),
            c1 AS (
              SELECT c0.cluster, c0.pos, COALESCE(c1n.c, c0.c) AS c
              FROM c0 LEFT JOIN c1n ON c1n.cluster = c0.cluster AND c1n.pos = c0.pos),
            d2 AS (
              SELECT e.vec_id, c1.cluster,
                     SUM(CAST(FLOOR((e.v - c1.c)*(e.v - c1.c)*1000000000000.0 + 0.5)
                              AS BIGINT)) AS qd
              FROM e JOIN c1 USING (pos) GROUP BY e.vec_id, c1.cluster)
            SELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM (
              SELECT vec_id, cluster,
                     ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY qd, cluster) AS rn
              FROM d2) WHERE rn = 1""",
        "simhash": f"WITH {simhash_ctes}{simhash_final}",
        "simhash_pairs": f"""
            WITH {simhash_ctes},
            sb AS (
              SELECT d.doc_id,
                     CASE WHEN p.uval IS NULL THEN 0 ELSE p.uval END AS u
              FROM documents d LEFT JOIN packed p USING (doc_id)),
            s AS (
              SELECT doc_id,
                     CAST(CASE WHEN u >= 9223372036854775808 THEN u - 18446744073709551616
                               ELSE u END AS BIGINT) AS sh,
                     CAST((u >> 0) & 65535 AS BIGINT) AS b0,
                     CAST((u >> 16) & 65535 AS BIGINT) AS b1,
                     CAST((u >> 32) & 65535 AS BIGINT) AS b2,
                     CAST((u >> 48) & 65535 AS BIGINT) AS b3
              FROM sb)
            SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM s a JOIN s b ON a.doc_id < b.doc_id
             AND (a.b0 = b.b0 OR a.b1 = b.b1 OR a.b2 = b.b2 OR a.b3 = b.b3)
            WHERE bit_count(xor(a.sh, b.sh)) <= 3""",
        "fingerprint": """
            WITH base AS (
              SELECT doc_id, list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            sh AS (
              SELECT doc_id,
                CASE WHEN len(tk) >= 3
                  THEN list_transform(range(1, len(tk)-1),
                                      i -> md5_number_lower(tk[i]||' '||tk[i+1]||' '||tk[i+2]))
                  ELSE list_transform(tk, t -> md5_number_lower(t)) END AS hs
              FROM base),
            mins AS (
              SELECT doc_id,
                CASE WHEN len(hs) >= 4
                  THEN list_distinct(list_transform(range(1, len(hs)-2), i -> list_min(hs[i:i+3])))
                  WHEN len(hs) >= 1 THEN [list_min(hs)]
                  ELSE CAST([] AS UBIGINT[]) END AS fp
              FROM sh),
            agg AS (SELECT doc_id, fp, list_aggregate(fp, 'bit_xor') AS x FROM mins)
            SELECT doc_id, len(fp) AS fp_count,
                   CAST(CASE WHEN len(fp) = 0 THEN 0
                             WHEN x >= 9223372036854775808 THEN x - 18446744073709551616
                             ELSE x END AS BIGINT) AS fp_digest
            FROM agg""",
        "minhash_pairs": f"WITH {minhash_ctes}{minhash_final}",
        # forced join-route candidate stage; identical verified pair set
        "minhash_pairs_join": f"WITH {minhash_ctes}{minhash_final}",
        "dedup_resolve": f"""
            WITH RECURSIVE {minhash_ctes},
            p AS ({minhash_final}),
            e AS (SELECT doc_a AS u, doc_b AS v FROM p
                  UNION ALL SELECT doc_b, doc_a FROM p),
            walk(u, r) AS (
              SELECT u, u FROM (SELECT DISTINCT u FROM e) t
              UNION
              SELECT e.u, w.r FROM e JOIN walk w ON e.v = w.u)
            SELECT u AS doc_id, MIN(r) AS survivor FROM walk GROUP BY u""",
        "dedup_apply": f"""
            WITH RECURSIVE {minhash_ctes},
            p AS ({minhash_final}),
            e AS (SELECT doc_a AS u, doc_b AS v FROM p
                  UNION ALL SELECT doc_b, doc_a FROM p),
            walk(u, r) AS (
              SELECT u, u FROM (SELECT DISTINCT u FROM e) t
              UNION
              SELECT e.u, w.r FROM e JOIN walk w ON e.v = w.u),
            res AS (SELECT u AS doc_id, MIN(r) AS survivor FROM walk GROUP BY u)
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM res WHERE survivor <> doc_id)""",
        "embed_lsh_pairs": f"""
            WITH planes(tbl, pl, v) AS (VALUES
            {_lsh_plane_sql_values()}),
            keys AS (
              SELECT e.vec_id, p.tbl,
                     SUM(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), p.v) > 0
                              THEN 1 << p.pl ELSE 0 END) AS k
              FROM embeddings e, planes p GROUP BY e.vec_id, p.tbl),
            cand AS (
              SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
              FROM keys a JOIN keys b
                ON a.tbl = b.tbl AND a.k = b.k AND a.vec_id < b.vec_id)
            SELECT c.vec_a, c.vec_b
            FROM cand c
            JOIN embeddings ea ON ea.vec_id = c.vec_a
            JOIN embeddings eb ON eb.vec_id = c.vec_b
            WHERE list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]),
                                         CAST(eb.embedding AS DOUBLE[])) >= 0.30""",
        "embed_dup_pairs": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.30""",
        "ann_cosine": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
                       FROM embeddings WHERE vec_id < 4),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS c
              FROM q, embeddings e),
            ranked AS (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rank
              FROM scored)
            SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 5""",
        "ann_ivf": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
                       FROM embeddings WHERE vec_id < 4),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS c
              FROM q, embeddings e),
            ranked AS (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rank
              FROM scored)
            SELECT query_id, vec_id, rank FROM ranked WHERE rank <= 5""",
        "dwithin": f"""{geo_pages},
            refs(ref_id, rlon, rlat) AS (VALUES
            {_ref_sql_values()})
            SELECT g.doc_id, r.ref_id
            FROM geo g, refs r
            WHERE 2.0*6371008.8*asin(least(1.0, sqrt(
                     pow(sin(radians(r.rlat - g.lat)/2.0), 2)
                     + cos(radians(g.lat))*cos(radians(r.rlat))
                       *pow(sin(radians(r.rlon - g.lon)/2.0), 2)))) < 1500000.0""",
        "antipode": f"""{geo_pages}
            SELECT doc_id, -lat AS ap_lat,
                   CASE WHEN lon < 0 THEN lon + 180.0 ELSE lon - 180.0 END AS ap_lon
            FROM geo""",
        "temporal_extent": """
            SELECT min(ts) - INTERVAL 1 HOUR AS t_begin,
                   max(ts) + INTERVAL 1 HOUR AS t_end
            FROM events""",
        "temporal_split": """
            WITH bounds AS (SELECT epoch_us(min(ts)) AS a, epoch_us(max(ts)) AS b FROM events),
            idx AS (SELECT unnest(range(4)) AS i)
            SELECT i AS interval_idx,
                   make_timestamp(a + ((b - a)//4)*i) AS t_begin,
                   make_timestamp(a + ((b - a)//4)*(i + 1)) AS t_end
            FROM bounds, idx""",
        "cell_rollup": f"""{geo_pages}
            SELECT 4*288230376151711744 + ({iy7}//8)*536870912 + ({ix7}//8) AS parent_cell,
                   COUNT(*) AS n_docs
            FROM geo GROUP BY 1""",
        "top_cells": f"""{geo_pages},
            agg AS (
              SELECT {_CELL_SQL} AS cell, COUNT(*) AS n_docs FROM geo GROUP BY 1)
            SELECT cell, n_docs,
                   row_number() OVER (ORDER BY n_docs DESC, cell) AS rank
            FROM agg ORDER BY n_docs DESC, cell LIMIT 20""",
        "dwithin_poly": f"""{geo_pages},
            edges(polygon_id, eidx, x1, y1, x2, y2) AS (VALUES
            {star_edges_sql_values(with_idx=True)}),
            cand AS (
              SELECT g.doc_id, g.lon, g.lat, e.polygon_id, e.eidx,
                     x1 + least(1.0, greatest(0.0,
                        ((g.lon - e.x1)*(e.x2 - e.x1) + (g.lat - e.y1)*(e.y2 - e.y1))
                        / (CASE WHEN (e.x2-e.x1)*(e.x2-e.x1)+(e.y2-e.y1)*(e.y2-e.y1) = 0.0
                                THEN 1.0
                                ELSE (e.x2-e.x1)*(e.x2-e.x1)+(e.y2-e.y1)*(e.y2-e.y1) END)))
                        * (e.x2 - e.x1) AS qx,
                     y1 + least(1.0, greatest(0.0,
                        ((g.lon - e.x1)*(e.x2 - e.x1) + (g.lat - e.y1)*(e.y2 - e.y1))
                        / (CASE WHEN (e.x2-e.x1)*(e.x2-e.x1)+(e.y2-e.y1)*(e.y2-e.y1) = 0.0
                                THEN 1.0
                                ELSE (e.x2-e.x1)*(e.x2-e.x1)+(e.y2-e.y1)*(e.y2-e.y1) END)))
                        * (e.y2 - e.y1) AS qy
              FROM geo g, edges e),
            nearest AS (
              SELECT doc_id, polygon_id, lon, lat, qx, qy FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY doc_id, polygon_id
                  ORDER BY (lon-qx)*(lon-qx) + (lat-qy)*(lat-qy), eidx) AS rn
                FROM cand) WHERE rn = 1),
            inside AS (
              SELECT doc_id, polygon_id FROM (
                SELECT g.doc_id, e.polygon_id,
                       SUM(CASE WHEN ((e.y1 > g.lat) <> (e.y2 > g.lat))
                                 AND (g.lon < e.x1 + (g.lat - e.y1)*(e.x2 - e.x1)/(e.y2 - e.y1))
                            THEN 1 ELSE 0 END) AS crossings
                FROM geo g, edges e GROUP BY g.doc_id, e.polygon_id)
              WHERE crossings % 2 = 1)
            SELECT n.doc_id, n.polygon_id
            FROM nearest n LEFT JOIN inside i
              ON n.doc_id = i.doc_id AND n.polygon_id = i.polygon_id
            WHERE i.doc_id IS NOT NULL
               OR 2.0*6371008.8*asin(least(1.0, sqrt(
                    pow(sin(radians(n.qy - n.lat)/2.0), 2)
                    + cos(radians(n.lat))*cos(radians(n.qy))
                      *pow(sin(radians(n.qx - n.lon)/2.0), 2)))) < 300000.0""",
        "media_decode": """
            WITH h AS (
              SELECT doc_id AS media_id,
                     md5_number_lower(repeat(md5(CAST(doc_id AS VARCHAR)), 8)) AS h
              FROM documents),
            dec AS (
              SELECT media_id,
                     CAST(64 + (h & 1023) AS DOUBLE) AS w,
                     CAST(64 + ((h >> 10) & 1023) AS DOUBLE) AS ht,
                     CAST((h >> 20) & 255 AS DOUBLE)/255.0 AS mean_luma
              FROM h)
            SELECT media_id,
                   CAST(floor(w * LEAST(1.0, 256.0/GREATEST(w, ht))) AS INT) AS width,
                   CAST(floor(ht * LEAST(1.0, 256.0/GREATEST(w, ht))) AS INT) AS height,
                   CAST(3 AS INT) AS n_channels,
                   mean_luma
            FROM dec""",
        "conformance_vectors": conformance_sql(),
        "poly_join": f"""{geo_pages},
            boxes AS (
              SELECT doc_id, lon - hw AS minx, lat - hw AS miny,
                     lon + hw AS maxx, lat + hw AS maxy
              FROM (SELECT doc_id, lon, lat,
                           0.1 + CAST(doc_id % 8 AS DOUBLE) * 5.0 AS hw FROM geo)),
            edges(polygon_id, eidx, x1, y1, x2, y2) AS (VALUES
            {star_edges_sql_values(with_idx=True)}),
            centers(polygon_id, ipx, ipy) AS (VALUES
            {_star_center_sql_values()}),
            vstats AS (
              SELECT b.doc_id, e.polygon_id,
                     BOOL_AND(e.x1 >= b.minx AND e.x1 <= b.maxx
                              AND e.y1 >= b.miny AND e.y1 <= b.maxy) AS all_v_closed,
                     BOOL_OR(e.x1 > b.minx AND e.x1 < b.maxx
                             AND e.y1 > b.miny AND e.y1 < b.maxy) AS any_v_strict
              FROM boxes b, edges e GROUP BY 1, 2),
            pts AS (
              SELECT doc_id, 0 AS pi, minx AS px, miny AS py FROM boxes UNION ALL
              SELECT doc_id, 1, maxx, miny FROM boxes UNION ALL
              SELECT doc_id, 2, maxx, maxy FROM boxes UNION ALL
              SELECT doc_id, 3, minx, maxy FROM boxes UNION ALL
              SELECT doc_id, 4, (minx + maxx)/2.0, (miny + maxy)/2.0 FROM boxes),
            parity AS (
              SELECT p.doc_id, e.polygon_id, p.pi,
                     SUM(CASE WHEN ((e.y1 > p.py) <> (e.y2 > p.py))
                               AND (p.px < e.x1 + (p.py - e.y1)*(e.x2 - e.x1)/(e.y2 - e.y1))
                          THEN 1 ELSE 0 END) % 2 = 1 AS inside
              FROM pts p, edges e GROUP BY 1, 2, 3),
            pstats AS (
              SELECT doc_id, polygon_id,
                     BOOL_OR(CASE WHEN pi < 4 THEN inside ELSE FALSE END) AS any_corner_in,
                     BOOL_AND(CASE WHEN pi < 4 THEN inside ELSE TRUE END) AS all_corners_in,
                     BOOL_OR(CASE WHEN pi = 4 THEN inside ELSE FALSE END) AS center_in
              FROM parity GROUP BY 1, 2),
            ipin AS (
              SELECT b.doc_id, c.polygon_id,
                     (c.ipx > b.minx AND c.ipx < b.maxx
                      AND c.ipy > b.miny AND c.ipy < b.maxy) AS ip_in
              FROM boxes b, centers c),
            bedges AS (
              SELECT doc_id,
                CASE k.k WHEN 0 THEN minx WHEN 1 THEN maxx WHEN 2 THEN maxx ELSE minx END AS ax1,
                CASE k.k WHEN 0 THEN miny WHEN 1 THEN miny WHEN 2 THEN maxy ELSE maxy END AS ay1,
                CASE k.k WHEN 0 THEN maxx WHEN 1 THEN maxx WHEN 2 THEN minx ELSE minx END AS ax2,
                CASE k.k WHEN 0 THEN miny WHEN 1 THEN maxy WHEN 2 THEN maxy ELSE miny END AS ay2
              FROM boxes, (SELECT unnest(range(4)) AS k) k),
            xk AS (
              SELECT be.doc_id, e.polygon_id,
                     be.ax1, be.ay1, be.ax2, be.ay2, e.x1, e.y1, e.x2, e.y2,
                     (e.x2 - e.x1)*(be.ay1 - e.y1) - (e.y2 - e.y1)*(be.ax1 - e.x1) AS d1,
                     (e.x2 - e.x1)*(be.ay2 - e.y1) - (e.y2 - e.y1)*(be.ax2 - e.x1) AS d2,
                     (be.ax2 - be.ax1)*(e.y1 - be.ay1) - (be.ay2 - be.ay1)*(e.x1 - be.ax1) AS d3,
                     (be.ax2 - be.ax1)*(e.y2 - be.ay1) - (be.ay2 - be.ay1)*(e.x2 - be.ax1) AS d4
              FROM bedges be, edges e),
            cstats AS (
              SELECT doc_id, polygon_id,
                BOOL_OR(((d1 > 0) <> (d2 > 0)) AND ((d3 > 0) <> (d4 > 0))
                        AND d1 <> 0 AND d2 <> 0 AND d3 <> 0 AND d4 <> 0) AS proper_any,
                BOOL_OR(
                     (d1 = 0 AND ax1 >= LEAST(x1, x2) AND ax1 <= GREATEST(x1, x2)
                              AND ay1 >= LEAST(y1, y2) AND ay1 <= GREATEST(y1, y2))
                  OR (d2 = 0 AND ax2 >= LEAST(x1, x2) AND ax2 <= GREATEST(x1, x2)
                              AND ay2 >= LEAST(y1, y2) AND ay2 <= GREATEST(y1, y2))
                  OR (d3 = 0 AND x1 >= LEAST(ax1, ax2) AND x1 <= GREATEST(ax1, ax2)
                              AND y1 >= LEAST(ay1, ay2) AND y1 <= GREATEST(ay1, ay2))
                  OR (d4 = 0 AND x2 >= LEAST(ax1, ax2) AND x2 <= GREATEST(ax1, ax2)
                              AND y2 >= LEAST(ay1, ay2) AND y2 <= GREATEST(ay1, ay2))
                ) AS touch_any
              FROM xk GROUP BY 1, 2),
            sel AS (
              SELECT v.doc_id, v.polygon_id,
                     (c.proper_any OR v.any_v_strict OR p.any_corner_in
                      OR p.center_in OR i.ip_in) AS interiors,
                     (c.proper_any OR c.touch_any) AS contact,
                     c.proper_any, v.all_v_closed, p.all_corners_in
              FROM vstats v
              JOIN pstats p USING (doc_id, polygon_id)
              JOIN ipin i USING (doc_id, polygon_id)
              JOIN cstats c USING (doc_id, polygon_id))
            SELECT doc_id, polygon_id,
                   (interiors AND NOT proper_any AND all_v_closed) AS contains,
                   (interiors AND NOT proper_any AND all_corners_in) AS within,
                   (NOT interiors) AS touches,
                   (interiors AND NOT (interiors AND NOT proper_any AND all_v_closed)
                              AND NOT (interiors AND NOT proper_any AND all_corners_in)) AS overlaps,
                   (interiors AND NOT proper_any AND all_v_closed AND all_corners_in) AS equals
            FROM sel WHERE interiors OR contact""",
        "segment_revenue": """
            SELECT c.c_mktsegment,
                   CAST(SUM(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   COUNT(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment""",
        "geo_explode": f"""{geo_pages}
            SELECT doc_id, lat, lon FROM geo
            UNION ALL
            SELECT doc_id, lat2 AS lat, lon2 AS lon FROM geo WHERE has_second""",
        "distinct_segments": """
            SELECT c_mktsegment, COUNT(*) AS n_customers
            FROM customer GROUP BY c_mktsegment""",
        "sessionize": """
            WITH ordered AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN lag(ts) OVER w IS NULL
                           OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_sess
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
              SELECT user_id, ts,
                     CAST(SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
              FROM ordered)
            SELECT user_id, session_idx, COUNT(*) AS n_events,
                   MIN(ts) AS t_start, MAX(ts) AS t_end
            FROM s GROUP BY user_id, session_idx""",
        "asof_purchase": """
            SELECT e.event_id,
                   (SELECT max(p.ts) FROM events p
                     WHERE p.user_id = e.user_id AND p.event_type = 'purchase'
                       AND p.ts < e.ts) AS last_purchase
            FROM events e""",
        "cell_polygons": f"""{geo_pages},
            rolled AS (
              SELECT 4*288230376151711744 + ({iy7}//8)*536870912 + ({ix7}//8) AS parent_cell,
                     COUNT(*) AS n_docs
              FROM geo GROUP BY 1)
            SELECT parent_cell, n_docs,
                   -180.0 + (parent_cell % 536870912) * 22.5 AS minlon,
                   -90.0 + ((parent_cell // 536870912) % 536870912 % 32) * 11.25 AS minlat,
                   -180.0 + (parent_cell % 536870912) * 22.5 + 22.5 AS maxlon,
                   -90.0 + ((parent_cell // 536870912) % 536870912 % 32) * 11.25 + 11.25 AS maxlat
            FROM rolled""",
        "dup_spans": """
            WITH base AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\\s+'), t -> t <> '') AS tk
              FROM documents),
            g AS (
              SELECT doc_id, unnest(
                CASE WHEN len(tk) >= 5
                  THEN list_transform(range(1, len(tk)-3),
                    i -> tk[i]||' '||tk[i+1]||' '||tk[i+2]||' '||tk[i+3]||' '||tk[i+4])
                  ELSE []::VARCHAR[] END) AS gram
              FROM base),
            pg AS (SELECT gram, doc_id, COUNT(*) AS n_occ FROM g GROUP BY 1, 2)
            SELECT gram, COUNT(*) AS n_docs, CAST(SUM(n_occ) AS BIGINT) AS n_occ
            FROM pg GROUP BY 1 HAVING COUNT(*) >= 2""",
        "host_quota": f"""WITH {PAGES_SQL_CTE},
            h AS (SELECT doc_id,
                         regexp_extract(url, '{HOST_PATTERN}', 1) AS host
                  FROM pages)
            SELECT doc_id, host FROM (
              SELECT doc_id, host,
                     ROW_NUMBER() OVER (PARTITION BY host ORDER BY doc_id) AS rn
              FROM h)
            WHERE rn <= 40""",
        "host_stats": f"""WITH {PAGES_SQL_CTE}
            SELECT regexp_extract(url, '{HOST_PATTERN}', 1) AS host,
                   COUNT(*) AS n_docs,
                   CAST(SUM(length(text)) AS BIGINT) AS sum_chars,
                   MAX(warc_ts) AS max_ts
            FROM pages GROUP BY 1""",
        "rasterize": f"""{geo_pages},
            px AS (SELECT {ix7} AS ix, {iy7} AS iy FROM geo),
            counts AS (
              SELECT ix//8 AS tile_x, iy//8 AS tile_y,
                     (iy%8)*8 + (ix%8) AS idx, COUNT(*) AS n
              FROM px GROUP BY 1, 2, 3),
            tiles AS (SELECT DISTINCT tile_x, tile_y FROM counts),
            grid AS (
              SELECT t.tile_x, t.tile_y, r.i AS idx
              FROM tiles t CROSS JOIN range(64) r(i))
            SELECT g.tile_x, g.tile_y, g.idx, COALESCE(c.n, 0) AS n
            FROM grid g LEFT JOIN counts c
              ON g.tile_x = c.tile_x AND g.tile_y = c.tile_y AND g.idx = c.idx""",
        "raster_pyramid": f"""{geo_pages},
            px AS (SELECT CAST(floor((lon+180.0)/360.0*{1 << (CELL_RES - 2)}) AS BIGINT) AS ix,
                          CAST(floor((lat+90.0)/180.0*{1 << (CELL_RES - 2)}) AS BIGINT) AS iy
                   FROM geo),
            counts AS (
              SELECT ix//8 AS tile_x, iy//8 AS tile_y,
                     (iy%8)*8 + (ix%8) AS idx, COUNT(*) AS n
              FROM px GROUP BY 1, 2, 3),
            tiles AS (SELECT DISTINCT tile_x, tile_y FROM counts),
            grid AS (
              SELECT t.tile_x, t.tile_y, r.i AS idx
              FROM tiles t CROSS JOIN range(64) r(i))
            SELECT g.tile_x, g.tile_y, g.idx, COALESCE(c.n, 0) AS n
            FROM grid g LEFT JOIN counts c
              ON g.tile_x = c.tile_x AND g.tile_y = c.tile_y AND g.idx = c.idx""",
        "raster_vectorize": f"""{geo_pages},
            px AS (SELECT CAST(floor((lon+180.0)/360.0*{1 << (CELL_RES - 2)}) AS BIGINT) AS ix,
                          CAST(floor((lat+90.0)/180.0*{1 << (CELL_RES - 2)}) AS BIGINT) AS iy
                   FROM geo),
            counts AS (SELECT ix AS gx, iy AS gy, COUNT(*) AS n
                       FROM px GROUP BY 1, 2),
            hit AS (SELECT gx, gy, n,
                           -180.0 + gx*(360.0/{1 << (CELL_RES - 2)}) AS minlon,
                           -90.0 + gy*(180.0/{1 << (CELL_RES - 2)}) AS minlat
                    FROM counts WHERE n >= 2)
            SELECT gx, gy, n, minlon, minlat,
                   minlon + (360.0/{1 << (CELL_RES - 2)}) AS maxlon,
                   minlat + (180.0/{1 << (CELL_RES - 2)}) AS maxlat
            FROM hit""",
        "raster_focal": f"""{geo_pages},
            px AS (SELECT {ix7} AS ix, {iy7} AS iy FROM geo),
            counts AS (SELECT ix, iy, COUNT(*) AS n FROM px GROUP BY 1, 2),
            tiles AS (SELECT DISTINCT ix//8 AS tile_x, iy//8 AS tile_y FROM counts),
            grid AS (
              SELECT t.tile_x, t.tile_y, r.i AS idx,
                     t.tile_x*8 + r.i%8 AS gx, t.tile_y*8 + r.i//8 AS gy
              FROM tiles t CROSS JOIN range(64) r(i))
            SELECT g.tile_x, g.tile_y, g.idx,
                   CAST(COALESCE(SUM(c.n), 0) AS BIGINT) AS focal
            FROM grid g LEFT JOIN counts c
              ON c.ix BETWEEN g.gx - 1 AND g.gx + 1
             AND c.iy BETWEEN g.gy - 1 AND g.gy + 1
            GROUP BY 1, 2, 3""",
        "raster_diff": f"""{geo_pages},
            px AS (SELECT {ix7} AS ix, {iy7} AS iy,
                          warc_ts < TIMESTAMP '2024-01-04 00:00:00' AS is_a
                   FROM geo),
            counts AS (
              SELECT ix//8 AS tile_x, iy//8 AS tile_y,
                     (iy%8)*8 + (ix%8) AS idx,
                     CAST(SUM(CASE WHEN is_a THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
                     CAST(SUM(CASE WHEN is_a THEN 0 ELSE 1 END) AS BIGINT) AS n_b
              FROM px GROUP BY 1, 2, 3),
            tiles AS (SELECT DISTINCT tile_x, tile_y FROM counts),
            grid AS (
              SELECT t.tile_x, t.tile_y, r.i AS idx
              FROM tiles t CROSS JOIN range(64) r(i))
            SELECT g.tile_x, g.tile_y, g.idx,
                   COALESCE(c.n_a, 0) AS n_a,
                   COALESCE(c.n_b, 0) AS n_b,
                   COALESCE(c.n_a, 0) - COALESCE(c.n_b, 0) AS diff
            FROM grid g LEFT JOIN counts c
              ON g.tile_x = c.tile_x AND g.tile_y = c.tile_y AND g.idx = c.idx""",
        "zonal_stats": f"""{geo_pages},
            px AS (SELECT {ix7} AS ix, {iy7} AS iy FROM geo),
            counts AS (
              SELECT ix//8 AS tile_x, iy//8 AS tile_y,
                     (iy%8)*8 + (ix%8) AS idx, COUNT(*) AS n
              FROM px GROUP BY 1, 2, 3),
            centers AS (
              SELECT tile_x, tile_y, idx, n,
                     (tile_x*8 + idx%8 + 0.5)*(360.0/{1 << CELL_RES}) - 180.0 AS cx,
                     (tile_y*8 + idx//8 + 0.5)*(180.0/{1 << CELL_RES}) - 90.0 AS cy
              FROM counts),
            edges(polygon_id, x1, y1, x2, y2) AS (VALUES
            {star_edges_sql_values()}),
            inside AS (
              SELECT c.tile_x, c.tile_y, c.idx, c.n, e.polygon_id,
                     SUM(CASE WHEN ((e.y1 > c.cy) <> (e.y2 > c.cy))
                               AND (c.cx < e.x1 + (c.cy - e.y1)*(e.x2 - e.x1)/(e.y2 - e.y1))
                          THEN 1 ELSE 0 END) AS crossings
              FROM centers c, edges e
              GROUP BY 1, 2, 3, 4, 5)
            SELECT polygon_id, COUNT(*) AS n_px,
                   CAST(SUM(n) AS BIGINT) AS n_docs, MAX(n) AS max_n
            FROM inside WHERE crossings % 2 = 1 GROUP BY 1""",
        "events_hourly": """
            SELECT event_type,
                   make_timestamp((epoch_us(ts)//3600000000)*3600000000) AS window_start,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events GROUP BY 1, 2""",
        "events_window": """
            SELECT user_id, event_id FROM (
              SELECT user_id, event_id,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, ts, event_id) AS rn
              FROM events) WHERE rn = 1""",
        "events_sliding": """
            SELECT event_id,
                   CAST(COUNT(*) OVER (
                     PARTITION BY event_type ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS n_trailing
            FROM events""",
        "events_topk": """
            SELECT user_id, event_id, CAST(rn AS BIGINT) AS rank FROM (
              SELECT user_id, event_id,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, ts, event_id) AS rn
              FROM events) WHERE rn <= 2""",
        "doc_sample": f"""
            SELECT doc_id, lang FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000 <
                  CASE lang {' '.join(f"WHEN '{k}' THEN {v}" for k, v in _SAMPLE_RATES_BP.items())}
                  ELSE {_SAMPLE_DEFAULT_BP} END""",
        "doc_length_percentiles": """
            SELECT lang, p, CAST(q AS BIGINT) AS value FROM (
              SELECT lang, 0.5 AS p, quantile_disc(n_chars, 0.5) AS q FROM documents GROUP BY lang
              UNION ALL
              SELECT lang, 0.9, quantile_disc(n_chars, 0.9) FROM documents GROUP BY lang
              UNION ALL
              SELECT lang, 0.99, quantile_disc(n_chars, 0.99) FROM documents GROUP BY lang)""",
        "geo_extract": f"{geo_pages} SELECT doc_id, lon, lat FROM geo",
        "tile_assign": f"{geo_pages} SELECT doc_id, {_CELL_SQL} AS cell FROM geo",
        "cell_agg": f"""{geo_pages}
            SELECT {_CELL_SQL} AS cell,
                   COUNT(*) AS n_docs,
                   MIN(lon) AS minlon, MIN(lat) AS minlat,
                   MAX(lon) AS maxlon, MAX(lat) AS maxlat,
                   MIN(warc_ts) AS t_min, MAX(warc_ts) AS t_max
            FROM geo GROUP BY 1""",
        "bbox_join": f"""{geo_pages},
            rects(polygon_id, minlon, minlat, maxlon, maxlat) AS (VALUES
            {_rect_sql_values()})
            SELECT g.doc_id, r.polygon_id
            FROM geo g JOIN rects r
              ON g.lon >= r.minlon AND g.lon <= r.maxlon
             AND g.lat >= r.minlat AND g.lat <= r.maxlat""",
        "pip_join": f"""{geo_pages},
            edges(polygon_id, x1, y1, x2, y2) AS (VALUES
            {star_edges_sql_values()})
            SELECT doc_id, polygon_id FROM (
              SELECT g.doc_id, e.polygon_id,
                     SUM(CASE WHEN ((e.y1 > g.lat) <> (e.y2 > g.lat))
                               AND (g.lon < e.x1 + (g.lat - e.y1)*(e.x2 - e.x1)/(e.y2 - e.y1))
                          THEN 1 ELSE 0 END) AS crossings
              FROM geo g, edges e
              GROUP BY g.doc_id, e.polygon_id)
            WHERE crossings % 2 = 1""",
        "knn": f"""{geo_pages},
            refs(ref_id, rlon, rlat) AS (VALUES
            {_ref_sql_values()}),
            dists AS (
              SELECT g.doc_id, r.ref_id,
                     2.0*6371008.8*asin(least(1.0, sqrt(
                        pow(sin(radians(r.rlat - g.lat)/2.0), 2)
                        + cos(radians(g.lat))*cos(radians(r.rlat))
                          *pow(sin(radians(r.rlon - g.lon)/2.0), 2)))) AS d
              FROM geo g, refs r),
            ranked AS (
              SELECT doc_id, ref_id,
                     row_number() OVER (PARTITION BY doc_id ORDER BY d, ref_id) AS rank
              FROM dists)
            SELECT doc_id, ref_id, rank FROM ranked WHERE rank <= 3""",
        "knn_grid": f"""{geo_pages},
            refs AS (
              SELECT i AS ref_id,
                     ((i*104729 + 17) % 36000)/100.0 - 180.0 AS rlon,
                     ((i*7919 + 11) % 17000)/100.0 - 85.0 AS rlat
              FROM range(5000) t(i)),
            dists AS (
              SELECT g.doc_id, r.ref_id,
                     2.0*6371008.8*asin(least(1.0, sqrt(
                        pow(sin(radians(r.rlat - g.lat)/2.0), 2)
                        + cos(radians(g.lat))*cos(radians(r.rlat))
                          *pow(sin(radians(r.rlon - g.lon)/2.0), 2)))) AS d
              FROM geo g, refs r),
            ranked AS (
              SELECT doc_id, ref_id,
                     row_number() OVER (PARTITION BY doc_id ORDER BY d, ref_id) AS rank
              FROM dists)
            SELECT doc_id, ref_id, rank FROM ranked WHERE rank <= 3""",
        "text_invariant": f"WITH {PAGES_SQL_CTE} SELECT doc_id, md5(text) AS text_md5 FROM pages",
        "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "dedup_stream": "SELECT DISTINCT md5(text) AS h FROM documents",
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
                   CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   COUNT(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "top_customers": """
            SELECT o.o_custkey, c.c_name,
                   CAST(SUM(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY o.o_custkey, c.c_name
            ORDER BY total_cents DESC, o.o_custkey LIMIT 10""",
        "events_by_type": """
            SELECT event_type, COUNT(*) AS n_events,
                   MIN(ts) AS ts_min, MAX(ts) AS ts_max,
                   CAST(SUM(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events GROUP BY event_type""",
    }
