"""Deduplication kernels: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup (training-data pipeline extras).

Scale design (SURVEY.md §2.8):
- exact: hash text -> hash-partition groupby -> keep min id (no full-text
  shuffle; only 16-byte digests move).
- MinHash+LSH: per-batch signature computation is fully vectorized
  (token hash -> shingle hash -> P universal-hash permutations with
  ``np.minimum.reduceat`` over the flattened token stream); banding emits
  (band, band_hash) keys, the band buckets meet in one hash partition on
  (band, key) that expands their pairs, and one more on (doc_a, doc_b)
  keeps each pair once.
- SimHash: 64-bit sign-aggregated token hashes; near-dup = hamming
  distance <= d via multi-index (4x16-bit block keys, exact check per
  bucket).
- embedding cosine: random-hyperplane LSH bucket -> within-bucket exact
  cosine; brute-force path for small sides.
- verification, resolution and application (candidate pairs -> texts or
  vectors, pairs -> components, survivors -> corpus) each take
  :func:`georay.partition.broadcast_or_none` on their small side (the
  pairs, the candidates' texts or vectors, the resolution table).  While
  it fits ``BROADCAST_BYTES`` it is broadcast with ``ray.put`` and the
  corpus streams through a plain map (components run on the driver with
  :func:`fastsv_labels`); past the budget each step is a keyed exchange
  (:func:`georay.partition.copartition`, or label propagation over
  :func:`georay.partition.hash_partition`).  No step uses Ray's
  actor-based ``Dataset.join``.

All hashes are deterministic (fixed seeds) so runs are reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from georay.geom.polygon import _expand_ranges
from georay.partition import broadcast_or_none, cached_map, copartition, hash_partition, part_of, partitions
from georay.stages.aggregate import keyed_agg

MERSENNE_P = np.uint64((1 << 61) - 1)


def segment_reduce(ufunc, values: np.ndarray, offsets: np.ndarray, empty_fill, axis0_shape=None):
    """Per-segment ``ufunc.reduceat`` that handles EMPTY segments correctly.

    Clamping trailing empty-segment starts to len-1 (the naive fix for
    reduceat's index bound) silently ends the PREVIOUS segment one element
    early — a document's reduction then depends on whether an empty doc
    follows it in the batch.  Reducing over only the non-empty starts is
    exact: zero-width segments between two non-empty ones contribute no
    elements, so consecutive non-empty starts still delimit the right
    ranges.  Empty segments get ``empty_fill``.
    """
    n = len(offsets) - 1
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if axis0_shape is None:
        out = np.full(n, empty_fill, dtype=values.dtype if hasattr(values, "dtype") else None)
    else:
        out = np.full((n,) + axis0_shape, empty_fill, dtype=values.dtype)
    if len(values) and nonempty.any():
        res = ufunc.reduceat(values, starts[nonempty].astype(np.int64), axis=0)
        out[nonempty] = res
    return out


#: two independent 16-byte keys -> a 128-bit combined text key; collision
#: probability at 10^12 docs is ~(10^12)^2 / 2^129 ≈ 1e-15 — safe for
#: exact dedup without per-row Python hashing.  (Review finding: a
#: previous version sliced the distinguishing suffix off at [:16],
#: silently collapsing both keys to the same 64-bit hash.)
_KEY_A = "georay-dedupkeyA"
_KEY_B = "georay-dedupkeyB"
assert len(_KEY_A) == len(_KEY_B) == 16 and _KEY_A != _KEY_B


def text_key_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Exact-dedup partial: 128-bit vectorized content key per text (the
    hash-partition key) as two uint64 columns ``h1``/``h2``.  Null text
    hashes to a stable sentinel distinct from the empty string.  Fully
    vectorized (pandas' C hash kernel) — no per-document Python loop."""
    txt = batch.column(text_col).to_numpy(zero_copy_only=False)
    h1 = pd.util.hash_array(txt, hash_key=_KEY_A).astype(np.uint64)
    h2 = pd.util.hash_array(txt, hash_key=_KEY_B).astype(np.uint64)
    return pa.table(
        {
            "h1": pa.array(h1.astype(np.int64), pa.int64()),
            "h2": pa.array(h2.astype(np.int64), pa.int64()),
            id_col: batch.column(id_col),
        }
    )


def md5_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """md5 digest per text (verification surfaces whose SQL oracle needs
    literal ``md5(text)``; production dedup uses :func:`text_key_batch`).
    Null text hashes to a sentinel distinct from the empty string."""
    hs = [
        hashlib.md5(b"\x00<NULL>" if t is None else t.encode()).hexdigest()
        for t in batch.column(text_col).to_pylist()
    ]
    return pa.table({"h": pa.array(hs, pa.string()), id_col: batch.column(id_col)})


def md5_u64(strings: np.ndarray) -> np.ndarray:
    """DuckDB-mirrorable 64-bit string hash: ``md5_number_lower(s)`` ==
    little-endian uint64 of md5 digest bytes [8:16].  Hashes each UNIQUE
    value once (vocabulary-bounded), then scatters — the per-unique-token
    hashlib call is the only non-vectorized step, bounded by batch
    vocabulary rather than token count."""
    if len(strings) == 0:
        return np.empty(0, np.uint64)
    uniq, inv = np.unique(strings, return_inverse=True)
    out = np.empty(len(uniq), np.uint64)
    for i, s in enumerate(uniq):
        out[i] = int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "little")
    return out[inv]


# ---------------------------------------------------------------------------
# MinHash
# ---------------------------------------------------------------------------

def _perm_params(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE_P, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, MERSENNE_P, size=num_perm, dtype=np.uint64)
    return a, b


def _tokens_nonempty(text: pa.Array):
    """Whitespace split -> (token object array, per-doc offsets) with empty
    tokens dropped (splitting '' — or padded text — yields empty tokens).
    Null docs contribute zero tokens."""
    toks = pc.split_pattern_regex(text, r"\s+")
    flat = toks.flatten()
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(text)
    if len(flat) == 0:
        return np.empty(0, dtype=object), np.zeros(n + 1, np.int64)
    tok_np = flat.to_numpy(zero_copy_only=False)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    keep = lens > 0
    if not keep.all():
        kept_cum = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
        offsets = kept_cum[offsets]
        tok_np = tok_np[keep]
    return tok_np, offsets


def _gather_segments(n_per_seg: np.ndarray, src_starts: np.ndarray):
    """Vectorized ragged gather plan: for segment i, read ``n_per_seg[i]``
    consecutive elements starting at ``src_starts[i]``.  Returns flat
    source indices (concatenated, segment order preserved)."""
    total = int(n_per_seg.sum())
    if total == 0:
        return np.empty(0, np.int64)
    seg_of = np.repeat(np.arange(len(n_per_seg)), n_per_seg)
    pos = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(n_per_seg)[:-1]]), n_per_seg
    )
    return src_starts[seg_of] + pos


def _shingle_layout(offsets: np.ndarray, k: int):
    """Per-doc output layout for rolling k-shingles: docs with >= k tokens
    emit m-k+1 shingles, shorter non-empty docs fall back to their m raw
    tokens.  Returns (out_offsets, big_doc_token_starts, small_mask)."""
    m = np.diff(offsets)
    out_counts = np.where(m >= k, m - k + 1, m)
    out_offsets = np.zeros(len(m) + 1, np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    return m, out_counts, out_offsets


def _roll_shingles(th: np.ndarray, offsets: np.ndarray, k: int):
    """Vectorized per-doc rolling k-combine of token hashes (uint64
    wraparound arithmetic); no per-document Python loop.  Shingles never
    cross document boundaries; docs with fewer than k tokens contribute
    their raw token hashes."""
    n = len(offsets) - 1
    m, out_counts, out_offsets = _shingle_layout(offsets, k)
    T = len(th)
    out = np.empty(out_offsets[-1], np.uint64)
    C1, C2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0x85EBCA77C2B2AE63)
    big = m >= k
    if big.any() and T >= k:
        sh_all = th[: T - k + 1] * C1
        for j in range(1, k):
            sh_all = sh_all + th[j : T - k + 1 + j] * (C2 if j % 2 else C1 ^ C2)
        src = _gather_segments(np.where(big, m - k + 1, 0), offsets[:-1])
        dst = _gather_segments(np.where(big, m - k + 1, 0), out_offsets[:-1])
        out[dst] = sh_all[src]
    small = (m > 0) & (m < k)
    if small.any():
        src = _gather_segments(np.where(small, m, 0), offsets[:-1])
        dst = _gather_segments(np.where(small, m, 0), out_offsets[:-1])
        out[dst] = th[src]
    return out, out_offsets


def _shingle_hashes(text: pa.Array, k: int = 3):
    """Whitespace tokens -> rolling k-token shingle hashes (uint64),
    flattened across the batch with per-doc offsets; fully vectorized."""
    tok_np, offsets = _tokens_nonempty(text)
    n = len(offsets) - 1
    if len(tok_np) == 0:
        return np.empty(0, np.uint64), np.zeros(n + 1, np.int64)
    th = pd.util.hash_array(tok_np).astype(np.uint64)
    return _roll_shingles(th, offsets, k)


def _shingle_hashes2(text: pa.Array, k: int = 3):
    """Like :func:`_shingle_hashes` but with TWO independently-keyed
    streams (128-bit effective shingle identity): set operations on
    (h1, h2) pairs match exact string-shingle sets up to a ~2^-128
    collision probability — safe to stand in for string sets in
    oracle-checked integer-Jaccard comparisons."""
    tok_np, offsets = _tokens_nonempty(text)
    n = len(offsets) - 1
    if len(tok_np) == 0:
        z = np.empty(0, np.uint64)
        return z, z, np.zeros(n + 1, np.int64)
    th1 = pd.util.hash_array(tok_np, hash_key=_KEY_A).astype(np.uint64)
    th2 = pd.util.hash_array(tok_np, hash_key=_KEY_B).astype(np.uint64)
    h1, off = _roll_shingles(th1, offsets, k)
    h2, _ = _roll_shingles(th2, offsets, k)
    return h1, h2, off


def _segment_unique2(h1: np.ndarray, h2: np.ndarray, seg: np.ndarray):
    """Per-segment set dedup of (h1, h2) value pairs: one lexsort + one
    adjacent-difference mask over the whole batch (no per-segment loop).
    Returns the deduped (h1, h2, seg) triplets sorted by segment."""
    order = np.lexsort((h2, h1, seg))
    a, b, s = h1[order], h2[order], seg[order]
    keep = np.ones(len(s), bool)
    keep[1:] = (s[1:] != s[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[keep], b[keep], s[keep]


def _shingle_strings(tok_np: np.ndarray, offsets: np.ndarray, k: int = 3):
    """Per-doc k-token shingles as ' '-joined STRINGS (the md5 oracle
    backend: DuckDB mirrors them as ``tk[i]||' '||tk[i+1]||' '||tk[i+2]``).
    Same layout rules as :func:`_roll_shingles`."""
    n = len(offsets) - 1
    m, out_counts, out_offsets = _shingle_layout(offsets, k)
    T = len(tok_np)
    out = np.empty(out_offsets[-1], dtype=object)
    big = m >= k
    if big.any() and T >= k:
        sh_all = tok_np[: T - k + 1]
        for j in range(1, k):
            sh_all = sh_all + " "
            sh_all = sh_all + tok_np[j : T - k + 1 + j]
        src = _gather_segments(np.where(big, m - k + 1, 0), offsets[:-1])
        dst = _gather_segments(np.where(big, m - k + 1, 0), out_offsets[:-1])
        out[dst] = sh_all[src]
    small = (m > 0) & (m < k)
    if small.any():
        src = _gather_segments(np.where(small, m, 0), offsets[:-1])
        dst = _gather_segments(np.where(small, m, 0), out_offsets[:-1])
        out[dst] = tok_np[src]
    return out, out_offsets


def winnow_minima(values: np.ndarray, offsets: np.ndarray, window: int = 4):
    """Winnowing (Schleimer et al. 2003): per-doc sliding-window minima of
    the hash stream, deduplicated.  Returns per-doc ``(fp_count,
    fp_xor_digest)`` — fully vectorized (global sliding window + boundary
    masking + lexsort dedup + reduceat), no per-document loop."""
    n = len(offsets) - 1
    cnt = np.diff(offsets)
    counts = np.zeros(n, np.int64)
    digests = np.zeros(n, np.uint64)
    if len(values) == 0:
        return counts, digests
    doc_of = np.repeat(np.arange(n), cnt)
    mins_parts = []
    docs_parts = []
    T = len(values)
    if T >= window:
        view = np.lib.stride_tricks.sliding_window_view(values, window)
        valid = doc_of[: T - window + 1] == doc_of[window - 1 :]
        if valid.any():
            mins_parts.append(view.min(axis=1)[valid])
            docs_parts.append(doc_of[: T - window + 1][valid])
    small = (cnt > 0) & (cnt < window)
    if small.any():
        small_min = segment_reduce(np.minimum, values, offsets, np.iinfo(np.uint64).max)
        mins_parts.append(small_min[small])
        docs_parts.append(np.nonzero(small)[0])
    if not mins_parts:
        return counts, digests
    mins = np.concatenate(mins_parts)
    docs = np.concatenate(docs_parts)
    order = np.lexsort((mins, docs))
    mins, docs = mins[order], docs[order]
    first = np.ones(len(mins), bool)
    first[1:] = (docs[1:] != docs[:-1]) | (mins[1:] != mins[:-1])
    mins, docs = mins[first], docs[first]
    np.add.at(counts, docs, 1)
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=starts[1:])
    nz = counts > 0
    digests[nz] = np.bitwise_xor.reduceat(mins, starts[:-1][nz])
    return counts, digests


def minhash_signatures(text: pa.Array, num_perm: int = 128, k: int = 3) -> np.ndarray:
    """(n_docs, num_perm) uint64 MinHash signatures; empty docs get all-max."""
    sh, offsets = _shingle_hashes(text, k)
    n = len(offsets) - 1
    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(sh) == 0:
        return sig
    a, b = _perm_params(num_perm)
    # The permutation loop is the minhash hot path: num_perm full passes
    # over every shingle hash.  Two optimizations, both BIT-EXACT vs the
    # naive `(a*sh + b) % MERSENNE_P` (the SQL oracle mirrors the wrapped
    # uint64 intermediate, so results must not change):
    #   * Mersenne fold instead of integer division — for x < 2^64 and
    #     P = 2^61-1, x = q*(P+1) + r gives x mod P = (q + r) mod P with
    #     q = x>>61 <= 7, so one conditional subtract finishes the mod.
    #   * preallocated out= buffers — zero allocations per permutation
    #     (the naive form allocates ~4 shingle-sized temporaries each).
    tmp = np.empty_like(sh)
    fold = np.empty_like(sh)
    shift = np.uint64(61)
    for p in range(num_perm):
        np.multiply(sh, a[p], out=tmp)   # wraps mod 2^64, same as before
        np.add(tmp, b[p], out=tmp)
        np.bitwise_and(tmp, MERSENNE_P, out=fold)
        np.right_shift(tmp, shift, out=tmp)
        np.add(fold, tmp, out=fold)
        fold[fold >= MERSENNE_P] -= MERSENNE_P
        sig[:, p] = segment_reduce(np.minimum, fold, offsets, np.iinfo(np.uint64).max)
    return sig


def lsh_band_keys(sig: np.ndarray, bands: int = 32) -> np.ndarray:
    """(n_docs, bands) int64 band-bucket keys: hash of each band's rows.
    Docs sharing any (band, key) are near-dup candidates."""
    n, num_perm = sig.shape
    r = num_perm // bands
    out = np.empty((n, bands), dtype=np.int64)
    C = np.uint64(0xC2B2AE3D27D4EB4F)
    for bidx in range(bands):
        block = sig[:, bidx * r : (bidx + 1) * r]
        h = np.uint64(bidx + 1)
        for j in range(r):
            h = (h ^ block[:, j]) * C
        out[:, bidx] = (h >> np.uint64(1)).astype(np.int64)  # keep non-negative
    return out


def minhash_band_batch(
    batch: pa.Table, num_perm: int = 128, bands: int = 32, k: int = 3,
    text_col: str = "text", id_col: str = "doc_id",
) -> pa.Table:
    """map_batches kernel: docs -> exploded (band, key, doc_id) rows.
    The downstream (band, key) hash partition moves 16 bytes per
    (doc, band) instead of the documents themselves."""
    sig = minhash_signatures(batch.column(text_col).combine_chunks(), num_perm, k)
    keys = lsh_band_keys(sig, bands)
    n = len(batch)
    ids = batch.column(id_col).to_numpy()
    return pa.table(
        {
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()),
            "key": pa.array(keys.ravel(), pa.int64()),
            id_col: pa.array(np.repeat(ids, bands)),
        }
    )


_PAIRS_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("truncated", pa.bool_())]
)


def _upper_pairs(sizes: np.ndarray):
    """Every (i, j), i < j, within consecutive runs of ``sizes`` rows, as
    flat row indices: row i pairs with the rows after it up to its run's
    end (repeat/cumsum, no per-run loop)."""
    i = np.arange(int(sizes.sum()), dtype=np.int64)
    after = np.repeat(np.cumsum(sizes), sizes) - 1 - i
    return np.repeat(i, after), _expand_ranges(i + 1, after)


def _bucket_pairs_kernel(id_col, max_bucket, payload_col, pair_filter, num_partitions):
    """The per-partition kernel of :func:`band_bucket_pairs`: every row of
    each (band, key) bucket the partition holds -> (doc_a, doc_b,
    truncated) pairs, doc_a < doc_b."""

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PAIRS_SCHEMA.empty_table()
        band = t.column("band").to_numpy()
        key = t.column("key").to_numpy()
        ids = t.column(id_col).to_numpy().astype(np.int64)
        order = np.lexsort((ids, key, band))
        band, key, ids = band[order], key[order], ids[order]
        new = np.ones(len(ids), bool)
        new[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
        keep = new.copy()  # first row of a bucket, or a new id within it
        keep[1:] |= ids[1:] != ids[:-1]
        new, ids, order = new[keep], ids[keep], order[keep]
        bucket = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(ids)))
        truncated = np.zeros(len(sizes), bool)
        if max_bucket is not None:
            truncated = sizes > max_bucket
            rank = np.arange(len(ids)) - starts[bucket]
            keep = rank < max_bucket
            ids, order, bucket = ids[keep], order[keep], bucket[keep]
            sizes = np.minimum(sizes, max_bucket)
        a, b = _upper_pairs(sizes)
        if pair_filter is not None:
            payload = t.column(payload_col).to_numpy()[order]
            m = pair_filter(payload[a], payload[b])
            a, b = a[m], b[m]
        flag = truncated[bucket[a]]
        # a truncated bucket with no pair left still reports its loss: one
        # (-1, -1 - (k * P + p)) marker row each, k counting this
        # partition's markers and p its index, so doc_b is distinct
        # across every partition and the pair-distinct keeps them all
        emitted = np.zeros(len(sizes), bool)
        emitted[bucket[a]] = True
        n_markers = int((truncated & ~emitted).sum())
        p = int(part_of([band[:1], key[:1]], num_partitions)[0]) if n_markers else 0
        marker_b = -1 - (np.arange(n_markers, dtype=np.int64) * num_partitions + p)
        return pa.table(
            [
                np.concatenate([ids[a], np.full(n_markers, -1, np.int64)]),
                np.concatenate([ids[b], marker_b]),
                np.concatenate([flag, np.ones(n_markers, bool)]),
            ],
            schema=_PAIRS_SCHEMA,
        )

    return kernel


def _distinct_pairs(pairs, num_partitions: int):
    """(doc_a, doc_b, truncated) rows -> one row per distinct pair, flagged
    if any of its rows was: one hash_partition on (doc_a, doc_b)."""

    def kernel(t: pa.Table) -> pa.Table:
        g = t.group_by(["doc_a", "doc_b"]).aggregate([("truncated", "max")])
        return pa.table(
            [g.column("doc_a"), g.column("doc_b"), g.column("truncated_max")],
            schema=_PAIRS_SCHEMA,
        )

    return hash_partition(pairs, ["doc_a", "doc_b"], kernel, num_partitions)


def band_bucket_pairs(
    banded_ds, id_col: str = "doc_id", max_bucket: int | None = 512,
    payload_col: str | None = None, pair_filter=None,
):
    """(band, key, id[, payload]) rows -> distinct candidate pairs
    ``(doc_a, doc_b, truncated)`` with doc_a < doc_b.

    Two keyed exchanges (:func:`georay.partition.hash_partition`), each
    sized by :func:`~georay.partition.partitions`, so no task holds every
    bucket:

    1. on ``(band, key)``: each partition lexsorts its rows, de-duplicates
       ids per bucket and expands every bucket's upper-triangle pairs in
       one vectorized pass, applying ``pair_filter`` inline;
    2. on ``(doc_a, doc_b)``: a pair that collides in several bands is
       kept once, flagged if any of its buckets was truncated.

    Hot buckets (pathological all-identical shards) have one rule,
    TRUNCATE (the rule of the former default route).  A bucket with more than ``max_bucket`` distinct ids keeps
    its ``max_bucket`` smallest ids, and every pair it emits is flagged
    ``truncated``.  A truncated bucket whose pairs were all rejected
    emits one marker row, ``doc_a = -1`` with a DISTINCT negative
    ``doc_b`` across all partitions, so the pair-distinct cannot collapse
    the count; consumers filter ``doc_a < 0``, never the literal pair
    (-1, -1).  Pass ``max_bucket=None`` to disable the cap.

    ``payload_col``/``pair_filter``: a fixed-width per-doc payload (e.g.
    the 64-bit simhash) rides the bucket shuffle and
    ``pair_filter(payload_a, payload_b) -> bool mask`` verifies candidate
    pairs INLINE at expansion — candidates never join back against the
    corpus, and only verified pairs leave the stage.
    """
    n = partitions(banded_ds)
    kernel = _bucket_pairs_kernel(id_col, max_bucket, payload_col, pair_filter, n)
    return _distinct_pairs(hash_partition(banded_ds, ["band", "key"], kernel, n), n)


def jaccard_ngrams(a: str, b: str, k: int = 3) -> float:
    """Exact k-token-shingle Jaccard (the verification kernel for LSH
    candidates; also usable standalone for small pairsets)."""

    def shingles(s):
        t = s.split()
        if len(t) < k:
            return set(t)
        return {tuple(t[i : i + k]) for i in range(len(t) - k + 1)}

    sa, sb = shingles(a), shingles(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id", hash_impl: str = "fast"
) -> pa.Table:
    """64-bit SimHash per document + 4x16-bit block keys for hamming-<=3
    candidate bucketing (Charikar 2002 / Manku et al. 2007, public).

    ``hash_impl="fast"`` (default): pandas' vectorized C hash kernel.
    ``hash_impl="md5"``: DuckDB-mirrorable ``md5_number_lower`` token hash
    (vocabulary-bounded hashing of unique tokens) — the oracle-parity
    backend; the algorithm is hash-agnostic."""
    text = batch.column(text_col).combine_chunks()
    tok_np, offsets = _tokens_nonempty(text)
    n = len(text)
    sims = np.zeros(n, dtype=np.uint64)
    if len(tok_np):
        if hash_impl == "md5":
            th = md5_u64(tok_np)
        else:
            th = pd.util.hash_array(tok_np).astype(np.uint64)
        bits = np.unpackbits(th.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        signed = bits.astype(np.int32) * 2 - 1  # (n_tokens, 64) in {-1, +1}
        acc = segment_reduce(np.add, signed, offsets, 0, axis0_shape=(64,))
        nonempty = offsets[:-1] < offsets[1:]
        bitvals = (acc > 0).astype(np.uint8)
        packed = np.packbits(bitvals, axis=1, bitorder="little").view(np.uint64).ravel()
        sims[nonempty] = packed[nonempty]
    out = {id_col: batch.column(id_col), "simhash": pa.array(sims.astype(np.int64), pa.int64())}
    for blk in range(4):
        out[f"blk{blk}"] = pa.array(
            ((sims >> np.uint64(16 * blk)) & np.uint64(0xFFFF)).astype(np.int32), pa.int32()
        )
    return pa.table(out)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def simhash_index_tables(blocks: int = 6, max_hamming: int = 3):
    """Table layout for the permuted multi-index (Manku et al. 2007 §4,
    public): split 64 bits into ``blocks`` contiguous ranges and build one
    table per (blocks - max_hamming)-subset of ranges.  Returns
    ``(bounds, combos)`` where ``bounds`` are the range bit boundaries and
    ``combos`` the per-table range subsets."""
    from itertools import combinations

    if blocks <= max_hamming:
        raise ValueError("need blocks > max_hamming for the pigeonhole guarantee")
    bounds = np.linspace(0, 64, blocks + 1).astype(np.int64)
    combos = list(combinations(range(blocks), blocks - max_hamming))
    return bounds, combos


def simhash_index_keys(u: np.ndarray, blocks: int = 6, max_hamming: int = 3):
    """Permuted-table multi-index keys: yields ``(table_id, key)`` per
    table, where ``key`` concatenates the bits of that table's block
    subset.  ``hamming(a, b) <= max_hamming`` flips bits in at most
    ``max_hamming`` blocks, so at least ``blocks - max_hamming`` blocks
    are intact and SOME table's subset avoids every flipped block — a, b
    share that table's key (recall 1 by pigeonhole).  Key width is
    ``64 - (bits of the excluded blocks)`` (~32 bits for blocks=6, d=3),
    so distinct-bucket cardinality grows with the corpus instead of
    capping at 2^16 like the naive 4x16 scheme — the fix for the
    round-2 scale verdict on ``simhash_pairs``.  Tables = C(blocks,
    max_hamming) (20 for 6/3); banding volume scales with table count,
    bucket size shrinks with key width."""
    bounds, combos = simhash_index_tables(blocks, max_hamming)
    widths = np.diff(bounds)
    u = u.astype(np.uint64)
    block_vals = [
        (u >> np.uint64(bounds[i])) & np.uint64((1 << int(widths[i])) - 1)
        for i in range(blocks)
    ]
    for table_id, combo in enumerate(combos):
        key = np.zeros(len(u), np.uint64)
        shift = 0
        for bi in combo:
            key |= block_vals[bi] << np.uint64(shift)
            shift += int(widths[bi])
        yield table_id, key.astype(np.int64)


def simhash_pairs(ds, max_hamming: int = 3, max_bucket: int = 512,
                  text_col: str = "text", id_col: str = "doc_id",
                  hash_impl: str = "fast",
                  blocks: int = 6, stats_out: dict | None = None):
    """SimHash near-dup PAIRS via the permuted multi-index
    (:func:`simhash_index_keys`): docs sharing any table's block-subset
    key are candidates (recall 1 for hamming <= ``max_hamming`` by
    pigeonhole), verified INLINE by exact hamming distance — the 8-byte
    simhash rides the bucket shuffle as a ``band_bucket_pairs`` payload,
    so candidates never hash-join back against the corpus (the round-2
    shape paid two distributed joins here).  Candidate-pair expansion
    is ``band_bucket_pairs``: two keyed exchanges sized by the data.
    ``blocks`` tunes the recall/volume trade-off: C(blocks, max_hamming)
    tables, key width ~``64 * (1 - max_hamming/blocks)`` bits (6/3 -> 20
    tables, ~32-bit keys — bucket cardinality grows with the corpus
    instead of capping at 2^16)."""
    # one simhash pass over the corpus; table keys are re-derived from
    # the 64-bit hash by shifting (the banded branch must not re-run the
    # dominant token-hashing upstream)
    sims_slim = ds.map_batches(
        lambda b: simhash_batch(b, text_col=text_col, id_col=id_col, hash_impl=hash_impl)
        .select([id_col, "simhash"]),
        batch_format="pyarrow",
    )

    def banded(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy()
        sim = b.column("simhash").to_numpy()
        u = sim.astype(np.uint64)
        out_band, out_key, out_id, out_sim = [], [], [], []
        for table_id, key in simhash_index_keys(u, blocks=blocks, max_hamming=max_hamming):
            out_band.append(np.full(len(ids), table_id, dtype=np.int32))
            out_key.append(key)
            out_id.append(ids)
            out_sim.append(sim)
        return pa.table(
            {
                "band": pa.array(np.concatenate(out_band), pa.int32()),
                "key": pa.array(np.concatenate(out_key), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_sim), pa.int64()),
            }
        )

    verified = band_bucket_pairs(
        sims_slim.map_batches(banded, batch_format="pyarrow"),
        max_bucket=max_bucket,
        payload_col="sim",
        pair_filter=lambda sa, sb: hamming64(sa, sb) <= max_hamming,
    ).materialize()

    import ray.data as _rd

    empty = pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
    if verified.count() == 0:
        # Ray skips the UDF on empty blocks, so an all-empty dataset
        # cannot be re-typed by map_batches guards — pin the schema with
        # a literal empty dataset (r3 review finding).  Zero rows also
        # means zero markers, i.e. genuinely no truncation: the stats
        # contract must still be honoured with an explicit 0
        if stats_out is not None:
            stats_out["truncated_candidate_pairs"] = 0
        return _rd.from_arrow(empty)

    trunc = verified.map_batches(
        lambda b: pa.table({"t": b.column("truncated").cast(pa.int32())}),
        batch_format="pyarrow",
    ).sum("t")
    if stats_out is not None:
        # programmatic truncation contract (the warning below is for
        # humans): rows from buckets that hit the max_bucket cap —
        # verified pairs from truncated buckets, plus one (-1, -k)
        # marker per truncated bucket whose pairs were all
        # hamming-rejected (distinct doc_b so the pair-distinct cannot
        # collapse the count), so the count is nonzero WHENEVER the
        # recall-1 guarantee was voided
        stats_out["truncated_candidate_pairs"] = int(trunc or 0)
    if trunc:
        import logging

        logging.getLogger("georay.dedup").warning(
            "simhash block bucket(s) truncated at max_bucket=%d — pairs beyond "
            "the cap are dropped, so the pigeonhole recall-1 guarantee does NOT "
            "hold for this run; raise max_bucket for exact results",
            max_bucket,
        )
    def final(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        # drop (-1,-1) truncation marker rows — they carry the flag for
        # the stats/warning above, not real pairs
        b = b.filter(pc.greater_equal(b.column("doc_a"), 0))
        return b.select(["doc_a", "doc_b"])

    out = verified.map_batches(final, batch_format="pyarrow").materialize()
    if out.count() == 0:  # all rows were markers: re-pin the schema
        return _rd.from_arrow(empty)
    return out


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------

def hyperplane_keys(vecs: np.ndarray, n_planes: int = 16, seed: int = 11) -> np.ndarray:
    """Random-hyperplane LSH bucket key per vector (int32)."""
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((vecs.shape[1], n_planes))
    bits = (vecs @ planes) > 0
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(vecs), 4), dtype=np.uint8)
    out[:, : min(4, packed.shape[1])] = packed[:, :4]
    return out.view(np.int32).ravel()


def embed_lsh_pairs(ds, threshold: float = 0.9, n_tables: int = 8, n_planes: int = 12,
                    vec_col: str = "embedding", id_col: str = "vec_id", max_bucket: int = 512):
    """Distributed LSH-bucketed near-dup pipeline (the scale path)
    -> verified ``(vec_a, vec_b)`` pairs.

    BUCKET-LOCAL verification: the packed vector rides the (band, key)
    hash partition, each bucket verifies its own pairs with exact cosine,
    and only VERIFIED pairs leave the bucket (near-dup workloads emit
    orders of magnitude fewer verified pairs than candidates, so nothing
    quadratic ever shuffles).  The exchange cost is ``n_tables`` copies
    of the vector table through one sort shuffle; bucket count is bounded
    by ``2^planes × tables`` so the per-bucket loop is cheap.  No
    single-task merge, no broadcast.  A bucket past ``max_bucket`` unique
    vectors keeps its ``max_bucket`` smallest ids, with a warning.

    Recall < 1 by construction (tested against the brute kernel);
    precision = 1 because of the exact verification step.
    """

    def keys_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "band": pa.array([], pa.int32()),
                "key": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "vec": batch.column(vec_col),
            })
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        vecs = flat.reshape(len(col), -1)
        ids = batch.column(id_col).to_numpy()
        bands = []
        keys = []
        for t in range(n_tables):
            k = hyperplane_keys(vecs, n_planes=n_planes, seed=11 + t)
            bands.append(np.full(len(ids), t, dtype=np.int32))
            keys.append(k.astype(np.int64))
        return pa.table({
            "band": pa.array(np.concatenate(bands), pa.int32()),
            "key": pa.array(np.concatenate(keys), pa.int64()),
            "doc_id": pa.array(np.tile(ids, n_tables)),
            "vec": pa.concat_arrays([col] * n_tables),
        })

    banded = ds.map_batches(keys_batch, batch_format="pyarrow")

    # hash-partition the buckets: ONE kernel per partition verifies ALL
    # of its buckets (a bucket's rows always hash together), replacing
    # per-bucket map_groups dispatch (~0.5 ms x #buckets) with P group
    # tasks whose inner per-bucket matmuls run in a plain loop
    def verify_partition(g: pa.Table) -> pa.Table:
        band = g.column("band").to_numpy()
        key = g.column("key").to_numpy()
        order = np.lexsort((key, band))
        band, key = band[order], key[order]
        ids = g.column("doc_id").to_numpy()[order]
        vecs = _list_to_matrix(g.column("vec"))[order]
        seg = np.ones(len(ids), bool)
        seg[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
        bounds = np.concatenate([np.nonzero(seg)[0], [len(ids)]])
        none = np.empty(0, np.int64)
        out_a, out_b, out_tr = [none], [none], [none.astype(bool)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            uniq, first_idx = np.unique(ids[s:e], return_index=True)
            truncated = len(uniq) > max_bucket
            if truncated:  # pathological all-identical shard guard
                import logging

                logging.getLogger("georay.dedup").warning(
                    "embed LSH bucket truncated: %d unique vectors > max_bucket=%d "
                    "(band=%s key=%s) — verified pairs beyond the cap are dropped; "
                    "raise max_bucket or n_planes if this fires on real data",
                    len(uniq), max_bucket, band[s], key[s],
                )
                uniq = uniq[:max_bucket]
                first_idx = first_idx[:max_bucket]
            if len(uniq) < 2:
                continue
            v = vecs[s:e][first_idx]
            norms = np.linalg.norm(v, axis=1)
            norms[norms == 0] = 1.0
            unit = v / norms[:, None]
            ia, ib = np.nonzero(np.triu(unit @ unit.T >= threshold, k=1))
            out_a.append(uniq[ia])
            out_b.append(uniq[ib])
            out_tr.append(np.full(len(ia), truncated))
        return pa.table(
            [np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_tr)],
            schema=_PAIRS_SCHEMA,
        )

    # banded is lazy (rows = n_vecs x n_tables); the input's row count —
    # free when ds is a fresh read/materialized — is a lower bound that
    # still scales the count with the corpus
    n = partitions(ds)
    pairs = _distinct_pairs(hash_partition(banded, ["band", "key"], verify_partition, n), n)

    def _typed_pairs(b: pa.Table) -> pa.Table:
        return pa.table({"vec_a": b.column("doc_a"), "vec_b": b.column("doc_b")})

    return pairs.map_batches(_typed_pairs, batch_format="pyarrow")


def _list_to_matrix(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:  # reshape(0, -1) is a numpy error; empty blocks pass through
        return np.empty((0, 0))
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(col), -1)


def _attach_side(L: pa.Table, on: str, R: pa.Table, id_col: str, col: str) -> pa.Table:
    """Inner join of the pairs ``L`` and ``R`` on ``L[on] == R[id_col]``
    (``on`` is ``doc_a`` or ``doc_b``): ``L``'s columns plus ``R[col]`` as
    ``side_a`` or ``side_b``.  Rows are matched on indices, so ``col`` may
    be any type (Arrow's hash join rejects list payloads)."""
    li = pa.table({"k": L.column(on), "li": np.arange(L.num_rows)})
    ri = pa.table({"k": R.column(id_col), "ri": np.arange(R.num_rows)})
    m = li.join(ri, "k")
    return L.take(m.column("li")).append_column("side_" + on[-1], R.column(col).take(m.column("ri")))


class IdFilter:
    """Broadcast kernel (``cached_map(IdFilter, ray.put(ids), ...)``):
    a batch's rows whose ``id_col`` is in ``ids`` (``drop=True``: is
    not), optionally projected to ``columns``."""

    def __init__(self, ids, id_col: str, drop: bool = False, columns: tuple | None = None):
        self.ids, self.id_col, self.drop, self.columns = ids, id_col, drop, columns

    def __call__(self, b: pa.Table) -> pa.Table:
        mask = pc.is_in(b.column(self.id_col), value_set=self.ids)
        b = b.filter(pc.invert(mask) if self.drop else mask)
        return b if self.columns is None else b.select(list(self.columns))


class AttachSides:
    """Broadcast kernel (``cached_map(AttachSides, ray.put(side), ...)``):
    a batch of ``(doc_a, doc_b)`` pairs with each id's ``side[col]``
    attached as ``side_a`` and ``side_b`` (:func:`_attach_side`)."""

    def __init__(self, side: pa.Table, id_col: str, col: str):
        self.side, self.id_col, self.col = side, id_col, col

    def __call__(self, b: pa.Table) -> pa.Table:
        for on in ("doc_a", "doc_b"):
            b = _attach_side(b, on, self.side, self.id_col, self.col)
        return b


def _verify_pairs(pairs_ds, side_ds, id_col: str, col: str, keep, empty: pa.Table,
                  num_partitions: int | None):
    """The route of candidate-pair verification: ``(doc_a, doc_b)``
    pairs -> ``keep(b)``, where ``b`` is a block of pairs with each id's
    ``side_ds[col]`` attached as ``side_a`` and ``side_b``.

    :func:`georay.partition.broadcast_or_none` picks the route, against
    its ``BROADCAST_BYTES`` budget:

    - the pairs fit: their ids go out with one ``ray.put`` and the side
      streams through one fused read -> :class:`IdFilter` map.  If the
      matched ``(id, col)`` rows fit too, they go out with one
      ``ray.put`` and one fused map over the pairs attaches both values
      (:class:`AttachSides`) and runs ``keep``: no exchange.  Each
      broadcast is fetched once per worker (``cached_map``);
    - otherwise two co-partitioned sort shuffles: the first attaches
      ``doc_a``'s value, the second ``doc_b``'s and runs ``keep`` in the
      same kernel.  When only the pairs fit, the filtered side rows, not
      the whole side, feed the shuffles.
    """
    import ray
    import ray.data

    pairs, pairs_ds = broadcast_or_none(pairs_ds)
    n_pairs = pairs_ds.count() if pairs is None else pairs.num_rows
    if n_pairs == 0:
        return ray.data.from_arrow(empty)

    if pairs is not None:
        ids = pc.unique(pa.chunked_array(pairs.column("doc_a").chunks + pairs.column("doc_b").chunks))
        candidates = cached_map(IdFilter, ray.put(ids), id_col=id_col, columns=(id_col, col))
        side, side_ds = broadcast_or_none(side_ds.map_batches(candidates, batch_format="pyarrow"))
        if side is not None:
            attached = pairs_ds.map_batches(
                cached_map(AttachSides, ray.put(side), id_col=id_col, col=col), batch_format="pyarrow"
            )
            return attached.map_batches(keep, batch_format="pyarrow")
    if num_partitions is None:
        num_partitions = partitions(side_ds, n_rows=n_pairs, rows_per_partition=250_000)
    with_a = copartition(
        pairs_ds, side_ds, "doc_a", id_col, lambda L, R: _attach_side(L, "doc_a", R, id_col, col),
        num_partitions,
    )
    return copartition(
        with_a, side_ds, "doc_b", id_col, lambda L, R: keep(_attach_side(L, "doc_b", R, id_col, col)),
        num_partitions,
    )


def jaccard_verify_pairs(pairs_ds, docs_ds, k: int = 3, threshold_num: int = 1,
                         threshold_den: int = 2, id_col: str = "doc_id",
                         text_col: str = "text", num_partitions: int | None = None):
    """Exact k-shingle Jaccard verification of candidate pairs: keep
    (doc_a, doc_b) iff ``|Sa ∩ Sb| * den >= |Sa ∪ Sb| * num`` — i.e.
    J >= num/den decided in INTEGER arithmetic (float-free, so a DuckDB
    mirror computes the identical predicate).  Docs shorter than k tokens
    use their raw token set; two empty shingle sets count as a match
    (J := 1, reference semantics of :func:`jaccard_ngrams`).

    Scoring is fully vectorized: both sides' shingle sets are computed by
    the batched rolling-hash kernels (:func:`_shingle_hashes2`, 128-bit
    shingle identity so hash collisions are ~2^-128 — decision-identical
    to string sets), per-doc set dedup and pairwise intersection counts
    are lexsort + adjacent-compare + bincount over the whole batch.  No
    per-pair Python loop (the round-2 version looped :func:`set` ops per
    candidate).

    Texts reach the pairs by :func:`_verify_pairs`: while the pairs and
    the candidates' texts fit ``BROADCAST_BYTES`` (:func:`georay.partition.
    broadcast_or_none`), the corpus streams through one read -> ``is_in``
    filter and the matched texts are broadcast to one map over the pairs;
    past the budget two co-partitioned sort shuffles attach them.  The
    whole corpus is never broadcast.
    """
    empty = pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})

    def keep(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n == 0:
            return empty
        ha1, ha2, oa = _shingle_hashes2(b.column("side_a").combine_chunks(), k)
        hb1, hb2, ob = _shingle_hashes2(b.column("side_b").combine_chunks(), k)
        rng = np.arange(n, dtype=np.int64)
        ua1, ua2, seg_a = _segment_unique2(ha1, ha2, np.repeat(rng, np.diff(oa)))
        ub1, ub2, seg_b = _segment_unique2(hb1, hb2, np.repeat(rng, np.diff(ob)))
        ca = np.bincount(seg_a, minlength=n)
        cb = np.bincount(seg_b, minlength=n)
        # |Sa ∩ Sb| per pair: values unique within each side, so a value
        # seen twice in the pair's combined stream is in both sets
        v1 = np.concatenate([ua1, ub1])
        v2 = np.concatenate([ua2, ub2])
        s = np.concatenate([seg_a, seg_b])
        order = np.lexsort((v2, v1, s))
        v1, v2, s = v1[order], v2[order], s[order]
        dup = (s[1:] == s[:-1]) & (v1[1:] == v1[:-1]) & (v2[1:] == v2[:-1])
        inter = np.bincount(s[1:][dup], minlength=n)
        union = ca + cb - inter
        # union == 0 (both sets empty) -> 0 >= 0 -> match (J := 1)
        ok = inter * threshold_den >= union * threshold_num
        da = b.column("doc_a").to_numpy()
        db = b.column("doc_b").to_numpy()
        return pa.table({"doc_a": pa.array(da[ok]), "doc_b": pa.array(db[ok])})

    return _verify_pairs(pairs_ds, docs_ds, id_col, text_col, keep, empty, num_partitions)


def _deliver_labels(g: pa.Table) -> pa.Table:
    """One hash partition of label-propagation messages -> (node, label)
    offers.  Label rows (``dest < 0``) give each key its minimum label;
    request rows (``key``, ``dest``) send that minimum to ``dest``.  A key
    with no label row labels itself.  Every key's own minimum is offered
    back to it, so the caller's per-node Min sees every label source."""
    key = g.column("key").to_numpy()
    dest = g.column("dest").to_numpy()
    label = g.column("label").to_numpy()
    is_lab = dest < 0
    lk, ll = key[is_lab], label[is_lab]
    order = np.lexsort((ll, lk))
    lk, ll = lk[order], ll[order]
    first = np.ones(len(lk), bool)
    first[1:] = lk[1:] != lk[:-1]
    uk, umin = lk[first], ll[first]
    rk, rd = key[~is_lab], dest[~is_lab]
    got = rk.copy()
    if len(uk):
        idx = np.minimum(np.searchsorted(uk, rk), len(uk) - 1)
        hit = uk[idx] == rk
        got[hit] = umin[idx[hit]]
    return pa.table({
        "node": pa.array(np.concatenate([rd, uk]), pa.int64()),
        "label": pa.array(np.concatenate([got, umin]), pa.int64()),
    })


def _min_label(t: pa.Table) -> pa.Table:
    """One hash partition of (node, label) offers -> each node's
    minimum label."""
    g = t.group_by("node").aggregate([("label", "min")])
    return pa.table({"node": g.column("node"), "label": g.column("label_min")})


def _not_converged(max_iter: int) -> RuntimeError:
    return RuntimeError(
        f"connected_components did not converge in {max_iter} rounds; "
        "refusing to return non-minimal survivors (raise max_iter)"
    )


def fastsv_labels(u: np.ndarray, v: np.ndarray, n: int, max_iter: int) -> np.ndarray:
    """Component-minimum label of each of ``n`` dense node indices, from
    the undirected edges ``(u[i], v[i])``: the FastSV kernel (Zhang, Azad
    and Hu, SIAM PP 2020) on one process.

    ``f`` is a parent forest and ``gf = f[f]``.  Each round, per edge,
    stochastic hooking ``f[f[u]] = min(f[f[u]], gf[v])`` hangs ``u``'s
    parent below the smallest grandparent seen across the edge,
    aggressive hooking ``f[u] = min(f[u], gf[v])`` hangs ``u`` itself, and
    shortcutting ``f[u] = min(f[u], gf[u])`` halves every path.  All
    three take minima, so a component's smallest index is the root its
    trees end in; rounds stop at the fixpoint where ``gf`` no longer
    changes, then every node points at that root.  A path of any id
    order takes O(log n) rounds.  If ``max_iter`` rounds end without the
    fixpoint it raises rather than return non-minimal labels."""
    u, v = np.concatenate([u, v]), np.concatenate([v, u])
    f = np.arange(n)
    gf = f.copy()
    for _ in range(max_iter):
        np.minimum.at(f, f[u], gf[v])
        np.minimum.at(f, u, gf[v])
        np.minimum(f, gf, out=f)
        nxt = f[f]
        if np.array_equal(nxt, gf):
            return gf
        gf = nxt
    raise _not_converged(max_iter)


def connected_components(pairs_ds, num_partitions: int | None = None, max_iter: int = 32):
    """Candidate pairs -> (doc_id, survivor) per connected component: the
    dedup-resolution step after candidate generation (the survivor is the
    component-minimum id; every doc appearing in a pair gets a row).

    While the pairs fit ``BROADCAST_BYTES``
    (:func:`georay.partition.broadcast_or_none`) the whole edge table is
    already on the driver, so the components are computed there by
    :func:`fastsv_labels` over dense node indices (``np.unique`` keeps the
    id order, so the minimum index is the minimum id): no exchange, and
    O(log n) rounds whatever the id order.

    Past the budget: distributed min-label propagation with SHORTCUTTING.
    Per round:

    1. Delivery: union three message streams keyed by node — edge rows
       ``(key=u, dest=v)`` ("send u's label to v"), self rows
       ``(key=node, label=L)`` (the current label table), and shortcut
       rows ``(key=L[n], dest=n)`` ("send my label's label to me" — the
       pointer-doubling step: a chain whose ids increase along it
       converges in O(log diameter) rounds instead of one hop per
       round; on a path with unordered ids the minimum can still move
       about one hop per round — a 200-node path with random ids needs
       50–120 rounds).  Messages are hash-partitioned on ``key``
       (:func:`georay.partition.hash_partition`) and each partition runs
       ONE vectorized multi-node kernel (:func:`_deliver_labels`: lexsort,
       first-of-run minimum, searchsorted gather) — no per-node Python
       dispatch (the round-2 ``groupby(node).map_groups``
       paid ~0.5 ms per node per round).
    2. Reduce: a second hash partition, on ``node``, whose kernel
       (:func:`_min_label`) keeps each node's minimum offer with one
       Arrow group-by — again no per-group Python.

    Both shuffles move only (int64, int64) rows; per-round volume is
    constant (2|E| + 2|V| delivery rows).  Labels only originate from
    node ids inside the component (min over members seen so far), so the
    shortcut edges never cross components and the fixpoint is the exact
    component minimum.  Convergence is detected via the monotone
    non-increasing label sum over the deduped table.

    On either route, if ``max_iter`` rounds pass without a fixpoint the
    function RAISES a ``RuntimeError`` rather than returning non-minimal
    survivors.
    """
    import ray.data as _rd

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "survivor": pa.array([], pa.int64())}
    )
    pairs, pairs_ds = broadcast_or_none(pairs_ds)
    if pairs is not None:
        if pairs.num_rows == 0:
            return _rd.from_arrow(empty)
        a = pairs.column("doc_a").to_numpy()
        nodes, idx = np.unique(np.concatenate([a, pairs.column("doc_b").to_numpy()]), return_inverse=True)
        label = fastsv_labels(idx[: len(a)], idx[len(a):], len(nodes), max_iter)
        return _rd.from_arrow(pa.table({
            "doc_id": pa.array(nodes, pa.int64()),
            "survivor": pa.array(nodes[label], pa.int64()),
        }))
    if pairs_ds.count() == 0:
        return _rd.from_arrow(empty)
    if num_partitions is None:
        # pairs are materialized, so their row count is free
        num_partitions = partitions(pairs_ds)

    def both_dirs(b: pa.Table) -> pa.Table:
        da = b.column("doc_a").to_numpy()
        db = b.column("doc_b").to_numpy()
        return pa.table(
            {
                "u": pa.array(np.concatenate([da, db]), pa.int64()),
                "v": pa.array(np.concatenate([db, da]), pa.int64()),
            }
        )

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def edge_msgs(b: pa.Table) -> pa.Table:
        # "node v asks for u's label": key=u, dest=v, no label payload
        u = b.column("u").to_numpy()
        return pa.table(
            {
                "key": b.column("u"),
                "dest": b.column("v"),
                "label": pa.array(np.full(len(u), -1, np.int64), pa.int64()),
            }
        )

    def label_msgs(b: pa.Table) -> pa.Table:
        # current label table, keyed by node; plus the shortcut request
        # (key=label, dest=node) for every row whose label differs from
        # the node (pointer-doubling: node learns L[L[node]] next round)
        node = b.column("node").to_numpy()
        label = b.column("label").to_numpy()
        sc = label != node
        key = np.concatenate([node, label[sc]])
        dest = np.concatenate([np.full(len(node), -1, np.int64), node[sc]])
        lab = np.concatenate([label, np.full(int(sc.sum()), -1, np.int64)])
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "dest": pa.array(dest, pa.int64()),
                "label": pa.array(lab, pa.int64()),
            }
        )

    def init_labels(b: pa.Table) -> pa.Table:
        u = b.column("u").to_numpy()
        v = b.column("v").to_numpy()
        return pa.table(
            {"node": pa.array(u, pa.int64()),
             "label": pa.array(np.minimum(u, v), pa.int64())}
        )

    # one row per node, label = min over incident edges (saves a round)
    labels = hash_partition(
        edges.map_batches(init_labels, batch_format="pyarrow"), "node", _min_label, num_partitions
    ).materialize()
    prev = labels.sum("label")
    for _ in range(max_iter):
        msgs = edges.map_batches(edge_msgs, batch_format="pyarrow").union(
            labels.map_batches(label_msgs, batch_format="pyarrow")
        )
        offers = hash_partition(msgs, "key", _deliver_labels, num_partitions)
        labels = hash_partition(offers, "node", _min_label, num_partitions).materialize()
        # labels are per-node minima: the sum is monotone non-increasing
        # and equal sums mean every label is at its fixpoint
        cur = labels.sum("label")
        if cur == prev:
            break
        prev = cur
    else:
        raise _not_converged(max_iter)
    return labels.map_batches(
        lambda b: pa.table({"doc_id": b.column("node"), "survivor": b.column("label")}),
        batch_format="pyarrow",
    )


def _dup_ids(res: pa.Table) -> pa.Array:
    """Ids whose resolution row names a different survivor."""
    doc = res.column("doc_id")
    return doc.filter(pc.not_equal(doc, res.column("survivor"))).combine_chunks()


def apply_dedup(docs_ds, resolution_ds, id_col: str = "doc_id",
                num_partitions: int | None = None):
    """Corpus -> SURVIVORS only: drop every doc whose resolution row
    (:func:`connected_components` output) names a DIFFERENT survivor —
    the final step a training-data dedup actually ships.  Docs absent
    from the resolution table (never in any candidate pair) pass through
    untouched.

    The resolution table is 16 bytes per clustered doc.  While it fits
    ``BROADCAST_BYTES`` (:func:`georay.partition.broadcast_or_none`), the
    duplicate ids go out with one ``ray.put`` and the corpus
    streams read -> ``is_in`` anti-filter with no shuffle, so a write
    after it fuses into the same tasks.  Past the budget it is a LEFT
    ANTI join by one co-partitioned sort shuffle: the corpus and the
    resolution table are partitioned by id, and each partition drops the
    ids its resolution rows name as duplicates."""
    import ray

    res, resolution_ds = broadcast_or_none(resolution_ds)
    if (resolution_ds.count() if res is None else res.num_rows) == 0:
        return docs_ds  # nothing to drop: skip the corpus pass
    if res is not None:
        drop_dups = cached_map(IdFilter, ray.put(_dup_ids(res)), id_col=id_col, drop=True)
        return docs_ds.map_batches(drop_dups, batch_format="pyarrow")
    if num_partitions is None:
        # the LEFT ANTI join shuffles the whole corpus — size to its
        # row count (free plan metadata on a fresh read)
        num_partitions = partitions(docs_ds)

    def survivors(L: pa.Table, R: pa.Table) -> pa.Table:
        return L.filter(pc.invert(pc.is_in(L.column(id_col), value_set=_dup_ids(R))))

    return copartition(docs_ds, resolution_ds, id_col, "doc_id", survivors, num_partitions)


def cosine_pairs(vecs: np.ndarray, ids: np.ndarray, threshold: float) -> pa.Table:
    """Exact all-pairs cosine >= threshold within one bucket (or small side)."""
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    unit = vecs / norms[:, None]
    sim = unit @ unit.T
    ia, ib = np.nonzero(np.triu(sim >= threshold, k=1))
    return pa.table(
        {
            "vec_a": pa.array(ids[ia]),
            "vec_b": pa.array(ids[ib]),
            "cosine": pa.array(sim[ia, ib], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# cross-document duplicate spans (exact substring dedup at window level)
# ---------------------------------------------------------------------------

_SPAN_KEY = "georay-dupspan01"


def dup_span_partial(batch: pa.Table, w: int = 5, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Per-batch combine for duplicate-span detection: one
    (h, gram, doc_id, n_occ) row per distinct w-token window per document.

    Windows are the ' '-joined rolling w-grams of the whitespace tokens
    (the exact DuckDB mirror ``tk[i]||' '||...``); documents shorter than
    ``w`` tokens emit NOTHING (no raw-token fallback — a duplicate *span*
    needs a full window).  Grouping key is the 64-bit hash of the gram —
    at corpus scale the shuffle moves 8-byte keys plus one representative
    string per (window, doc), never positions; the ~1e-19 in-test hash
    collision rate is documented, not load-bearing (same contract as
    decontam matching).  Everything is one lexsort + difference masks; no
    per-document Python."""
    empty = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "gram": pa.array([], pa.string()),
            id_col: pa.array([], pa.int64()),
            "n_occ": pa.array([], pa.int64()),
        }
    )
    if batch.num_rows == 0:
        return empty
    text = batch.column(text_col).combine_chunks()
    ids = batch.column(id_col).to_numpy()
    tok_np, offsets = _tokens_nonempty(text)
    if len(tok_np) == 0:
        return empty
    grams, goffs = _shingle_strings(tok_np, offsets, w)
    m = np.diff(offsets)
    counts = np.diff(goffs)
    seg = np.repeat(np.arange(len(m), dtype=np.int64), counts)
    keep = (m >= w)[seg]  # drop the short-doc raw-token fallback segments
    grams = grams[keep]
    seg = seg[keep]
    if len(grams) == 0:
        return empty
    h = pd.util.hash_array(grams, hash_key=_SPAN_KEY).astype(np.uint64)
    doc = ids[seg]
    order = np.lexsort((doc, h))
    hs, dc, gs = h[order], doc[order], grams[order]
    first = np.ones(len(hs), bool)
    first[1:] = (hs[1:] != hs[:-1]) | (dc[1:] != dc[:-1])
    starts = np.nonzero(first)[0]
    n_occ = np.diff(np.append(starts, len(hs)))
    return pa.table(
        {
            "h": pa.array(hs[starts].view(np.int64), pa.int64()),
            "gram": pa.array(gs[starts], pa.string()),
            id_col: pa.array(dc[starts]),
            "n_occ": pa.array(n_occ.astype(np.int64), pa.int64()),
        }
    )


def dup_spans(docs_ds, w: int = 5, min_docs: int = 2, text_col: str = "text",
              id_col: str = "doc_id"):
    """Cross-document duplicate w-token windows (the window-granular form
    of exact-substring training-data dedup): every window appearing in at
    least ``min_docs`` DISTINCT documents, with its document count and
    total occurrence count.

    Shape: per-batch rows per (window, doc) (each document lives in one
    block) -> one ``keyed_agg`` on the window hash -> tiny vectorized
    filter.  Returns rows (gram, n_docs, n_occ)."""
    partials = docs_ds.map_batches(
        lambda b: dup_span_partial(b, w=w, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )
    agg = keyed_agg(partials, "h", {
        "n_docs": ("h", "count"),
        "n_occ": ("n_occ", "sum"),
        # all rows of a hash share one gram string (64-bit-hash groups);
        # max is just the cheapest way to carry it through the aggregate
        "gram": ("gram", "max"),
    })

    def finish(b: pa.Table) -> pa.Table:
        sel = pc.greater_equal(b.column("n_docs"), min_docs)
        out = b.filter(sel)
        return out.select(["gram", "n_docs", "n_occ"])

    return agg.map_batches(finish, batch_format="pyarrow")
