"""Deduplication kernels: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup (training-data pipeline extras).

Scale design (SURVEY.md §2.8):
- exact: hash text -> hash-partition groupby -> keep min id (no full-text
  shuffle; only 16-byte digests move).
- MinHash+LSH: per-batch signature computation is fully vectorized
  (token hash, each distinct token once -> shingle hash -> P
  universal-hash permutations with ``np.minimum.reduceat`` over the
  flattened token stream); banding emits
  (band, band_hash) keys, each band bucket expands its pairs, and each
  pair is kept once: on the driver while the banded rows fit
  ``BROADCAST_BYTES``, else one hash partition on (band, key) and one
  on (doc_a, doc_b).
- SimHash: 64-bit sign-aggregated token hashes; near-dup = hamming
  distance <= d via multi-index (4x16-bit block keys, exact check per
  bucket).
- embedding cosine: random-hyperplane LSH keys -> the same
  ``band_bucket_pairs`` with an exact-cosine verify per bucket;
  brute-force path for small sides.
- verification, resolution and application (candidate pairs -> texts or
  vectors, pairs -> components, survivors -> corpus) each take
  :func:`georay.partition.broadcast_or_none` on their small side (the
  pairs, the candidates' texts or vectors, the resolution table).  While
  it fits ``BROADCAST_BYTES`` it is broadcast with ``ray.put`` and the
  corpus streams through a plain map, or, when both sides are already
  driver tables, the step runs on the driver (components with
  :func:`georay.graph.fastsv_labels`, the Jaccard verify once the
  candidates' texts fit too).  A driver step returns its result through
  :func:`georay.partition.from_table`, so the next step's
  ``broadcast_or_none`` gets the table with no plan.  Past the budget
  the components run the same FastSV rounds on the BSP engine of
  :mod:`georay.graph` (resident actor partitions set up by one
  :func:`georay.partition.hash_partition`, exchanging per-node messages
  only), and the joins are a :func:`georay.partition.copartition`.
  Verification (two joins of the pairs with the texts) and application
  are :func:`georay.partition.keyed_join`, which makes that choice
  itself.  No step uses Ray's actor-based ``Dataset.join``.
- the corpus pass of a near-dup run (``python -m georay dedup``):
  :func:`candidate_pairs` gives the MinHash candidate pairs, and
  :func:`split_candidates` reads the corpus once more, writing every doc
  that no pair names straight to ``survivors/`` (it can never be
  dropped) through :class:`georay.sources.SplitSink` and handing back
  only the pairs' docs.  Verify, components
  and apply then run over those candidates alone, and their survivors
  are added to ``survivors/``.  :func:`near_dup_pairs` (the chain the
  query oracles check) narrows the corpus to the candidates with the
  split's join of the pairs' ids, so it verifies the same way.

All hashes are deterministic (fixed seeds) so runs are reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from georay.ann import _to_matrix
from georay.geom.polygon import _expand_ranges
from georay.graph import components, fastsv_labels
from georay.partition import (
    broadcast_or_none, fits_broadcast, from_table, hash_partition, keyed_join,
)
from georay.sources import SplitSink, filesystem, parquet_files, read_parquet_grouped, replace_dir
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


#: the whitespace of RE2's ``\s`` besides the space itself (``\v`` is
#: not in it)
_WHITESPACE = ("\t", "\n", "\f", "\r")


def _split_nonempty(text: pa.Array):
    r"""Whitespace split -> (flat Arrow token array, per-doc offsets) with
    empty tokens dropped (splitting '' — or padded text — yields empty
    tokens).  Null docs contribute zero tokens.

    The tokens are those of a split on the regex ``\s+``: every other
    whitespace character becomes a space, then a literal split on single
    spaces leaves an empty token for each extra separator, which the drop
    removes.  Literal passes cost a fraction of the RE2 split."""
    for c in _WHITESPACE:
        text = pc.replace_substring(text, c, " ")
    toks = pc.split_pattern(text, " ")
    flat = toks.flatten()
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat):
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        if not keep.all():
            kept_cum = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
            offsets = kept_cum[offsets]
            flat = flat.filter(pa.array(keep))
    return flat, offsets


def _tokens_nonempty(text: pa.Array):
    """:func:`_split_nonempty` with the tokens as a numpy object array."""
    flat, offsets = _split_nonempty(text)
    return flat.to_numpy(zero_copy_only=False), offsets


#: ``pd.util.hash_array``'s default key
_PANDAS_KEY = "0123456789123456"


def _token_hashes(text: pa.Array, *hash_keys: str):
    """Whitespace tokens (split as :func:`_tokens_nonempty` splits them)
    -> ([uint64 token hash per key in ``hash_keys``], per-doc offsets).

    Each distinct token is hashed once: the tokens are dictionary-encoded
    and only the vocabulary becomes Python strings (a few thousand
    distinct tokens against tens of thousands of tokens per file).
    ``pd.util.hash_array`` hashes each value on its own, so the result is
    bit-identical to hashing every token."""
    flat, offsets = _split_nonempty(text)
    if len(flat) == 0:
        return [np.empty(0, np.uint64) for _ in hash_keys], offsets
    enc = pc.dictionary_encode(flat)
    vocab = enc.dictionary.to_numpy(zero_copy_only=False)
    idx = enc.indices.to_numpy()
    return [pd.util.hash_array(vocab, hash_key=key, categorize=False)[idx] for key in hash_keys], offsets


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
    (th,), offsets = _token_hashes(text, _PANDAS_KEY)
    return _roll_shingles(th, offsets, k)


def _shingle_hashes2(text: pa.Array, k: int = 3):
    """Like :func:`_shingle_hashes` but with TWO independently-keyed
    streams (128-bit effective shingle identity): set operations on
    (h1, h2) pairs match exact string-shingle sets up to a ~2^-128
    collision probability — safe to stand in for string sets in
    oracle-checked integer-Jaccard comparisons."""
    (th1, th2), offsets = _token_hashes(text, _KEY_A, _KEY_B)
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
    """(n_docs, num_perm) uint64 MinHash signatures; empty docs get all-max.

    Each distinct token of the batch is hashed once (:func:`_token_hashes`)
    and each permutation is one branch-free pass over the shingle hashes."""
    sh, offsets = _shingle_hashes(text, k)
    n = len(offsets) - 1
    sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(sh) == 0:
        return sig
    a, b = _perm_params(num_perm)
    # The permutation loop is the minhash hot path: num_perm full passes
    # over every shingle hash.  All of it is BIT-EXACT vs the naive
    # `(a*sh + b) % MERSENNE_P` (the SQL oracle mirrors the wrapped
    # uint64 intermediate, so results must not change):
    #   * Mersenne fold instead of integer division — for x < 2^64 and
    #     P = 2^61-1, x = q*(P+1) + r gives x mod P = (q + r) mod P with
    #     q = x>>61 <= 7, so fold = r + q <= P + 7 and one subtract of P
    #     finishes the mod.  It is taken as min(fold, fold - P): when
    #     fold < P the subtraction wraps above fold, so the min keeps it;
    #   * preallocated out= buffers — zero allocations per permutation;
    #   * the non-empty docs' ``reduceat`` starts are computed once (see
    #     :func:`segment_reduce`), and each permutation's minima fill one
    #     row of a (num_perm, docs) array, transposed once at the end.
    nonempty = offsets[:-1] < offsets[1:]
    starts = offsets[:-1][nonempty]
    rows = np.empty((num_perm, len(starts)), np.uint64)
    tmp = np.empty_like(sh)
    fold = np.empty_like(sh)
    shift = np.uint64(61)
    for p in range(num_perm):
        np.multiply(sh, a[p], out=tmp)   # wraps mod 2^64
        np.add(tmp, b[p], out=tmp)
        np.bitwise_and(tmp, MERSENNE_P, out=fold)
        np.right_shift(tmp, shift, out=tmp)
        np.add(fold, tmp, out=fold)
        np.subtract(fold, MERSENNE_P, out=tmp)
        np.minimum(fold, tmp, out=fold)
        np.minimum.reduceat(fold, starts, out=rows[p])
    sig[nonempty] = rows.T
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
    The bucket step downstream (:func:`band_bucket_pairs`) moves 20 bytes
    per (doc, band) instead of the documents themselves.  A doc with a
    null id gets no rows: no pair can name it, so no dedup step drops it."""
    if batch.column(id_col).null_count:
        batch = batch.filter(pc.is_valid(batch.column(id_col)))
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


def pairwise(keep):
    """A :func:`band_bucket_pairs` ``verify`` from a per-pair test: every
    upper pair of each bucket, kept where ``keep(payload_a, payload_b)``
    gives True."""

    def verify(payload: np.ndarray, sizes: np.ndarray):
        a, b = _upper_pairs(sizes)
        m = keep(payload[a], payload[b])
        return a[m], b[m]

    return verify


def _bucket_pairs_kernel(id_col, max_bucket, payload_col, verify):
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
        heads = np.flatnonzero(new)  # each bucket's first row in band, key order
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
        if verify is None:
            a, b = _upper_pairs(sizes)
        else:
            # a numpy gather: Arrow's take on a list column costs more
            col = t.column(payload_col)
            payload = _to_matrix(col) if pa.types.is_list(col.type) else col.to_numpy()
            a, b = verify(payload[order], sizes)
        flag = truncated[bucket[a]]
        # a truncated bucket with no pair left still reports its loss: one
        # (-1 - band, key) marker row each, distinct per bucket on every
        # route, so the pair-distinct keeps them all
        emitted = np.zeros(len(sizes), bool)
        emitted[bucket[a]] = True
        lost = heads[truncated & ~emitted]
        return pa.table(
            [
                np.concatenate([ids[a], -1 - band[lost].astype(np.int64)]),
                np.concatenate([ids[b], key[lost].astype(np.int64)]),
                np.concatenate([flag, np.ones(len(lost), bool)]),
            ],
            schema=_PAIRS_SCHEMA,
        )

    return kernel


def _distinct_pairs(t: pa.Table) -> pa.Table:
    """(doc_a, doc_b, truncated) rows -> one row per distinct pair, flagged
    if any of its rows was."""
    g = t.group_by(["doc_a", "doc_b"]).aggregate([("truncated", "max")])
    return pa.table(
        [g.column("doc_a"), g.column("doc_b"), g.column("truncated_max")],
        schema=_PAIRS_SCHEMA,
    )


def band_bucket_pairs(
    banded_ds, id_col: str = "doc_id", max_bucket: int | None = 512,
    payload_col: str | None = None, verify=None,
):
    """(band, key, id[, payload]) rows -> distinct candidate pairs
    ``(doc_a, doc_b, truncated)`` with doc_a < doc_b, in two steps:

    1. per ``(band, key)`` bucket: lexsort the rows, de-duplicate ids per
       bucket, truncate, and expand every bucket's upper-triangle pairs
       (or the ones ``verify`` keeps);
    2. per ``(doc_a, doc_b)``: a pair that collides in several bands is
       kept once, flagged if any of its buckets was truncated.

    While the banded rows fit ``BROADCAST_BYTES``
    (:func:`georay.partition.broadcast_or_none`) both steps run on the
    driver's table as one partition: no exchange.  Past it each step is a
    :func:`georay.partition.hash_partition`, which sizes itself from the
    banded rows, so no task holds every bucket.

    Hot buckets (pathological all-identical shards) have one rule,
    TRUNCATE.  A bucket with more than ``max_bucket`` distinct ids keeps
    its ``max_bucket`` smallest ids, and every pair it emits is flagged
    ``truncated``.  A truncated bucket whose pairs were all rejected
    emits one marker row, ``(doc_a, doc_b) = (-1 - band, key)``: distinct
    per bucket, so the pair-distinct cannot collapse the count, and the
    same on both routes; consumers filter ``doc_a < 0``
    (:func:`real_pairs`).  Pass ``max_bucket=None`` to disable the
    cap.

    ``payload_col``/``verify``: a per-doc payload (the 64-bit simhash, an
    embedding) rides with the bucket rows, and ``verify(payload, sizes)
    -> (a, b)`` verifies candidate pairs INLINE at expansion: ``payload``
    holds the bucket-sorted, id-deduplicated, truncated rows (a list
    column as a float64 matrix), ``sizes`` the bucket lengths, and ``a <
    b`` are flat row indices of the pairs kept within each bucket
    (:func:`pairwise` turns a per-pair test into one).  Candidates never
    join back against the corpus, and only verified pairs leave the stage.
    """
    kernel = _bucket_pairs_kernel(id_col, max_bucket, payload_col, verify)
    table, banded_ds = broadcast_or_none(banded_ds)
    if table is not None:
        return from_table(_distinct_pairs(kernel(table)))
    pairs = hash_partition(banded_ds, ["band", "key"], kernel)
    return hash_partition(pairs, ["doc_a", "doc_b"], _distinct_pairs)


def _drop_markers(b: pa.Table) -> pa.Table:
    return b.filter(pc.greater_equal(b.column("doc_a"), 0)).select(["doc_a", "doc_b"])


def real_pairs(cand_ds):
    """:func:`band_bucket_pairs` rows -> ``(pairs_ds, n_truncated)``: the
    ``(doc_a, doc_b)`` pairs without marker rows, and the rows flagged
    truncated (nonzero whenever a bucket hit ``max_bucket``; then it logs
    one warning).  Arrow compute on the driver while the rows fit
    ``BROADCAST_BYTES`` (:func:`georay.partition.broadcast_or_none`);
    past it, one plan counts the flags and one map drops the markers."""
    empty = _PAIRS_SCHEMA.empty_table().select(["doc_a", "doc_b"])
    cand, cand_ds = broadcast_or_none(cand_ds)
    if cand is not None:
        if cand.num_rows == 0:
            return from_table(empty), 0
        n_truncated = pc.sum(cand.column("truncated").cast(pa.int64())).as_py()
        pairs = from_table(_drop_markers(cand))
    else:
        n_truncated = cand_ds.map_batches(
            lambda b: pa.table({"t": b.column("truncated").cast(pa.int64())}), batch_format="pyarrow",
        ).sum("t") or 0
        pairs = cand_ds.map_batches(_drop_markers, batch_format="pyarrow").materialize()
        # Ray skips a map on empty blocks, so no pair at all leaves no schema
        pairs = pairs if pairs.count() else from_table(empty)
    if n_truncated:
        import logging

        logging.getLogger("georay.dedup").warning(
            "%d candidate rows come from buckets truncated at max_bucket: pairs "
            "beyond the cap were not generated, so near-dup recall is partial "
            "for the oversized clusters; raise max_bucket for exact results",
            n_truncated,
        )
    return pairs, n_truncated


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

    ``hash_impl="fast"`` (default): pandas' vectorized C hash kernel over
    each distinct token (:func:`_token_hashes`).
    ``hash_impl="md5"``: DuckDB-mirrorable ``md5_number_lower`` token hash
    (vocabulary-bounded hashing of unique tokens) — the oracle-parity
    backend; the algorithm is hash-agnostic."""
    text = batch.column(text_col).combine_chunks()
    if hash_impl == "md5":
        tok_np, offsets = _tokens_nonempty(text)
        th = md5_u64(tok_np)
    else:
        (th,), offsets = _token_hashes(text, _PANDAS_KEY)
    n = len(text)
    sims = np.zeros(n, dtype=np.uint64)
    if len(th):
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
                  hash_impl: str = "fast", blocks: int = 6):
    """SimHash near-dup PAIRS via the permuted multi-index
    (:func:`simhash_index_keys`): docs sharing any table's block-subset
    key are candidates (recall 1 for hamming <= ``max_hamming`` by
    pigeonhole), verified INLINE by exact hamming distance — the 8-byte
    simhash rides the bucket rows as a ``band_bucket_pairs`` payload,
    so candidates never hash-join back against the corpus (the round-2
    shape paid two distributed joins here).  Candidate-pair expansion
    is ``band_bucket_pairs`` (on the driver while the banded rows fit
    ``BROADCAST_BYTES``, else two keyed exchanges sized by the data), and
    :func:`real_pairs` warns when a bucket was truncated, which voids the
    recall-1 guarantee.  ``blocks`` tunes the
    recall/volume trade-off: C(blocks, max_hamming) tables, key width
    ~``64 * (1 - max_hamming/blocks)`` bits (6/3 -> 20 tables, ~32-bit
    keys — bucket cardinality grows with the corpus instead of capping at
    2^16)."""
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

    pairs, _ = real_pairs(band_bucket_pairs(
        sims_slim.map_batches(banded, batch_format="pyarrow"),
        max_bucket=max_bucket,
        payload_col="sim",
        verify=pairwise(lambda sa, sb: hamming64(sa, sb) <= max_hamming),
    ))
    return pairs


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


def _cosine_verify(threshold: float):
    """A :func:`band_bucket_pairs` ``verify`` for embeddings: the pairs of
    each bucket whose exact cosine is at least ``threshold``, from one Gram
    matrix per bucket of two or more rows (rows normalized once)."""

    def verify(vecs: np.ndarray, sizes: np.ndarray):
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        unit = vecs / norms[:, None]
        starts = np.cumsum(sizes) - sizes
        out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for s, n in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            u = unit[s : s + n]
            ia, ib = np.nonzero(u @ u.T >= threshold)
            upper = ia < ib
            out_a.append(ia[upper] + s)
            out_b.append(ib[upper] + s)
        return np.concatenate(out_a), np.concatenate(out_b)

    return verify


def embed_lsh_pairs(ds, threshold: float = 0.9, n_tables: int = 8, n_planes: int = 12,
                    vec_col: str = "embedding", id_col: str = "vec_id", max_bucket: int = 512):
    """Distributed LSH-bucketed near-dup pipeline (the scale path)
    -> verified ``(vec_a, vec_b)`` pairs.

    BUCKET-LOCAL verification: the vector rides each of its ``n_tables``
    (band, key) rows through :func:`band_bucket_pairs` as its payload,
    each bucket verifies its own pairs with exact cosine
    (:func:`_cosine_verify`), and only VERIFIED pairs leave the bucket
    (near-dup workloads emit orders of magnitude fewer verified pairs
    than candidates, so nothing quadratic ever moves).  The buckets are
    paired on the driver while the banded rows fit ``BROADCAST_BYTES``,
    else by two keyed exchanges; a bucket past ``max_bucket`` unique
    vectors keeps its ``max_bucket`` smallest ids, and :func:`real_pairs`
    warns.

    Recall < 1 by construction (tested against the brute kernel);
    precision = 1 because of the exact verification step.
    """

    def keys_batch(batch: pa.Table) -> pa.Table:
        col = batch.column(vec_col)
        vecs = _to_matrix(col)
        ids = batch.column(id_col).to_numpy()
        keys = [hyperplane_keys(vecs, n_planes=n_planes, seed=11 + t) for t in range(n_tables)]
        return pa.table({
            "band": pa.array(np.repeat(np.arange(n_tables, dtype=np.int32), len(ids))),
            "key": pa.array(np.concatenate(keys).astype(np.int64)),
            "doc_id": pa.array(np.tile(ids, n_tables)),
            "vec": pa.chunked_array(col.chunks * n_tables, col.type),
        })

    pairs, _ = real_pairs(band_bucket_pairs(
        ds.map_batches(keys_batch, batch_format="pyarrow"),
        max_bucket=max_bucket,
        payload_col="vec",
        verify=_cosine_verify(threshold),
    ))
    return pairs.rename_columns({"doc_a": "vec_a", "doc_b": "vec_b"})


def _attach_side(L: pa.Table, on: str, R: pa.Table, id_col: str, col: str) -> pa.Table:
    """Inner join of the pairs ``L`` and ``R`` on ``L[on] == R[id_col]``
    (``on`` is ``doc_a`` or ``doc_b``): ``L``'s columns plus ``R[col]`` as
    ``side_a`` or ``side_b``.  Rows are matched on indices, so ``col`` may
    be any type (Arrow's hash join rejects list payloads)."""
    li = pa.table({"k": L.column(on), "li": np.arange(L.num_rows)})
    ri = pa.table({"k": R.column(id_col), "ri": np.arange(R.num_rows)})
    m = li.join(ri, "k")
    return L.take(m.column("li")).append_column("side_" + on[-1], R.column(col).take(m.column("ri")))


def _pair_ids(pairs: pa.Table) -> pa.Array:
    """Each id of ``pairs``' ``doc_a`` and ``doc_b`` once."""
    a, b = pairs.column("doc_a"), pairs.column("doc_b")
    return pc.unique(pa.chunked_array(a.chunks + b.chunks, a.type))


def jaccard_verify_pairs(pairs_ds, docs_ds, k: int = 3, threshold_num: int = 1,
                         threshold_den: int = 2, id_col: str = "doc_id",
                         text_col: str = "text"):
    """Exact k-shingle Jaccard verification of candidate pairs: keep
    (doc_a, doc_b) iff ``|Sa ∩ Sb| * den >= |Sa ∪ Sb| * num`` — i.e.
    J >= num/den decided in INTEGER arithmetic (float-free, so a DuckDB
    mirror computes the identical predicate).  Docs shorter than k tokens
    use their raw token set; two empty shingle sets count as a match
    (J := 1, reference semantics of :func:`jaccard_ngrams`).

    Scoring is fully vectorized and works on each distinct document of a
    block of pairs once: each distinct text of ``side_a ‖ side_b`` is
    shingle-hashed once by the batched rolling-hash kernel
    (:func:`_shingle_hashes2`, 128-bit shingle identity so hash
    collisions are ~2^-128 — decision-identical to string sets), each
    text's shingle set is one :func:`_segment_unique2`, and each distinct
    shingle of the block gets a dense id.  Texts are keyed by value, not
    by id, so a ``doc_id`` that two corpus rows share gives one verdict
    per attached row, each on that row's own texts.  A pair's intersection
    is the count of equal ``pair * V + shingle id`` keys over both sides'
    sets, found by one sort.  No per-pair Python loop.

    ``docs_ds`` holds the pairs' docs, the candidates
    (:func:`split_candidates`' result, or :func:`near_dup_pairs`'
    narrowed corpus): every row is carried to the joins, and a row no
    pair names is dropped there, so a whole corpus would be sized and
    broadcast or co-partitioned as the texts.  Texts reach the pairs by
    two :func:`georay.partition.keyed_join` of the pairs with
    ``docs_ds``: the first attaches ``doc_a``'s text, the second
    ``doc_b``'s and runs ``keep``.  Each join picks its own route against
    ``BROADCAST_BYTES``: on the driver when the pairs and the texts are
    both driver tables, the pairs streaming past the broadcast texts
    when only the texts fit, else a co-partition.  ``docs_ds`` is sized
    once, here, and both joins take the sized Dataset.
    """
    empty = pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})

    def keep(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n == 0:
            return empty
        da = b.column("doc_a").to_numpy()
        db = b.column("doc_b").to_numpy()
        # each distinct text once (a null is one more value): every row is
        # scored on its own two texts, whatever its ids
        sides = pa.chunked_array(b.column("side_a").chunks + b.column("side_b").chunks)
        enc = pc.dictionary_encode(sides.combine_chunks(), null_encoding="encode")
        doc, nd = enc.indices.to_numpy().astype(np.int64), len(enc.dictionary)
        h1, h2, off = _shingle_hashes2(enc.dictionary, k)
        u1, u2, useg = _segment_unique2(h1, h2, np.repeat(np.arange(nd), np.diff(off)))
        cnt = np.bincount(useg, minlength=nd)
        # a dense id per distinct (h1, h2) of the block
        order = np.lexsort((u2, u1))
        new = np.ones(len(order), bool)
        new[1:] = (u1[order][1:] != u1[order][:-1]) | (u2[order][1:] != u2[order][:-1])
        sid = np.empty(len(order), np.int64)
        sid[order] = np.cumsum(new) - 1
        v = max(int(new.sum()), 1)
        # each pair's two sets as keys pair * V + id: ids are unique within
        # a set, so a key seen twice is in both sets of its pair
        starts = np.zeros(nd, np.int64)
        np.cumsum(cnt[:-1], out=starts[1:])
        ia, ib = doc[:n], doc[n:]
        pair = np.arange(n, dtype=np.int64)
        keys = np.concatenate([
            np.repeat(pair * v, cnt[ia]) + sid[_gather_segments(cnt[ia], starts[ia])],
            np.repeat(pair * v, cnt[ib]) + sid[_gather_segments(cnt[ib], starts[ib])],
        ])
        keys.sort()
        inter = np.bincount(keys[1:][keys[1:] == keys[:-1]] // v, minlength=n)
        union = cnt[ia] + cnt[ib] - inter
        # union == 0 (both sets empty) -> 0 >= 0 -> match (J := 1)
        ok = inter * threshold_den >= union * threshold_num
        return pa.table({"doc_a": pa.array(da[ok]), "doc_b": pa.array(db[ok])})

    pairs, pairs_ds = broadcast_or_none(pairs_ds)
    if (pairs_ds.count() if pairs is None else pairs.num_rows) == 0:
        return from_table(empty)
    # sized once: keyed_join does not hand back the side it materialized
    _, docs_ds = broadcast_or_none(docs_ds)

    def attach_a(L: pa.Table, R: pa.Table) -> pa.Table:
        return _attach_side(L, "doc_a", R, id_col, text_col)

    def attach_b_keep(L: pa.Table, R: pa.Table) -> pa.Table:
        return keep(_attach_side(L, "doc_b", R, id_col, text_col))

    with_a = keyed_join(pairs_ds, docs_ds, "doc_a", id_col, attach_a)
    return keyed_join(with_a, docs_ds, "doc_b", id_col, attach_b_keep)


def candidate_pairs(docs_ds):
    """The MinHash candidates: ``(doc_id, text)`` rows -> ``(pairs,
    n_truncated)``.  :func:`minhash_band_batch` bands, one
    :func:`band_bucket_pairs` pairs the buckets, and :func:`real_pairs`
    drops the marker rows and counts the rows of truncated buckets."""
    banded = docs_ds.map_batches(minhash_band_batch, batch_format="pyarrow")
    return real_pairs(band_bucket_pairs(banded))


def near_dup_pairs(docs_ds, threshold_num: int = 1, threshold_den: int = 2):
    """The MinHash near-dup chain: ``(doc_id, text)`` rows ->
    ``(verified, n_truncated)``: :func:`candidate_pairs`, then the
    corpus narrowed to the docs a pair names by the same
    :func:`_join_pair_ids` as :func:`split_candidates`' (a filter where
    the split tags), and :func:`jaccard_verify_pairs` of the pairs with
    those candidates keeps the ``(doc_a, doc_b)`` pairs with 3-shingle
    Jaccard >= ``threshold_num / threshold_den``.  So verify takes the
    candidates alone here as it does in ``python -m georay dedup``."""
    pairs, n_truncated = candidate_pairs(docs_ds)
    cands = _join_pair_ids(docs_ds, pairs, "doc_id", lambda docs, hit: docs.filter(hit))
    verified = jaccard_verify_pairs(
        pairs, cands, k=3, threshold_num=threshold_num, threshold_den=threshold_den,
    )
    return verified, n_truncated


def _join_pair_ids(docs_ds, pairs_ds, id_col: str, use):
    """:func:`georay.partition.keyed_join` of the corpus ``docs_ds`` with
    each id of the pairs ``pairs_ds`` once (the candidates' ids; one
    driver table while the pairs fit ``BROADCAST_BYTES``, else a map over
    the pairs): ``use(L, hit)`` runs on each slice ``L`` of the docs,
    where ``hit`` marks the docs a pair names."""
    pairs, pairs_ds = broadcast_or_none(pairs_ds)
    if pairs is not None:
        ids = from_table(pa.table({id_col: _pair_ids(pairs)}))
    else:
        ids = pairs_ds.map_batches(lambda b: pa.table({id_col: _pair_ids(b)}), batch_format="pyarrow")

    def kernel(L: pa.Table, R: pa.Table) -> pa.Table:
        return use(L, pc.is_in(L.column(id_col), value_set=R.column(id_col).combine_chunks()))

    return keyed_join(docs_ds, ids, id_col, id_col, kernel)


#: the column :func:`split_candidates` tags each doc with
_CANDIDATE = "_candidate"


def _split_route(docs: pa.Table):
    """:func:`split_candidates`' :class:`~georay.sources.SplitSink` route:
    the docs tagged ``_candidate`` go to ``_candidates``, the others to
    ``survivors``, untagged."""
    flag = docs.column(_CANDIDATE)
    docs = docs.drop_columns([_CANDIDATE])
    yield "survivors", docs.filter(pc.invert(flag))
    yield "_candidates", docs.filter(flag)


def split_candidates(docs_ds, pairs_ds, out_dir: str, id_col: str = "doc_id"):
    """One pass over the corpus ``docs_ds`` that writes every doc no
    candidate pair names to ``out_dir/survivors/`` and returns the others,
    the candidates, as a Dataset.  A doc in no pair can never be dropped,
    so verify, components and apply only need the candidates: the
    small-build-side semi-join of *To Partition, or Not to Partition*
    (SIGMOD 2021).

    The pairs' ids tag each doc through :func:`_join_pair_ids`, the
    :func:`georay.partition.keyed_join` that :func:`near_dup_pairs`
    filters with (broadcast while the ids fit ``BROADCAST_BYTES``, else
    one co-partition of the corpus with them), and a
    :class:`georay.sources.SplitSink` writes the tagged rows
    (:func:`_split_route`), the survivors to ``survivors/`` and the
    candidates to ``_candidates/``.  It replaces ``survivors/``,
    ``_candidates/`` and ``resolution/`` first.  The candidates come back
    as a :func:`georay.partition.from_table` Dataset of the
    ``_candidates/`` files, read with pyarrow on the driver, while their
    Arrow bytes fit the budget (a typed empty table when there are
    none), else as a read of ``_candidates/`` by the one read rule
    (:func:`georay.sources.read_parquet_grouped`), which the caller
    deletes once it is done with them."""
    # a run that fails later leaves no stale resolution beside partial
    # survivors
    replace_dir(f"{out_dir}/resolution")
    sink = SplitSink(out_dir, _split_route, ("survivors", "_candidates"))
    _join_pair_ids(
        docs_ds, pairs_ds, id_col, lambda docs, hit: docs.append_column(_CANDIDATE, hit),
    ).write_datasink(sink)
    cands = sink.counts["_candidates"]
    if not fits_broadcast(cands["nbytes"]):
        ds = read_parquet_grouped(f"{out_dir}/_candidates")
        ds.context.target_max_block_size = docs_ds.context.target_max_block_size
        return ds
    if not cands["rows"]:
        schema = sink.schemas.get("_candidates")
        return from_table(schema.empty_table() if schema is not None else pa.table({}))
    fs, _ = filesystem(out_dir)
    files = parquet_files(f"{out_dir}/_candidates")
    return from_table(pa.concat_tables(pq.read_table(f, filesystem=fs) for f in files))


def connected_components(pairs_ds, max_iter: int = 32):
    """Candidate pairs -> (doc_id, survivor) per connected component: the
    dedup-resolution step after candidate generation (the survivor is the
    component-minimum id; every doc appearing in a pair gets a row).

    While the pairs fit ``BROADCAST_BYTES``
    (:func:`georay.partition.broadcast_or_none`) the whole edge table is
    already on the driver, so the components are computed there by
    :func:`georay.graph.fastsv_labels` over dense node indices
    (``np.unique`` keeps the id order, so the minimum index is the
    minimum id): no exchange.  Past the budget the same FastSV rounds
    run on the BSP engine over both-direction edges
    (:func:`georay.graph.components`): one ``hash_partition`` sets up
    resident actor partitions, and each round exchanges per-node
    messages only.  Both routes take O(log n) rounds whatever the id
    order, return the same labels in the same number of rounds, and
    RAISE a ``RuntimeError`` if ``max_iter`` rounds pass without the
    fixpoint rather than return non-minimal survivors.
    """
    pairs, pairs_ds = broadcast_or_none(pairs_ds)
    if pairs is None:
        def both_dirs(b: pa.Table) -> pa.Table:
            da, db = b.column("doc_a").to_numpy(), b.column("doc_b").to_numpy()
            return pa.table({"src": np.concatenate([da, db]), "dst": np.concatenate([db, da])})

        edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow")
        return components(edges, max_iter).rename_columns({"node": "doc_id", "label": "survivor"})
    if pairs.num_rows == 0:
        return from_table(pa.table(
            {"doc_id": pa.array([], pa.int64()), "survivor": pa.array([], pa.int64())}
        ))
    a = pairs.column("doc_a").to_numpy()
    nodes, idx = np.unique(np.concatenate([a, pairs.column("doc_b").to_numpy()]), return_inverse=True)
    label = fastsv_labels(idx[: len(a)], idx[len(a):], len(nodes), max_iter)
    return from_table(pa.table({
        "doc_id": pa.array(nodes, pa.int64()),
        "survivor": pa.array(nodes[label], pa.int64()),
    }))


def _dup_ids(res: pa.Table) -> pa.Array:
    """Ids whose resolution row names a different survivor."""
    doc = res.column("doc_id")
    return doc.filter(pc.not_equal(doc, res.column("survivor"))).combine_chunks()


def apply_dedup(docs_ds, resolution_ds, id_col: str = "doc_id"):
    """Corpus -> SURVIVORS only: drop every doc whose resolution row
    (:func:`connected_components` output) names a DIFFERENT survivor —
    the final step a training-data dedup actually ships.  Docs absent
    from the resolution table (never in any candidate pair) pass through
    untouched.

    A LEFT ANTI join by :func:`georay.partition.keyed_join`: the
    resolution table is 16 bytes per clustered doc, so while it fits
    ``BROADCAST_BYTES`` the docs stream read -> anti-filter with no
    shuffle and a write after it fuses into the same tasks, or, when the
    docs are a driver table too (:func:`split_candidates`' candidates),
    the filter runs on the driver; past the budget the docs and the
    resolution are co-partitioned by id.  An empty resolution gives
    ``docs_ds`` back.  A resolution that :func:`connected_components`
    made on the driver reaches the join as its table, with no plan."""
    res, resolution_ds = broadcast_or_none(resolution_ds)
    if (resolution_ds.count() if res is None else res.num_rows) == 0:
        return docs_ds

    def survivors(L: pa.Table, R: pa.Table) -> pa.Table:
        return L.filter(pc.invert(pc.is_in(L.column(id_col), value_set=_dup_ids(R))))

    return keyed_join(docs_ds, resolution_ds, id_col, "doc_id", survivors)


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
