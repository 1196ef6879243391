"""Text-analysis kernels for training-data pipelines (SURVEY-mandated
large-scale extras): token counting, quality metrics, language ID,
document fingerprinting.

All kernels are vectorized (pyarrow C++ regex / numpy); per-document
Python loops appear only where variable-length token structure forces
them, and then only over flattened arrays with ``reduceat``-style
offsets.  Counting kernels have exact DuckDB mirrors (documented inline)
so they are oracle-checkable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from georay.partition import hash_partition
from georay.stages.aggregate import blocks, driver_merge

#: token = maximal run of non-whitespace; SQL mirror:
#:   length(regexp_extract_all(text, '\S+'))
TOKEN_RE = r"\S+"
#: BPE-ish subword splitter: runs of letters, digits, or single punctuation
#: (a deterministic approximation of byte-pair pretokenization); SQL mirror
#: uses the identical RE2 pattern.
BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
PUNCT_RE = r"[.,;:!?]"
STOPWORDS = (
    "the a an and or of to in is are was were for on with as at by it this that".split()
)
STOPWORD_RE = r"\b(" + "|".join(STOPWORDS) + r")\b"


def token_counts(text: pa.Array) -> dict[str, np.ndarray]:
    """Counting kernels, each with an exact SQL mirror:

    n_chars   = length(text)
    n_tokens  = length(regexp_extract_all(text, '\\S+'))
    n_bpe     = length(regexp_extract_all(text, BPE_RE))
    n_punct   = length(regexp_extract_all(text, '[.,;:!?]'))
    n_stop    = length(regexp_extract_all(lower(text), STOPWORD_RE))
    """
    def _count(arr) -> np.ndarray:
        # null text -> 0, not NaN-cast-to-INT64_MIN garbage
        return arr.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)

    return {
        "n_chars": _count(pc.utf8_length(text)),
        "n_tokens": _count(pc.count_substring_regex(text, TOKEN_RE)),
        "n_bpe": _count(pc.count_substring_regex(text, BPE_RE)),
        "n_punct": _count(pc.count_substring_regex(text, PUNCT_RE)),
        "n_stop": _count(pc.count_substring_regex(pc.utf8_lower(text), STOPWORD_RE)),
    }


def quality_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-document quality metrics as integer counts (exact, oracle-safe)
    plus a fixed-point quality score in basis points.

    score_bp = floor(10000 * (0.4*stop_ratio + 0.3*min(1, n_tokens/100)
                              + 0.3*(1 - punct_ratio)) + 0.5)
    (floor(x+0.5) rather than round(): numpy rounds half-to-even, SQL
    half-away — floor(+0.5) is identical on both sides.)
    """
    text = batch.column(text_col).combine_chunks()
    c = token_counts(text)
    nt = np.maximum(1, c["n_tokens"])
    stop_ratio = c["n_stop"] / nt
    punct_ratio = np.minimum(1.0, c["n_punct"] / nt)
    score = 0.4 * stop_ratio + 0.3 * np.minimum(1.0, c["n_tokens"] / 100.0) + 0.3 * (1.0 - punct_ratio)
    out = {id_col: batch.column(id_col)}
    for k, v in c.items():
        out[k] = pa.array(v, pa.int64())
    out["quality_bp"] = pa.array(np.floor(score * 10000 + 0.5).astype(np.int64), pa.int64())
    return pa.table(out)


# ---------------------------------------------------------------------------
# language identification (n-gram / stopword heuristic)
# ---------------------------------------------------------------------------

#: tiny per-language stopword profiles (top function words); public knowledge
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "was", "for"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "mit", "ein", "ich", "zu"},
    "fr": {"le", "la", "les", "et", "des", "est", "un", "une", "que", "dans"},
    "es": {"el", "la", "los", "y", "de", "que", "es", "un", "una", "por"},
}


def detect_language(text: pa.Array) -> np.ndarray:
    """Heuristic language ID: CJK codepoint share -> 'zh'; otherwise the
    language whose stopword profile matches the most tokens; 'und' when
    nothing matches.  Vectorized via one lowercase tokenization pass."""
    n = len(text)
    # CJK detection: any CJK-unified char
    cjk = pc.count_substring_regex(text, r"[一-鿿]").to_numpy(zero_copy_only=False)
    toks = pc.split_pattern_regex(pc.utf8_lower(text), r"\W+")
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    from georay.dedup import segment_reduce

    scores = np.zeros((n, len(_LANG_PROFILES)), dtype=np.int32)
    langs = list(_LANG_PROFILES)
    for li, lang in enumerate(langs):
        prof = sorted(_LANG_PROFILES[lang])
        if len(flat):
            hits = np.isin(flat, prof).astype(np.int32)
            scores[:, li] = segment_reduce(np.add, hits, offsets, 0)
    best = np.argmax(scores, axis=1)
    best_score = scores[np.arange(n), best]
    out = np.asarray([langs[b] for b in best], dtype=object)
    out[best_score == 0] = "und"
    out[cjk > 0] = "zh"
    return out


def langid_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    pred = detect_language(batch.column(text_col).combine_chunks())
    return pa.table({id_col: batch.column(id_col), "lang_pred": pa.array(pred, pa.string())})


# ---------------------------------------------------------------------------
# document fingerprinting (winnowing over a rolling token-hash window)
# ---------------------------------------------------------------------------

def fingerprint_batch(
    batch: pa.Table, window: int = 4, text_col: str = "text", id_col: str = "doc_id",
    hash_impl: str = "fast",
) -> pa.Table:
    """Winnowing fingerprint (Schleimer et al. 2003, SIGMOD — public
    algorithm): rolling 3-token shingle hashes, minimum per sliding
    window, deduplicated; emitted as a per-doc fingerprint count +
    xor-combined digest.  Fully vectorized (shared shingle/winnow kernels
    in :mod:`georay.dedup` — no per-document Python loop).

    ``hash_impl="fast"`` (default): pandas' C hash of tokens + rolling
    arithmetic combine.  ``hash_impl="md5"``: shingle STRINGS hashed with
    the DuckDB-mirrorable ``md5_number_lower`` (vocabulary-bounded unique
    hashing) — the oracle-parity backend; the winnowing algorithm is
    hash-agnostic."""
    from georay.dedup import (
        _shingle_hashes,
        _shingle_strings,
        _tokens_nonempty,
        md5_u64,
        winnow_minima,
    )

    text = batch.column(text_col).combine_chunks()
    if hash_impl == "md5":
        tok_np, offsets = _tokens_nonempty(text)
        sh_strings, sh_offsets = _shingle_strings(tok_np, offsets, k=3)
        sh = md5_u64(sh_strings)
    else:
        sh, sh_offsets = _shingle_hashes(text, k=3)
    counts, digests = winnow_minima(sh, sh_offsets, window)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "fp_count": pa.array(counts, pa.int64()),
            "fp_digest": pa.array(digests.astype(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# text normalization (NFC + lower + whitespace collapse)
# ---------------------------------------------------------------------------

def normalize_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Canonical text normalization for training corpora: Unicode NFC,
    full lowercasing, internal whitespace collapsed to single spaces,
    leading/trailing SPACES trimmed.  All vectorized kernels — polars'
    Rust normalizer for the NFC step (pyarrow 16's ``utf8_normalize``
    emits DECOMPOSED output even with ``form="NFC"`` — NFC input
    ``0xe9`` comes back as ``0x65 0x301`` — so it cannot match any
    composing engine byte for byte), then pyarrow utf8proc lower + RE2
    collapse + trim.  No Python per row; the polars round-trip is
    zero-copy in both directions for large-string Arrow columns.

    Exact SQL mirror (DuckDB composes NFC and shares RE2 semantics):
        trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'), ' ')

    The trim step removes ' ' only (not arbitrary Unicode whitespace):
    the RE2 collapse has already mapped every whitespace run — including
    leading/trailing — to a single ASCII space, so trimming ' ' is
    complete, and both engines agree on it byte for byte.
    """
    import polars as pl

    text = batch.column(text_col).combine_chunks()
    norm = pl.from_arrow(text).str.normalize("NFC").to_arrow().cast(pa.string())
    norm = pc.utf8_lower(norm)
    norm = pc.replace_substring_regex(norm, r"\s+", " ")
    norm = pc.utf8_trim(norm, characters=" ")
    return pa.table(
        {
            id_col: batch.column(id_col),
            "norm_text": norm,
            "n_norm_chars": pc.utf8_length(norm).cast(pa.int64()),
            "changed": pc.not_equal(norm, text),
        }
    )


# ---------------------------------------------------------------------------
# corpus n-gram counting (global heavy hitters)
# ---------------------------------------------------------------------------

def ngram_count_batch(batch: pa.Table, k: int = 3, text_col: str = "text") -> pa.Table:
    """map_batches kernel: documents -> per-BLOCK (ngram, cnt) partial
    counts.  Word k-grams via the shared vectorized shingle kernels
    (georay.dedup): docs with >= k tokens emit their m-k+1 rolling
    k-grams (occurrences, NOT per-doc distinct), shorter non-empty docs
    fall back to their raw tokens — the same layout the MinHash oracle
    already mirrors in SQL.  The in-block group_by is the combiner that
    makes the downstream global groupby tractable: the shuffle moves
    (distinct-ngram-per-block, count) rows, never one row per token.
    """
    from georay.dedup import _shingle_strings, _tokens_nonempty

    text = batch.column(text_col).combine_chunks()
    tok_np, offsets = _tokens_nonempty(text)
    grams, _ = _shingle_strings(tok_np, offsets, k)
    if len(grams) == 0:
        return pa.table(
            {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
    tbl = pa.table({"ngram": pa.array(grams, pa.string())})
    agg = tbl.group_by("ngram").aggregate([([], "count_all")])
    return pa.table(
        {
            "ngram": agg.column("ngram"),
            "cnt": agg.column("count_all").cast(pa.int64()),
        }
    )


def top_ngrams(docs_ds, k: int = 3, top: int = 20):
    """Global top-``top`` word ``k``-grams by occurrence count, as a
    one-block Dataset in rank order; it is computed when this is called.

    Scale shape: in-block combiner (``ngram_count_batch``) -> ONE hash
    partition on the ngram (:func:`georay.partition.hash_partition`)
    with the final aggregate AND the top-k prune fused in the partition
    kernel (an ngram's partials all hash to the same partition, so
    partition-local sum + top-k is EXACT) -> the driver merges the
    <= top rows per partition into the global top
    (``stages.aggregate.driver_merge``).  The exchange sorts small int32
    partition ids instead of the full distinct-ngram string table, and
    no second shuffle round exists.  Ties break lexicographically so the
    result is deterministic and oracle-comparable.
    """
    import ray.data

    def topk(t: pa.Table) -> pa.Table:
        return t.sort_by([("cnt", "descending"), ("ngram", "ascending")]).slice(0, top)

    def partition_topk(g: pa.Table) -> pa.Table:
        agg = g.group_by("ngram").aggregate([("cnt", "sum")])
        return topk(pa.table({"ngram": agg.column("ngram"), "cnt": agg.column("cnt_sum")}))

    counts = hash_partition(
        docs_ds.map_batches(lambda b: ngram_count_batch(b, k=k), batch_format="pyarrow"),
        "ngram", partition_topk,
    )
    empty = pa.table({"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
    return ray.data.from_arrow(driver_merge(blocks(counts), topk, empty))


# ---------------------------------------------------------------------------
# PII-style pattern redaction
# ---------------------------------------------------------------------------

#: applied IN ORDER — URLs first (they can contain '@' and digit runs),
#: then emails, then long digit runs.  Each pattern is counted on the
#: string state it actually sees, so counts and replacements compose
#: deterministically and the SQL mirror (same RE2 patterns, same order)
#: matches byte for byte.
REDACT_RULES: tuple[tuple[str, str, str], ...] = (
    ("n_url", r"https?://\S+", "<URL>"),
    ("n_email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("n_num", r"[0-9]{6,}", "<NUM>"),
)


def redact_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Redact URL / email / long-digit-run spans, keeping per-type match
    counts — the standard pre-training scrub pass.  Entirely pyarrow C++
    RE2 kernels (count + replace per rule); no Python per row.

    Exact SQL mirror (DuckDB is RE2 too — identical leftmost-longest,
    non-overlapping match semantics), one CTE per rule:

        len(regexp_extract_all(t, pat))            -- the count
        regexp_replace(t, pat, repl, 'g')          -- the rewrite
    """
    orig = batch.column(text_col).combine_chunks()
    cur = orig
    counts = {}
    for name, pat, repl in REDACT_RULES:
        counts[name] = pc.count_substring_regex(cur, pat).cast(pa.int64())
        cur = pc.replace_substring_regex(cur, pat, repl)
    cols = {id_col: batch.column(id_col), "red_text": cur}
    cols.update(counts)
    cols["changed"] = pc.not_equal(cur, orig)
    return pa.table(cols)


# ---------------------------------------------------------------------------
# word-repetition quality stats (Gopher-style repetition filters)
# ---------------------------------------------------------------------------

def repetition_stats_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Per-document word-repetition statistics — the core signals behind
    Gopher/MassiveText-style repetition filters — as EXACT integers (no
    float column, so oracle hash parity is trivial):

    n_words        total whitespace tokens (empty tokens dropped)
    n_unique       distinct tokens
    top_word_cnt   multiplicity of the most repeated token
    top_bigram_cnt multiplicity of the most repeated word bigram
                   (0 when the document has < 2 tokens)
    n_token_chars  sum of token lengths (mean word length = /n_words)
    keep           5*top_word_cnt <= n_words AND 2*n_unique >= n_words
                   (pure integer comparisons — the repetition filter
                   verdict itself, float-free)

    Vectorized: ONE whitespace split per batch, shared with the shingle
    kernels; multiplicities via pandas' C groupby over (doc, token) /
    (doc, bigram) pairs — no per-document Python loop.
    """
    from georay.dedup import _shingle_strings, _tokens_nonempty

    text = batch.column(text_col).combine_chunks()
    n = len(text)
    tok_np, offsets = _tokens_nonempty(text)
    n_words = np.diff(offsets).astype(np.int64)

    def _top_counts(values: np.ndarray, offs: np.ndarray):
        """(flat values, per-doc offsets) -> per-doc (max multiplicity,
        distinct count) via one C groupby."""
        m = np.diff(offs).astype(np.int64)
        top = np.zeros(n, np.int64)
        uniq = np.zeros(n, np.int64)
        if len(values) == 0:
            return top, uniq
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), m)
        g = (
            pd.DataFrame({"d": doc_idx, "v": values})
            .groupby(["d", "v"], sort=False)
            .size()
            .reset_index(name="c")
        )
        per_doc = g.groupby("d", sort=False)["c"].agg(["max", "size"])
        top[per_doc.index.to_numpy()] = per_doc["max"].to_numpy()
        uniq[per_doc.index.to_numpy()] = per_doc["size"].to_numpy()
        return top, uniq

    top_word, n_unique = _top_counts(tok_np, offsets)

    # strict bigrams only: suppress _shingle_strings' <k raw-token
    # fallback by zeroing docs with < 2 tokens afterwards
    grams, goffs = _shingle_strings(tok_np, offsets, 2)
    top_bigram, _ = _top_counts(grams, goffs)
    top_bigram[n_words < 2] = 0

    if len(tok_np):
        tok_lens = (
            pc.utf8_length(pa.array(tok_np, pa.string()))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        from georay.dedup import segment_reduce

        n_token_chars = segment_reduce(np.add, tok_lens, offsets, 0)
    else:
        n_token_chars = np.zeros(n, np.int64)

    keep = (5 * top_word <= n_words) & (2 * n_unique >= n_words)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_words": pa.array(n_words, pa.int64()),
            "n_unique": pa.array(n_unique, pa.int64()),
            "top_word_cnt": pa.array(top_word, pa.int64()),
            "top_bigram_cnt": pa.array(top_bigram, pa.int64()),
            "n_token_chars": pa.array(n_token_chars, pa.int64()),
            "keep": pa.array(keep),
        }
    )


#: docs with more chunks than this leave the by-chunk-index loop and are
#: sliced individually — one pathological 100 MB doc in a 500-row block
#: would otherwise run the loop ~667k times, filtering the whole block
#: each iteration.  With the split, total work is O(output chars).
LONG_DOC_CHUNKS = 256


def chunk_text_batch(batch: pa.Table, size: int = 200, stride: int = 150,
                     text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Fixed-size overlapping character windows per document (embedding /
    context chunking): chunk j covers codepoints [j*stride, j*stride+size)
    while j*stride < max(len, 1) — an empty document yields ONE empty
    chunk (mirrors the SQL range-join bound GREATEST(length(text), 1)).

    Vectorized BY CHUNK INDEX, not by row: chunk j of every document in
    the block is one ``utf8_slice_codeunits`` call with fixed offsets, so
    the loop runs max-chunks-per-block times (typically < 100) instead of
    once per row.  Documents longer than LONG_DOC_CHUNKS windows are
    split out and sliced per document (Python codepoint slices, work
    proportional to their own output) so one pathological doc cannot make
    the loop re-filter the whole block per chunk.  SQL mirror:
    substr(text, j*stride+1, size) over a range(j) join."""
    n = batch.num_rows
    # both paths emit the input's id and text types, so their sub-tables
    # (and empty blocks) share one schema; a column-less empty block gets
    # int64 ids and string chunks
    def col_type(name, default):
        return batch.schema.field(name).type if name in batch.column_names else default

    schema = pa.schema([
        (id_col, col_type(id_col, pa.int64())),
        ("chunk_id", pa.int64()),
        ("chunk", col_type(text_col, pa.string())),
    ])
    empty = schema.empty_table()
    if n == 0:
        return empty
    text = batch.column(text_col).combine_chunks()
    ids = batch.column(id_col).combine_chunks()
    lens = pc.fill_null(pc.utf8_length(text), 0).to_numpy(zero_copy_only=False)
    # j*stride < max(len,1)  <=>  j < ceil(max(len,1)/stride)
    n_chunks = -(-np.maximum(lens, 1) // stride)
    out = []
    long_idx = np.nonzero(n_chunks > LONG_DOC_CHUNKS)[0]
    if len(long_idx):
        for i in long_idx:
            s = text[int(i)].as_py() or ""
            c = int(n_chunks[i])
            out.append(pa.table({
                id_col: ids.take(pa.array(np.full(c, i))),
                "chunk_id": pa.array(np.arange(c, dtype=np.int64), pa.int64()),
                "chunk": pa.array(
                    [s[j * stride : j * stride + size] for j in range(c)],
                    text.type),
            }, schema=schema))
        short = pa.array(n_chunks <= LONG_DOC_CHUNKS)
        text = text.filter(short)
        ids = ids.filter(short)
        n_chunks = n_chunks[n_chunks <= LONG_DOC_CHUNKS]
    for j in range(int(n_chunks.max()) if len(n_chunks) else 0):
        m = n_chunks > j
        mask = pa.array(m)
        sl = pc.utf8_slice_codeunits(
            text.filter(mask), start=j * stride, stop=j * stride + size)
        out.append(pa.table({
            id_col: ids.filter(mask),
            "chunk_id": pa.array(
                np.full(int(m.sum()), j, np.int64), pa.int64()),
            "chunk": sl,
        }))
    return pa.concat_tables(out) if out else empty


def chunk_text(docs_ds, size: int = 200, stride: int = 150,
               text_col: str = "text", id_col: str = "doc_id"):
    """Dataset of documents -> dataset of overlapping chunks (doc_id,
    chunk_id, chunk).  Stateless per-batch explode — no shuffle; output
    scales by ~len/stride so downstream batch sizes shrink accordingly."""
    return docs_ds.map_batches(
        lambda b: chunk_text_batch(b, size, stride, text_col, id_col),
        batch_format="pyarrow",
    )
