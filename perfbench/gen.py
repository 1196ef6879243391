"""Seeded input generator for the benchmark workloads.

Every input is a pure function of ``(workload, seed, size)``: the same
arguments give byte-identical parquet files.  The program under test only
ever sees the files written here.

The flagship input is a documents table (``doc_id``, ``text``, ``lang``)
written as ``<dir>/documents.parquet/part-*.parquet``; ``read_pages``
synthesizes the pages from it.  A page's coordinate is a function of its
``doc_id``, so distinct ids drawn uniformly from ``[0, 2**31)`` spread the
points over the globe and over many res-7 cells.

The dedup corpus plants clusters of near-duplicates (one base document
plus one to four copies with a single token substituted) among unrelated
background documents, and records which ids must survive.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LANGS = ("en", "fr", "es", "zh", "de")
LANG_P = (0.4, 0.15, 0.15, 0.15, 0.15)
#: share of the dedup corpus that sits in planted near-duplicate clusters
DUP_FRAC = 0.2

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "ta", "vo", "se", "di", "pa",
    "gu", "he", "jo", "bi", "fe", "zo", "wa", "cy", "xu", "qe",
)


def _vocabulary() -> pa.Array:
    """8,000 fixed three-syllable words, independent of the seed."""
    s = _SYLLABLES
    return pa.array([a + b + c for a in s for b in s for c in s], pa.string())


VOCAB = _vocabulary()
#: Zipf-like word frequencies: rank r has weight 1 / (r + 10)
_P = 1.0 / (np.arange(len(VOCAB)) + 10.0)
_P /= _P.sum()


def _join_tokens(token_ids: np.ndarray, lens: np.ndarray) -> pa.Array:
    """Flat vocabulary ids plus per-doc lengths -> space-joined texts."""
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    words = VOCAB.take(pa.array(token_ids, pa.int64()))
    return pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets), words), " ")


def _lengths(rng, n: int, median: float, lo: int, hi: int) -> np.ndarray:
    """Long-tailed (log-normal) token counts clipped to [lo, hi]."""
    return np.clip(np.round(rng.lognormal(np.log(median), 0.7, n)), lo, hi).astype(np.int64)


def _distinct_ids(rng, n: int, high: int) -> np.ndarray:
    """n distinct ids in [0, high), in random order."""
    out = np.empty(0, np.int64)
    while len(out) < n:
        out = np.concatenate([out, rng.integers(0, high, size=2 * n, dtype=np.int64)])
        _, first = np.unique(out, return_index=True)
        out = out[np.sort(first)]
    return out[:n]


def _write_parts(table: pa.Table, out_dir: str, n_files: int) -> None:
    os.makedirs(out_dir)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for i in range(n_files):
        pq.write_table(
            table.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(out_dir, f"part-{i:05d}.parquet"),
        )


def flagship_docs(seed: int, n_docs: int) -> pa.Table:
    """The documents table for ``flagship_uniform``."""
    rng = np.random.default_rng([seed, 1])
    ids = _distinct_ids(rng, n_docs, 2**31)
    lens = _lengths(rng, n_docs, 40, 3, 400)
    text = _join_tokens(rng.choice(len(VOCAB), size=int(lens.sum()), p=_P), lens)
    lang = pa.array(np.asarray(LANGS)[rng.choice(len(LANGS), size=n_docs, p=LANG_P)])
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": text, "lang": lang})


def dedup_corpus(seed: int, n_docs: int):
    """(documents table, sorted survivor ids) for ``dedup_near``.

    About ``DUP_FRAC`` of the documents belong to planted clusters of 2 to
    5 members; every member after the base differs from it by one token
    (Jaccard of 3-shingles >= 0.9 at >= 60 tokens).  Background documents
    are independent draws, so no two of them are near-duplicates.  The
    survivor of a cluster is its smallest id.
    """
    rng = np.random.default_rng([seed, 3])
    sizes = []
    while sum(sizes) < DUP_FRAC * n_docs:
        sizes.append(int(rng.integers(2, 6)))
    n_bases = n_docs - sum(sizes) + len(sizes)
    lens = _lengths(rng, n_bases, 100, 60, 400)
    tokens = rng.choice(len(VOCAB), size=int(lens.sum()), p=_P)
    starts = np.concatenate([[0], np.cumsum(lens)])

    doc_tokens, doc_lens, cluster = [tokens], [lens], [np.arange(n_bases)]
    for c, size in enumerate(sizes):  # cluster c is built on base doc c
        base = tokens[starts[c]:starts[c + 1]]
        for _ in range(size - 1):
            var = base.copy()
            pos = int(rng.integers(0, len(var)))
            var[pos] = (var[pos] + rng.integers(1, len(VOCAB))) % len(VOCAB)
            doc_tokens.append(var)
            doc_lens.append(np.array([len(var)]))
            cluster.append(np.array([c]))
    text = _join_tokens(np.concatenate(doc_tokens), np.concatenate(doc_lens))
    cluster = np.concatenate(cluster)
    ids = _distinct_ids(rng, n_docs, 10 * n_docs)

    # survivors: every id whose cluster has no smaller member
    order = np.lexsort((ids, cluster))
    first = np.ones(n_docs, bool)
    first[1:] = cluster[order][1:] != cluster[order][:-1]
    survivors = np.sort(ids[order][first])

    perm = rng.permutation(n_docs)
    lang = np.asarray(LANGS)[rng.choice(len(LANGS), size=n_docs, p=LANG_P)]
    docs = pa.table({
        "doc_id": pa.array(ids[perm], pa.int64()),
        "text": text.take(pa.array(perm)),
        "lang": pa.array(lang),
    })
    return docs, survivors


def generate(workload: str, seed: int, n_docs: int, n_files: int, root: str) -> str:
    """Write the inputs of one (workload, seed, size) under ``root`` once
    and return their directory; a finished directory is reused."""
    out = os.path.join(root, f"{workload}-s{seed}-n{n_docs}-f{n_files}")
    if os.path.exists(os.path.join(out, "meta.json")):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if workload == "dedup_near":
        docs, survivors = dedup_corpus(seed, n_docs)
        np.save(os.path.join(tmp, "survivors.npy"), survivors)
        meta = {"docs": n_docs, "survivors": int(len(survivors))}
    else:
        docs = flagship_docs(seed, n_docs)
        ids = docs.column("doc_id").to_numpy()
        meta = {"docs": n_docs, "geo_pages": int(np.count_nonzero(ids % 10 != 7))}
    _write_parts(docs, os.path.join(tmp, "documents.parquet"), n_files)
    # the warm-up input: an eighth of the rows in as many files (the dedup
    # CLI stalls at two logical CPUs on a one-file corpus)
    _write_parts(docs.slice(0, n_docs // 8), os.path.join(tmp, "warmup", "documents.parquet"), n_files)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out
