"""Round-4 text/embedding operators: normalization, corpus n-grams,
label centroids."""

import numpy as np
import pyarrow as pa
import pytest

from georay.text import ngram_count_batch, normalize_batch, top_ngrams


def _doc_table(texts, ids=None):
    ids = ids if ids is not None else list(range(len(texts)))
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    )


class TestNormalize:
    def test_nfc_lower_collapse_trim(self):
        out = normalize_batch(
            _doc_table(
                [
                    "  Hello   WORLD \t\n x ",
                    "Café",  # NFD e + combining acute -> NFC é
                    "already normal",
                    "",
                ]
            )
        )
        assert out.column("norm_text").to_pylist() == [
            "hello world x",
            "café",
            "already normal",
            "",
        ]
        assert out.column("n_norm_chars").to_pylist() == [13, 4, 14, 0]
        assert out.column("changed").to_pylist() == [True, True, False, False]

    def test_null_text_propagates(self):
        out = normalize_batch(_doc_table([None, "A"]))
        assert out.column("norm_text").to_pylist() == [None, "a"]

    def test_matches_duckdb_mirror(self):
        import duckdb

        texts = [
            "  Mixed   CASE and　unicode  spaces ",
            "Café CRÈME",
            "tabs\there\nnewlines",
            "",
            "x",
        ]
        out = normalize_batch(_doc_table(texts))
        con = duckdb.connect()
        con.register("documents", _doc_table(texts))
        sql = con.execute(
            "SELECT trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g'), ' ') "
            "FROM documents ORDER BY doc_id"
        ).fetchall()
        assert out.column("norm_text").to_pylist() == [r[0] for r in sql]


class TestNgramCounts:
    def test_block_counts_are_occurrences_not_distinct(self):
        out = ngram_count_batch(_doc_table(["a b c a b c a b c"]), k=3)
        d = dict(zip(out.column("ngram").to_pylist(), out.column("cnt").to_pylist()))
        # rolling trigrams of 9 tokens = 7 occurrences; 'a b c' occurs 3x
        assert sum(d.values()) == 7
        assert d["a b c"] == 3

    def test_short_docs_fall_back_to_tokens(self):
        out = ngram_count_batch(_doc_table(["one two", ""]), k=3)
        d = dict(zip(out.column("ngram").to_pylist(), out.column("cnt").to_pylist()))
        assert d == {"one": 1, "two": 1}

    def test_top_ngrams_exact_and_ordered(self, ray_session):
        import ray

        texts = ["x y z w"] * 5 + ["a b c d e"] * 3 + ["p q"]
        ds = ray.data.from_arrow(_doc_table(texts, ids=list(range(len(texts)))))
        df = top_ngrams(ds, k=3, top=4).to_pandas()
        # counts: 'x y z' 5, 'y z w' 5, 'a b c' 3, 'b c d' 3, 'c d e' 3,
        # 'p'/'q' 1 -> top-4 with (cnt desc, ngram asc) tie-break:
        assert list(df["ngram"]) == ["x y z", "y z w", "a b c", "b c d"]
        assert list(df["cnt"]) == [5, 5, 3, 3]


class TestLabelCentroids:
    def test_exact_against_numpy(self, ray_session):
        import ray

        from georay.ann import label_centroids

        rng = np.random.default_rng(7)
        n, d = 200, 8
        vecs = rng.normal(size=(n, d)).astype(np.float32)
        labels = rng.integers(0, 3, size=n).astype(np.int32)
        tbl = pa.table(
            {
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(labels, pa.int32()),
            }
        )
        # 4 blocks so partials + tree merge are actually exercised
        ds = ray.data.from_arrow(tbl).repartition(4)
        out = label_centroids(ds).to_pandas().sort_values(["label", "pos"])
        q = np.floor(vecs.astype(np.float64) * 1_000_000 + 0.5).astype(np.int64)
        for lab in np.unique(labels):
            rows = out[out["label"] == lab]
            mask = labels == lab
            expect = q[mask].sum(axis=0).astype(np.float64) / (
                1_000_000.0 * mask.sum()
            )
            assert (rows["n"] == mask.sum()).all()
            np.testing.assert_array_equal(rows["centroid"].to_numpy(), expect)
        assert len(out) == 3 * d
        assert list(out.columns) == ["label", "pos", "n", "centroid"]

    def test_quantize_formula_is_floor_half_up(self):
        from georay.ann import _quantize

        # ±0.5 ties round UP (floor(x+0.5)), matching SQL FLOOR(v*S + 0.5)
        v = np.array([[1.5e-6, -1.5e-6, 2.5e-6, -2.5e-6]])
        np.testing.assert_array_equal(_quantize(v)[0], [2, -1, 3, -2])


class TestRedact:
    def test_rules_in_order(self):
        from georay.text import redact_batch

        out = redact_batch(
            _doc_table(
                [
                    "mail me a@b.com or visit https://x.y/z?u=1 code 1234567",
                    "no matches here",
                    "ftp 12345 short digits",
                    "two mails a@b.co and c.d@e-f.org",
                ]
            )
        )
        assert out.column("red_text").to_pylist() == [
            "mail me <EMAIL> or visit <URL> code <NUM>",
            "no matches here",
            "ftp 12345 short digits",
            "two mails <EMAIL> and <EMAIL>",
        ]
        assert out.column("n_url").to_pylist() == [1, 0, 0, 0]
        assert out.column("n_email").to_pylist() == [1, 0, 0, 2]
        assert out.column("n_num").to_pylist() == [1, 0, 0, 0]
        assert out.column("changed").to_pylist() == [True, False, False, True]

    def test_url_swallows_contained_email_and_digits(self):
        from georay.text import redact_batch

        # the URL is redacted FIRST, so its '@' and digit run never count
        out = redact_batch(_doc_table(["see https://u:p@host/123456789 end"]))
        assert out.column("red_text").to_pylist() == ["see <URL> end"]
        assert out.column("n_url").to_pylist() == [1]
        assert out.column("n_email").to_pylist() == [0]
        assert out.column("n_num").to_pylist() == [0]

    def test_matches_duckdb_mirror(self):
        import duckdb

        from georay.text import redact_batch

        texts = [
            "a@b.com https://h/p 1234567 x",
            "nested http://a.b/c@d.e,999999999 tail",
            "",
        ]
        out = redact_batch(_doc_table(texts))
        con = duckdb.connect()
        con.register("documents", _doc_table(texts))
        sql = con.execute(
            """
            SELECT regexp_replace(regexp_replace(regexp_replace(text,
                     'https?://\\S+', '<URL>', 'g'),
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                     '[0-9]{6,}', '<NUM>', 'g')
            FROM documents ORDER BY doc_id"""
        ).fetchall()
        assert out.column("red_text").to_pylist() == [r[0] for r in sql]


class TestRepetitionStats:
    def test_counts(self):
        from georay.text import repetition_stats_batch

        out = repetition_stats_batch(
            _doc_table(
                [
                    "a b a b a",          # top word 'a' x3, top bigram 'a b' x2
                    "unique words only",  # no repetition
                    "x",                  # single token: bigram cnt 0
                    "",                   # empty
                ]
            )
        )
        assert out.column("n_words").to_pylist() == [5, 3, 1, 0]
        assert out.column("n_unique").to_pylist() == [2, 3, 1, 0]
        assert out.column("top_word_cnt").to_pylist() == [3, 1, 1, 0]
        assert out.column("top_bigram_cnt").to_pylist() == [2, 1, 0, 0]
        assert out.column("n_token_chars").to_pylist() == [5, 15, 1, 0]

    def test_keep_verdict_integer_thresholds(self):
        from georay.text import repetition_stats_batch

        out = repetition_stats_batch(
            _doc_table(
                [
                    "spam spam spam spam one two three four five ten",  # 4*5 > 10: drop
                    "one two three four spam spam spam spam spam spam "
                    "a b c d e f g h i j k l m n",  # 6*5 >= 24... 30 > 24: drop
                    "all distinct words in this doc",  # keep
                ]
            )
        )
        assert out.column("keep").to_pylist() == [False, False, True]

    def test_matches_pure_python(self):
        from collections import Counter

        from georay.text import repetition_stats_batch

        texts = ["w x w y w z " * 3, "q r s t q", "m"]
        out = repetition_stats_batch(_doc_table(texts))
        for i, t in enumerate(texts):
            toks = t.split()
            bigrams = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
            assert out.column("n_words")[i].as_py() == len(toks)
            assert out.column("n_unique")[i].as_py() == len(set(toks))
            assert out.column("top_word_cnt")[i].as_py() == max(Counter(toks).values())
            assert out.column("top_bigram_cnt")[i].as_py() == (
                max(Counter(bigrams).values()) if bigrams else 0
            )
            assert out.column("n_token_chars")[i].as_py() == sum(len(w) for w in toks)


class TestChunkText:
    def test_windows_and_overlap(self):
        import pyarrow as pa
        from georay.text import chunk_text_batch

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["abcdefghij", "xy", ""], pa.string()),
        })
        out = chunk_text_batch(t, size=4, stride=3).to_pandas()
        d1 = out[out.doc_id == 1].sort_values("chunk_id")
        # ceil(10/3)=4 windows: 0-3,3-6,6-9,9-12
        assert list(d1.chunk) == ["abcd", "defg", "ghij", "j"]
        assert list(out[out.doc_id == 2].chunk) == ["xy"]
        assert list(out[out.doc_id == 3].chunk) == [""]  # empty -> 1 empty chunk

    def test_codepoint_slicing(self):
        import pyarrow as pa
        from georay.text import chunk_text_batch

        t = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(["héllo wörld"], pa.string()),  # multibyte
        })
        out = chunk_text_batch(t, size=5, stride=5).to_pandas()
        assert list(out.sort_values("chunk_id").chunk) == ["héllo", " wörl", "d"]

    def test_null_text(self):
        import pyarrow as pa
        from georay.text import chunk_text_batch

        t = pa.table({
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array([None], pa.string()),
        })
        out = chunk_text_batch(t, size=4, stride=4).to_pandas()
        assert len(out) == 1 and out.chunk_id.iloc[0] == 0


class TestChunkTextLongDocSplit:
    def test_long_doc_matches_loop_path(self):
        """A doc over the LONG_DOC_CHUNKS bound takes the per-doc slice
        path; output must be identical to what the by-chunk-index loop
        would produce (verified against a brute-force python reference),
        and short docs in the same block are unaffected."""
        import pyarrow as pa
        import georay.text as text_mod

        long_text = "".join(chr(ord("a") + (i % 26)) for i in range(5000))
        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([long_text, "xy", ""], pa.string()),
        })
        size, stride = 7, 5
        assert -(-len(long_text) // stride) > text_mod.LONG_DOC_CHUNKS
        out = (text_mod.chunk_text_batch(t, size=size, stride=stride)
               .to_pandas().sort_values(["doc_id", "chunk_id"]))
        d1 = out[out.doc_id == 1]
        want = [long_text[j * stride : j * stride + size]
                for j in range(-(-len(long_text) // stride))]
        assert list(d1.chunk) == want
        assert list(d1.chunk_id) == list(range(len(want)))
        assert list(out[out.doc_id == 2].chunk) == ["xy"]
        assert list(out[out.doc_id == 3].chunk) == [""]

    def test_10mb_doc_in_block_is_fast(self):
        """One 10 MB doc among 500 rows: must complete in seconds (the
        old loop re-filtered the 500-row block ~67k times)."""
        import time
        import pyarrow as pa
        from georay.text import chunk_text_batch

        texts = ["short text"] * 499 + ["z" * 10_000_000]
        t = pa.table({
            "doc_id": pa.array(range(500), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        t0 = time.monotonic()
        out = chunk_text_batch(t, size=200, stride=150)
        dt = time.monotonic() - t0
        assert out.num_rows == 499 + -(-10_000_000 // 150)
        assert dt < 10.0

    def test_all_long_docs(self):
        import pyarrow as pa
        import georay.text as text_mod

        s = "ab" * 30_000  # 60k chars, 400 chunks at stride 150
        t = pa.table({
            "doc_id": pa.array([5], pa.int64()),
            "text": pa.array([s], pa.string()),
        })
        out = (text_mod.chunk_text_batch(t, size=200, stride=150)
               .to_pandas().sort_values("chunk_id"))
        assert len(out) == -(-60_000 // 150)
        assert out.chunk.iloc[0] == s[:200]
        assert out.chunk.iloc[-1] == s[(len(out) - 1) * 150:][:200]

    def test_mixed_block_keeps_input_types(self):
        """Long and short docs in one block, with a large_string text column
        and int32 ids: both paths emit the input's id and text types, so
        their sub-tables concatenate (and so do empty blocks)."""
        import pyarrow as pa
        import georay.text as text_mod

        long_text = "ab" * 30_000
        t = pa.table({
            "doc_id": pa.array([1, 2], pa.int32()),
            "text": pa.array([long_text, "short"], pa.large_string()),
        })
        out = text_mod.chunk_text_batch(t, size=200, stride=150)
        assert out.schema.field("doc_id").type == pa.int32()
        assert out.schema.field("chunk").type == pa.large_string()
        assert out.num_rows == -(-60_000 // 150) + 1
        assert text_mod.chunk_text_batch(t.slice(0, 0)).schema == out.schema
