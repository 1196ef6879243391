"""Deduplication kernels: minhash signatures/LSH, simhash, jaccard, cosine."""

import numpy as np
import pyarrow as pa
import pytest

from georay.dedup import (
    cosine_pairs,
    estimate_jaccard,
    hamming64,
    hyperplane_keys,
    jaccard_ngrams,
    lsh_band_keys,
    minhash_band_batch,
    minhash_signatures,
    pairwise,
    simhash_batch,
)

DOC = (
    "the quick brown fox jumps over the lazy dog while the cat watches from the warm "
    "windowsill and the birds sing in the garden under a bright morning sun"
)
NEAR = DOC.replace("morning", "evening")
FAR = (
    "completely different content about distributed dataflow engines processing parquet "
    "tables with vectorized arrow kernels across many worker nodes in a cluster"
)


def tbl(texts):
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts, pa.string())}
    )


class TestMinHash:
    def test_identical_docs_identical_signatures(self):
        sig = minhash_signatures(pa.array([DOC, DOC]))
        np.testing.assert_array_equal(sig[0], sig[1])

    def test_near_dup_high_estimate(self):
        sig = minhash_signatures(pa.array([DOC, NEAR, FAR]))
        assert estimate_jaccard(sig[0], sig[1]) > 0.6
        assert estimate_jaccard(sig[0], sig[2]) < 0.1

    def test_estimate_tracks_true_jaccard(self):
        true_j = jaccard_ngrams(DOC, NEAR)
        sig = minhash_signatures(pa.array([DOC, NEAR]))
        est = estimate_jaccard(sig[0], sig[1])
        assert abs(est - true_j) < 0.15  # 128 perms -> se ~ 0.04

    def test_band_keys_collide_for_near_dups(self):
        sig = minhash_signatures(pa.array([DOC, NEAR, FAR]))
        keys = lsh_band_keys(sig)
        shared_near = (keys[0] == keys[1]).sum()
        shared_far = (keys[0] == keys[2]).sum()
        assert shared_near >= 1
        assert shared_far == 0

    def test_band_batch_layout(self):
        out = minhash_band_batch(tbl([DOC, NEAR]), num_perm=64, bands=16)
        assert out.column_names == ["band", "key", "doc_id"]
        assert out.num_rows == 2 * 16

    def test_empty_doc(self):
        sig = minhash_signatures(pa.array(["", DOC]))
        assert (sig[0] == np.iinfo(np.uint64).max).all()


class TestSimHash:
    def test_identical_same_hash(self):
        out = simhash_batch(tbl([DOC, DOC]))
        s = out.column("simhash").to_pylist()
        assert s[0] == s[1]

    def test_near_dup_small_hamming(self):
        out = simhash_batch(tbl([DOC, NEAR, FAR]))
        s = np.asarray(out.column("simhash").to_pylist(), dtype=np.int64)
        d_near = hamming64(s[0:1], s[1:2])[0]
        d_far = hamming64(s[0:1], s[2:3])[0]
        assert d_near < d_far
        assert d_near <= 12

    def test_block_keys_cover_hash(self):
        out = simhash_batch(tbl([DOC]))
        s = np.array(out.column("simhash").to_pylist(), dtype=np.int64).view(np.uint64)[0]
        blocks = [out.column(f"blk{i}").to_pylist()[0] for i in range(4)]
        recomposed = np.uint64(0)
        for i, b in enumerate(blocks):
            recomposed |= np.uint64(b) << np.uint64(16 * i)
        assert recomposed == s


class TestEmbeddingDedup:
    def test_cosine_pairs_threshold(self):
        vecs = np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]])
        out = cosine_pairs(vecs, np.array([10, 11, 12]), 0.9)
        pairs = list(zip(out.column("vec_a").to_pylist(), out.column("vec_b").to_pylist()))
        assert pairs == [(10, 11)]

    def test_hyperplane_buckets_group_identical(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((20, 16))
        keys = hyperplane_keys(v)
        keys2 = hyperplane_keys(v.copy())
        np.testing.assert_array_equal(keys, keys2)
        assert hyperplane_keys(v[:1])[0] == keys[0]


class TestEmbedLshPipeline:
    def test_recall_vs_brute(self, ray_session):
        import pyarrow.parquet as pq
        import ray.data

        from georay.ann import _to_matrix
        from georay.dedup import cosine_pairs, embed_lsh_pairs

        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"])
        vecs = _to_matrix(t.column("embedding"))
        ids = t.column("vec_id").to_numpy()
        brute = cosine_pairs(vecs, ids, 0.30)
        brute_set = set(zip(brute.column("vec_a").to_pylist(), brute.column("vec_b").to_pylist()))

        ds = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"])
        got = embed_lsh_pairs(ds, threshold=0.30, n_planes=4).to_pandas()
        got_set = set(zip(got["vec_a"], got["vec_b"]))

        assert got_set <= brute_set  # precision 1 (exact verification)
        recall = len(got_set) / max(1, len(brute_set))
        # cos=0.30 is the hard regime for hyperplane LSH: collision prob
        # ~0.6^4 per table -> expect roughly 2/3 recall over 8 tables
        assert recall >= 0.4

    def test_high_recall_on_planted_near_dups(self, ray_session, monkeypatch, exchanges):
        """The same pairs on the driver route and past the budget, where
        ``band_bucket_pairs`` runs its keyed exchanges."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import cosine_pairs, embed_lsh_pairs

        rng = np.random.default_rng(5)
        base = rng.standard_normal((100, 32))
        # plant a near-duplicate of each base vector (cos > ~0.98)
        dups = base + 0.1 * rng.standard_normal((100, 32))
        vecs = np.vstack([base, dups])
        ids = np.arange(200, dtype=np.int64)
        brute = cosine_pairs(vecs, ids, 0.9)
        brute_set = set(zip(brute.column("vec_a").to_pylist(), brute.column("vec_b").to_pylist()))
        assert len(brute_set) >= 90  # the planted pairs exist

        tbl = pa.table({"vec_id": ids, "embedding": pa.array(list(vecs.astype(np.float32)))})

        def run():
            got = embed_lsh_pairs(ray.data.from_arrow(tbl), threshold=0.9).to_pandas()
            return set(zip(got["vec_a"], got["vec_b"]))

        got_set, shuffled = _both_routes(monkeypatch, exchanges, run, "hash_partition")
        assert got_set == shuffled
        assert got_set <= brute_set
        recall = len(got_set) / len(brute_set)
        assert recall >= 0.9  # default 12 planes x 8 tables at cos>0.9

    def test_hot_bucket_keeps_its_smallest_ids(self, ray_session, monkeypatch, exchanges, caplog):
        """Ten identical vectors share one bucket in every table.  At
        ``max_bucket=4`` only the pairs of the 4 smallest of their ids
        come out, and ``real_pairs`` warns once with the truncated rows
        (the 6 distinct flagged pairs), on both routes."""
        import logging

        import pyarrow as pa
        import ray.data

        from georay.dedup import embed_lsh_pairs

        rng = np.random.default_rng(9)
        hot = [50, 3, 41, 7, 22, 9, 30, 15, 60, 11]
        vecs = np.vstack([np.tile(rng.standard_normal(32), (len(hot), 1)), rng.standard_normal((20, 32))])
        ids = np.array(hot + list(range(100, 120)), np.int64)
        tbl = pa.table({"vec_id": ids, "embedding": pa.array(list(vecs.astype(np.float32)))})

        def run():
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="georay.dedup"):
                got = embed_lsh_pairs(ray.data.from_arrow(tbl), max_bucket=4).to_pandas()
            warned = [r.args for r in caplog.records if "truncated at max_bucket" in r.getMessage()]
            return set(zip(got["vec_a"], got["vec_b"])), warned

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run, "hash_partition")
        smallest = [3, 7, 9, 11]
        assert broadcast == shuffled == ({(a, b) for a in smallest for b in smallest if a < b}, [(6,)])


class TestBatchCompositionIndependence:
    """Regression: a document's signature must not depend on what follows
    it in the batch (the reduceat trailing-empty-segment bug)."""

    def test_minhash_stable_with_trailing_empty(self):
        a = minhash_signatures(pa.array([DOC]))
        b = minhash_signatures(pa.array([DOC, "   "]))
        np.testing.assert_array_equal(a[0], b[0])

    def test_simhash_stable_with_trailing_null(self):
        s1 = simhash_batch(tbl([DOC])).column("simhash").to_pylist()[0]
        t2 = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                       "text": pa.array([DOC, None], pa.string())})
        s2 = simhash_batch(t2).column("simhash").to_pylist()[0]
        assert s1 == s2

    def test_md5_batch_null_text(self):
        t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array(["x", None], pa.string())})
        from georay.dedup import md5_batch
        out = md5_batch(t)
        assert out.num_rows == 2
        hs = out.column("h").to_pylist()
        assert hs[0] != hs[1]


def _regex_split(text: pa.Array):
    """The RE2 ``\\s+`` split with empty tokens dropped: the reference
    ``_split_nonempty`` must match."""
    import pyarrow.compute as pc

    toks = pc.split_pattern_regex(text, r"\s+")
    flat = toks.flatten()
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    kept_cum = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
    return flat.filter(pa.array(keep)), kept_cum[offsets]


class TestSplit:
    """``_split_nonempty``'s literal split gives the tokens and offsets of
    a split on the regex ``\\s+``: ``\\v``, NBSP and other Unicode
    spaces stay inside tokens on both."""

    TEXTS = [
        "a\tb\nc\fd\re f", "a\vb c", "a\u00a0b c", "a\u2003b\u0085c", "  lead", "trail  ",
        " \t\n both \r\f ", "many   \t\t\n\n  gaps", "", None, "   ", "\v", "\r\n", "one",
        DOC, "é ü\tß",
    ]

    @pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
    @pytest.mark.parametrize("lo", [0, 3])
    def test_matches_the_regex_split(self, lo, typ):
        from georay.dedup import _split_nonempty

        text = pa.array(self.TEXTS, typ).slice(lo)
        flat, offsets = _split_nonempty(text)
        want_flat, want_offsets = _regex_split(text)
        assert flat.to_pylist() == want_flat.to_pylist()
        np.testing.assert_array_equal(offsets, want_offsets)


def _union_find(edges):
    """Each node of ``edges`` -> its component minimum, by a pure-Python
    union-find."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _pairs(edges):
    return pa.table({"doc_a": pa.array([a for a, _ in edges], pa.int64()),
                     "doc_b": pa.array([b for _, b in edges], pa.int64())})


def _seeded_graph(seed):
    """(pairs, want): a 150-node chain with increasing ids, 15 random-id
    chains of 8, and a sparse random graph on 80 nodes; ``want`` maps
    each node to its component minimum (:func:`_union_find`)."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.arange(1000, 5000))[:200]
    edges = list(zip(range(0, 149), range(1, 150)))
    for chain in np.array_split(ids[:120], 15):
        edges += list(zip(chain[:-1].tolist(), chain[1:].tolist()))
    for _ in range(60):
        a, b = rng.choice(ids[120:], 2, replace=False)
        edges.append((int(a), int(b)))
    edges = [(min(a, b), max(a, b)) for a, b in edges]
    return _pairs(edges), _union_find(edges)


def _random_id_path(n):
    """(pairs, want): a path of ``n`` nodes whose ids 10,000.. are in a
    random order, and its union-find labels."""
    ids = np.random.default_rng(n).permutation(np.arange(10_000, 10_000 + n)).tolist()
    edges = list(zip(ids[:-1], ids[1:]))
    return _pairs(edges), _union_find(edges)


class TestConnectedComponents:
    def test_chain_and_disjoint(self, ray_session):
        import pyarrow as pa
        import ray.data

        from georay.dedup import connected_components

        # chain 1-2-3-4 (diameter 3) + pair (10, 11) + isolated docs absent
        pairs = pa.table({
            "doc_a": pa.array([1, 2, 3, 10], pa.int64()),
            "doc_b": pa.array([2, 3, 4, 11], pa.int64()),
        })
        out = connected_components(ray.data.from_arrow(pairs)).to_pandas()
        got = dict(zip(out.doc_id, out.survivor))
        assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}

    def test_empty(self, ray_session):
        import pyarrow as pa
        import ray.data

        from georay.dedup import connected_components

        empty = pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
        out = connected_components(ray.data.from_arrow(empty)).to_pandas()
        assert len(out) == 0

    def test_long_chain_converges_with_shortcutting(self, ray_session):
        """A 200-node chain (diameter 199) must converge well inside
        max_iter=10 — one-hop-per-round propagation could not (the round-2
        cap silently returned non-minimal labels on diameter > max_iter);
        FastSV's shortcutting gives O(log d) rounds.
        :class:`TestComponentsExchangeRoute` runs the same chain through
        the exchange route's FastSV on the BSP engine."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import connected_components

        n = 200
        pairs = pa.table({
            "doc_a": pa.array(np.arange(n - 1), pa.int64()),
            "doc_b": pa.array(np.arange(1, n), pa.int64()),
        })
        out = connected_components(ray.data.from_arrow(pairs), max_iter=10).to_pandas()
        assert len(out) == n
        assert (out.survivor == 0).all()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_union_find_on_random_graphs(self, ray_session, seed):
        """Seeded graphs against a pure-Python union-find whose survivor
        is the component minimum (:func:`_seeded_graph`)."""
        import ray.data

        from georay.dedup import connected_components

        pairs, want = _seeded_graph(seed)
        out = connected_components(ray.data.from_arrow(pairs).repartition(4)).to_pandas()
        assert dict(zip(out.doc_id, out.survivor)) == want

    @pytest.mark.parametrize("n", [200, 1000])
    def test_random_id_paths_converge(self, ray_session, n):
        """A path whose ids are a random permutation converges within the
        default max_iter and labels every node with the path's minimum
        id.  One-hop min-label propagation needs rounds in the order of
        the path length here (48-117 at 200 nodes)."""
        import ray.data

        from georay.dedup import connected_components

        pairs, _ = _random_id_path(n)
        out = connected_components(ray.data.from_arrow(pairs)).to_pandas()
        assert len(out) == n
        assert (out.survivor == 10_000).all()

    def test_nonconvergence_raises(self, ray_session):
        """max_iter exhaustion must raise, not silently return non-minimal
        survivors (ADVICE r2)."""
        import pyarrow as pa
        import pytest
        import ray.data

        from georay.dedup import connected_components

        pairs = pa.table({
            "doc_a": pa.array([1, 2], pa.int64()),
            "doc_b": pa.array([2, 3], pa.int64()),
        })
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components(ray.data.from_arrow(pairs), max_iter=0)


class TestSimhashMultiIndex:
    def test_pigeonhole_recall_one(self):
        """Any <=3-bit flip of a 64-bit hash must share at least one
        table key with the original — the multi-index recall guarantee."""
        from georay.dedup import simhash_index_keys

        rng = np.random.default_rng(9)
        base = rng.integers(0, 1 << 63, size=50, dtype=np.uint64)
        flipped = base.copy()
        for i in range(len(base)):
            bits = rng.choice(64, size=rng.integers(1, 4), replace=False)
            for b in bits:
                flipped[i] ^= np.uint64(1) << np.uint64(b)
        keys_a = dict(simhash_index_keys(base))
        keys_b = dict(simhash_index_keys(flipped))
        shared = np.zeros(len(base), bool)
        for t in keys_a:
            shared |= keys_a[t] == keys_b[t]
        assert shared.all()

    def test_key_width_exceeds_16_bits(self):
        """The 6/3 index keys span ~32 bits — bucket cardinality must not
        cap at 2^16 like the round-2 4x16 scheme."""
        from georay.dedup import simhash_index_keys

        rng = np.random.default_rng(10)
        u = rng.integers(0, np.iinfo(np.uint64).max, size=5000, dtype=np.uint64)
        max_key = max(int(k.max()) for _, k in simhash_index_keys(u))
        assert max_key > (1 << 16)

    def test_deterministic(self):
        from georay.dedup import simhash_index_keys

        u = np.array([12345678901234567, 98765432109876543], dtype=np.uint64)
        a = [(t, k.tolist()) for t, k in simhash_index_keys(u)]
        b = [(t, k.tolist()) for t, k in simhash_index_keys(u.copy())]
        assert a == b
        assert len(a) == 20  # C(6, 3) tables


class TestPairSchemaAndTruncationObservability:
    def test_empty_pair_result_keeps_schema(self, ray_session):
        """Regression (r3 review): pyarrow group_by on an empty table
        yields 0-chunk columns Ray treats as schemaless — an all-singleton
        corpus must still return typed doc_a/doc_b columns."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import simhash_pairs

        t = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["aaa bbb ccc", "ddd eee fff ggg",
                              "hhh iii jjj kkk lll", "mmm nnn ooo ppp"], pa.string()),
        })
        out = simhash_pairs(ray.data.from_arrow(t))
        # Dataset.to_pandas() drops columns for ANY 0-row dataset (Ray
        # quirk), so the schema contract is asserted on the dataset
        assert out.schema().names == ["doc_a", "doc_b"]
        assert out.count() == 0

    def test_truncation_reported_even_when_filter_rejects_all(self, ray_session):
        """Regression (r3 review): a truncated bucket whose surviving
        pairs all fail inline verification must still report truncation
        (marker row) — zero would falsely claim the recall-1 guarantee
        held."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import band_bucket_pairs

        n = 10
        t = pa.table({
            "band": pa.array([0] * n, pa.int32()),
            "key": pa.array([7] * n, pa.int64()),
            "doc_id": pa.array(range(n), pa.int64()),
            "sim": pa.array(range(n), pa.int64()),
        })
        out = band_bucket_pairs(
            ray.data.from_arrow(t), max_bucket=4,
            payload_col="sim", verify=pairwise(lambda a, b: np.zeros(len(a), bool)),
        ).to_pandas()
        # all pairs rejected, bucket truncated -> exactly the marker row
        assert len(out) == 1
        assert out.doc_a.iloc[0] == -1 and bool(out.truncated.iloc[0])

    def test_hot_bucket_keeps_its_smallest_ids(self, ray_session):
        """A hot bucket is truncated to its ``max_bucket`` smallest ids:
        40 ids at max_bucket=4 give exactly the 6 pairs among ids 0-3,
        all flagged; the cold bucket's pair stays unflagged."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import band_bucket_pairs

        hot = 40
        t = pa.table({
            "band": pa.array([0] * hot + [1, 1], pa.int32()),
            "key": pa.array([7] * hot + [9, 9], pa.int64()),
            "doc_id": pa.array(list(range(hot)) + [100, 101], pa.int64()),
        })
        out = band_bucket_pairs(ray.data.from_arrow(t), max_bucket=4).to_pandas()
        got = dict(zip(zip(out.doc_a, out.doc_b), out.truncated))
        want = {(a, b): True for a in range(4) for b in range(4) if a < b}
        want[(100, 101)] = False
        assert got == want

    def test_marker_ids_distinct_across_partitions(self, ray_session, monkeypatch):
        """Two truncated buckets whose pairs are all rejected, in two
        different partitions of 64: two marker rows with distinct
        doc_b.  Marker ids restarting per partition would collapse them
        into one in the pair-distinct."""
        import pyarrow as pa
        import ray.data

        import georay.dedup as dedup
        from georay.partition import part_of

        P = 64
        # P sizes only the exchange route: on the driver there is one partition
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        monkeypatch.setattr(dedup, "partitions", lambda *a, **k: P)
        part = lambda k: int(part_of([np.array([0]), np.array([k])], P)[0])  # noqa: E731
        other = next(k for k in range(8, 1000) if part(k) != part(7))
        n = 10
        t = pa.table({
            "band": pa.array([0] * 2 * n, pa.int32()),
            "key": pa.array([7] * n + [other] * n, pa.int64()),
            "doc_id": pa.array(list(range(2 * n)), pa.int64()),
            "sim": pa.array(list(range(2 * n)), pa.int64()),
        })
        out = dedup.band_bucket_pairs(
            ray.data.from_arrow(t), max_bucket=4,
            payload_col="sim", verify=pairwise(lambda a, b: np.zeros(len(a), bool)),
        ).to_pandas()
        assert len(out) == 2
        assert (out.doc_a == -1).all() and out.truncated.all()
        assert out.doc_b.nunique() == 2 and (out.doc_b < 0).all()


class TestMaxBucketNone:
    def test_none_disables_cap(self, ray_session):
        """Regression (r3 review): the docs advertise max_bucket=None to
        disable the cap; it once crashed with TypeError on the None
        comparison."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import band_bucket_pairs

        t = pa.table({
            "band": pa.array([0] * 6, pa.int32()),
            "key": pa.array([7] * 6, pa.int64()),
            "doc_id": pa.array(range(6), pa.int64()),
        })
        want = {(a, b) for a in range(6) for b in range(6) if a < b}
        out = band_bucket_pairs(ray.data.from_arrow(t), max_bucket=None).to_pandas()
        assert set(zip(out.doc_a, out.doc_b)) == want
        assert not out.truncated.any()


class TestBucketPairsExchangeRoute(TestPairSchemaAndTruncationObservability, TestMaxBucketNone):
    """The truncation, hot-bucket and ``max_bucket=None`` tests again past
    the budget (``BROADCAST_BYTES = 0``): ``band_bucket_pairs`` runs its
    two keyed exchanges and :func:`georay.dedup.real_pairs` its Dataset
    route."""

    @pytest.fixture(autouse=True)
    def _over_budget(self, monkeypatch, exchanges):
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        yield
        assert "hash_partition" in exchanges


class TestJaccardVectorized:
    def test_matches_scalar_kernel(self, ray_session):
        """The vectorized integer-Jaccard verify must agree with the
        scalar jaccard_ngrams reference on every candidate pair."""
        import pyarrow as pa
        import ray.data

        from georay.dedup import jaccard_ngrams, jaccard_verify_pairs

        texts = [DOC, NEAR, FAR, "", "one two", DOC + " extra tail words here",
                 "one two", "a b c d e f g h"]
        ids = list(range(len(texts)))
        docs = pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string())})
        cand = [(a, b) for a in ids for b in ids if a < b]
        pairs = pa.table({"doc_a": pa.array([a for a, _ in cand], pa.int64()),
                          "doc_b": pa.array([b for _, b in cand], pa.int64())})
        out = jaccard_verify_pairs(
            ray.data.from_arrow(pairs), ray.data.from_arrow(docs),
            k=3, threshold_num=1, threshold_den=2,
        ).to_pandas()
        got = set(zip(out.doc_a, out.doc_b))
        want = {(a, b) for a, b in cand if jaccard_ngrams(texts[a], texts[b]) >= 0.5}
        assert got == want


class TestTextKeyIndependence:
    def test_two_keys_differ(self):
        # regression: [:16] slicing once collapsed both hash keys into one,
        # silently reducing the 128-bit dedup key to 64 bits
        import pyarrow as pa

        from georay.dedup import text_key_batch

        t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array(["alpha", "beta"], pa.string())})
        out = text_key_batch(t)
        h1 = out.column("h1").to_pylist()
        h2 = out.column("h2").to_pylist()
        assert h1 != h2  # independent hash functions


def _brute_bucket_pairs(t, max_bucket, keep=None):
    """Reference for band_bucket_pairs: a dict of buckets.  Returns
    ({(a, b): truncated}, number of truncated buckets left with no pair)."""
    buckets = {}
    for band, key, i in zip(*(t.column(c).to_pylist() for c in ("band", "key", "doc_id"))):
        buckets.setdefault((band, key), set()).add(i)
    pairs, markers = {}, 0
    for ids in buckets.values():
        ids = sorted(ids)
        truncated = len(ids) > max_bucket
        ids = ids[:max_bucket]
        found = [(a, b) for x, a in enumerate(ids) for b in ids[x + 1:]
                 if keep is None or keep(a, b)]
        for ab in found:
            pairs[ab] = pairs.get(ab, False) or truncated
        markers += truncated and not found
    return pairs, markers


class TestBandBucketPairs:
    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_matches_brute_force(self, ray_session, monkeypatch, num_partitions, filtered):
        """On the exchange route any partition count gives the brute-force
        pairs, truncation flags and marker count, with and without an
        inline payload filter."""
        import georay.dedup as dedup

        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        monkeypatch.setattr(dedup, "partitions", lambda *a, **k: num_partitions)
        self._check(filtered)

    @pytest.mark.parametrize("filtered", [False, True])
    def test_driver_route_matches_brute_force(self, ray_session, exchanges, filtered):
        """Within the budget the same brute-force check holds with no
        keyed exchange."""
        self._check(filtered)
        assert not exchanges

    @staticmethod
    def _check(filtered):
        import pyarrow as pa
        import ray.data

        import georay.dedup as dedup

        rng = np.random.default_rng(2)
        n = 300
        ids = rng.integers(0, 60, n)
        t = pa.table({
            "band": pa.array(rng.integers(0, 4, n), pa.int32()),
            "key": pa.array(rng.integers(0, 20, n), pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "sim": pa.array(ids * 7 % 11, pa.int64()),
        })
        kwargs = {"max_bucket": 5}
        keep = None
        if filtered:
            kwargs.update(payload_col="sim",
                          verify=pairwise(lambda a, b: (a + b) % 3 != 0))
            keep = lambda a, b: (a * 7 % 11 + b * 7 % 11) % 3 != 0  # noqa: E731
        out = dedup.band_bucket_pairs(ray.data.from_arrow(t).repartition(3), **kwargs).to_pandas()
        want, n_markers = _brute_bucket_pairs(t, 5, keep)
        real = out[out.doc_a >= 0]
        assert dict(zip(zip(real.doc_a, real.doc_b), real.truncated)) == want
        assert len(real) == len(want) > 0
        markers = out[out.doc_a < 0]
        assert len(markers) == n_markers and markers.doc_b.nunique() == n_markers
        assert any(want.values())  # the cap was hit


class TestApplyDedup:
    def test_drops_non_survivors_keeps_rest(self, ray_session):
        import pyarrow as pa
        import ray.data

        from georay.dedup import apply_dedup

        docs = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64())})
        res = pa.table({
            "doc_id": pa.array([1, 2, 4], pa.int64()),
            "survivor": pa.array([1, 1, 4], pa.int64()),
        })
        out = apply_dedup(
            ray.data.from_arrow(docs), ray.data.from_arrow(res)
        ).to_pandas()
        # 2 is a duplicate of 1; 1 and 4 are survivors; 3, 5 untouched
        assert sorted(out.doc_id) == [1, 3, 4, 5]

    def test_empty_resolution_passthrough(self, ray_session):
        import pyarrow as pa
        import ray.data

        from georay.dedup import apply_dedup

        docs = pa.table({"doc_id": pa.array([7, 8], pa.int64())})
        res = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "survivor": pa.array([], pa.int64()),
        })
        out = apply_dedup(
            ray.data.from_arrow(docs), ray.data.from_arrow(res)
        ).to_pandas()
        assert sorted(out.doc_id) == [7, 8]

    def test_resolution_with_schemaless_empty_blocks(self, ray_session):
        """Regression: a resolution table produced by a sort aggregate
        carries SCHEMALESS empty blocks for empty partitions (a hash join
        once rejected them with 'no match for key field dup_id') — the
        co-partitioned anti join must still see a typed build side."""
        import pyarrow as pa
        import ray.data
        from ray.data.aggregate import Min

        from georay.dedup import apply_dedup

        # groupby over 8 partitions of 3 rows -> mostly-empty partitions
        t = pa.table({"node": pa.array([2, 4, 5], pa.int64()),
                      "label": pa.array([1, 4, 4], pa.int64())})
        res = (
            ray.data.from_arrow(t).repartition(8)
            .groupby("node").aggregate(Min("label", alias_name="label"))
            .map_batches(
                lambda b: pa.table({"doc_id": b.column("node"), "survivor": b.column("label")})
                if b.num_rows else b,
                batch_format="pyarrow",
            )
        )
        docs = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64())})
        out = apply_dedup(ray.data.from_arrow(docs), res).to_pandas()
        # 2 (survivor 1) and 5 (survivor 4) are duplicates; 4 survives itself
        assert sorted(out.doc_id) == [1, 3, 4]


class TestDupSpans:
    def test_partial_kernel(self):
        import pyarrow as pa

        from georay.dedup import dup_span_partial

        b = pa.table({"doc_id": [1, 2, 3, 4], "text": [
            "a b c d e f g",
            "x a b c d e f",
            "too short",
            "a b c d e x y z a b c d e x",
        ]})
        t = dup_span_partial(b, w=5).to_pandas()
        # the shared window appears in docs 1, 2 and twice in doc 4
        rows = t[t.gram == "a b c d e"].sort_values("doc_id")
        assert list(rows.doc_id) == [1, 2, 4]
        assert list(rows.n_occ) == [1, 1, 2]
        # short docs emit nothing (no raw-token fallback for spans)
        assert (t.doc_id != 3).all()
        # every row is a full 5-token window
        assert (t.gram.str.split(" ").str.len() == 5).all()

    def test_empty_and_all_short(self):
        import pyarrow as pa

        from georay.dedup import dup_span_partial

        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "text": pa.array([], pa.string())})
        assert dup_span_partial(empty, w=5).num_rows == 0
        short = pa.table({"doc_id": [1], "text": ["a b"]})
        t = dup_span_partial(short, w=5)
        assert t.num_rows == 0 and t.column_names == ["h", "gram", "doc_id", "n_occ"]

    def test_dataset_end_to_end(self, ray_session):
        import pyarrow as pa
        import ray.data

        from georay.dedup import dup_spans

        docs = pa.table({"doc_id": list(range(6)), "text": [
            "the quick brown fox jumps over it",
            "a quick brown fox jumps over me",
            "unrelated words entirely here now ok",
            "the quick brown fox jumps again too",
            "tiny",
            "the quick brown fox jumps over it",  # exact dup of doc 0
        ]})
        out = dup_spans(ray.data.from_arrow(docs).repartition(3), w=5).to_pandas()
        got = {r.gram: (r.n_docs, r.n_occ) for r in out.itertuples()}
        # "quick brown fox jumps over" in docs 0, 1, 5
        assert got["quick brown fox jumps over"] == (3, 3)
        # "the quick brown fox jumps" in docs 0, 3, 5
        assert got["the quick brown fox jumps"] == (3, 3)
        # nothing with fewer than 2 docs leaks through
        assert (out.n_docs >= 2).all()


class TestClusterPartitionsRowsAware:
    """``georay.partition.partitions``, the sizing rule of every dedup
    exchange."""

    def test_scales_past_cap_with_known_rows(self, ray_session):
        import ray.data

        from georay.partition import partitions

        ds = ray.data.range(100_000).materialize()
        assert partitions(ds, rows_per_partition=100) == 1000  # ceil(100k/100)

    def test_small_data_keeps_cap_behavior(self, ray_session):
        """A few rows keep the cluster floor."""
        import ray.data

        from georay.partition import partitions

        ds = ray.data.range(10).materialize()
        assert partitions(ds) == partitions()
        assert partitions(n_rows=10, rows_per_partition=250_000) == partitions()

    def test_unknown_rows_unchanged(self, ray_session):
        import ray.data

        from georay.partition import partitions

        lazy = ray.data.range(1000).map_batches(lambda b: b)  # count unknown
        assert partitions(lazy, rows_per_partition=1) == partitions()

    def test_past_the_cap_raises_with_row_count(self, ray_session):
        """Sizing past MAX_PARTITIONS fails loudly instead of clamping
        (a clamped count silently grows every partition's share)."""
        from georay.partition import MAX_PARTITIONS, partitions

        class Huge:
            def _meta_count(self):
                return (MAX_PARTITIONS + 1) * 2_000_000

        with pytest.raises(ValueError, match=str((MAX_PARTITIONS + 1) * 2_000_000)):
            partitions(Huge())
        with pytest.raises(ValueError, match="rows at 250000 rows per partition"):
            partitions(Huge(), rows_per_partition=250_000)
        with pytest.raises(ValueError, match="MAX_PARTITIONS"):
            partitions(n_rows=(MAX_PARTITIONS + 1) * 250_000, rows_per_partition=250_000)
        # exactly at the cap still sizes
        assert partitions(n_rows=MAX_PARTITIONS * 250_000, rows_per_partition=250_000) == MAX_PARTITIONS


@pytest.fixture
def exchanges(monkeypatch):
    """Names of the keyed exchanges ``georay.dedup`` starts, in order:
    its own ``hash_partition``, the ``hash_partition`` that sets up the
    ``georay.graph`` engine for its components, and the ``copartition``
    that ``georay.partition.keyed_join`` starts for it."""
    import georay.dedup as dd
    import georay.graph
    import georay.partition

    calls = []
    for module, name in ((dd, "hash_partition"), (georay.graph, "hash_partition"),
                         (georay.partition, "copartition")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def _both_routes(monkeypatch, exchanges, run, exchange="copartition"):
    """``run()`` on the default (broadcast) route, then again with
    ``BROADCAST_BYTES = 0``, which forces every side over the budget onto
    the exchange route; checks that the first started no keyed exchange
    and the second started ``exchange``."""
    broadcast = run()
    assert not exchanges
    monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
    shuffled = run()
    assert exchange in exchanges
    return broadcast, shuffled


class TestComponentsExchangeRoute:
    """``connected_components`` past the budget (``BROADCAST_BYTES = 0``):
    FastSV on the ``georay.graph`` BSP engine."""

    @pytest.fixture(autouse=True)
    def _over_budget(self, monkeypatch):
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)

    def test_long_chain_converges_with_shortcutting(self, ray_session, exchanges):
        """A 200-node chain (diameter 199) inside max_iter=10: FastSV's
        shortcutting gives O(log d) rounds."""
        import ray.data

        from georay.dedup import connected_components

        n = 200
        pairs = pa.table({"doc_a": pa.array(np.arange(n - 1)), "doc_b": pa.array(np.arange(1, n))})
        out = connected_components(ray.data.from_arrow(pairs), max_iter=10).to_pandas()
        assert "hash_partition" in exchanges
        assert len(out) == n
        assert (out.survivor == 0).all()

    def test_empty(self, ray_session):
        import ray.data

        from georay.dedup import connected_components

        empty = pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
        assert len(connected_components(ray.data.from_arrow(empty)).to_pandas()) == 0

    def test_nonconvergence_raises(self, ray_session, exchanges):
        import ray.data

        from georay.dedup import connected_components

        pairs = pa.table({"doc_a": pa.array([1, 2], pa.int64()), "doc_b": pa.array([2, 3], pa.int64())})
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components(ray.data.from_arrow(pairs), max_iter=0)
        assert "hash_partition" in exchanges

    @pytest.mark.parametrize("n", [200, 1000])
    def test_random_id_paths_converge(self, ray_session, exchanges, n):
        """A path whose ids are in a random order converges within the
        default max_iter to the union-find labels: O(log n) rounds on any
        id order, where min-label propagation needs about one round per
        hop."""
        import ray.data

        from georay.dedup import connected_components

        pairs, want = _random_id_path(n)
        out = connected_components(ray.data.from_arrow(pairs)).to_pandas()
        assert "hash_partition" in exchanges
        assert dict(zip(out.doc_id, out.survivor)) == want

    @pytest.mark.parametrize("graph", ["seeded-0", "seeded-1", "path-200", "path-1000"])
    def test_rounds_match_the_driver_kernel(self, ray_session, exchanges, graph):
        """The exchange route runs ``fastsv_labels``' rounds: it succeeds
        at the smallest ``max_iter`` at which the kernel does, and raises
        one round short of it."""
        import ray.data

        from georay.dedup import connected_components, fastsv_labels

        kind, arg = graph.split("-")
        pairs, want = _seeded_graph(int(arg)) if kind == "seeded" else _random_id_path(int(arg))
        a, b = pairs.column("doc_a").to_numpy(), pairs.column("doc_b").to_numpy()
        nodes, idx = np.unique(np.concatenate([a, b]), return_inverse=True)

        def kernel_converges(max_iter):
            try:
                fastsv_labels(idx[: len(a)], idx[len(a):], len(nodes), max_iter)
            except RuntimeError:
                return False
            return True

        r = next(m for m in range(1, 33) if kernel_converges(m))
        assert r == {"path-200": 8, "path-1000": 11}.get(graph, r)
        out = connected_components(ray.data.from_arrow(pairs).repartition(4), max_iter=r).to_pandas()
        assert dict(zip(out.doc_id, out.survivor)) == want
        with pytest.raises(RuntimeError, match=f"did not converge in {r - 1} rounds"):
            connected_components(ray.data.from_arrow(pairs).repartition(4), max_iter=r - 1)
        assert "hash_partition" in exchanges


def _sorted_pairs(df):
    return sorted(zip(df.doc_a.tolist(), df.doc_b.tolist()))


class TestRouteParity:
    """Broadcast and exchange routes of the post-candidate dedup stages
    give identical output."""

    def test_jaccard_verify_pairs(self, ray_session, monkeypatch, exchanges):
        """On both routes each pair's verdict is pure-Python string-shingle
        set Jaccard against thresholds 0/1, 1/2, 9/10 and 1/1, with every
        id in many pairs, empty, whitespace-only and null texts, ids that
        are not positions, and pairs and docs in several sliced blocks.
        Two ids have a second corpus row with another text: each attached
        row is scored on its own texts."""
        from fractions import Fraction

        import ray.data

        from georay.dedup import jaccard_verify_pairs

        rng = np.random.default_rng(3)
        words = np.array(["a", "b", "c", "d", "é", "f"])
        base = " ".join(rng.choice(words, 30))
        texts = [base, base, base + " tail", base.rsplit(" ", 1)[0] + " z", "", None, "   ",
                 "a b", "b a", "a", DOC, NEAR, FAR] + [" ".join(rng.choice(words, rng.integers(1, 14)))
                                                       for _ in range(8)]
        ids = [100 + 7 * i for i in range(len(texts))][::-1]
        # a second text for two ids; the join attaches every row of an id
        again = {0: "x y z w v", 7: base + " tail"}
        texts_of = {i: [t] + ([again[i]] if i in again else []) for i, t in enumerate(texts)}
        # padding rows never appear in a pair: the joins carry them and drop them
        docs = pa.table({"doc_id": pa.array([1, 2] + ids + [ids[i] for i in again] + [3, 4], pa.int64()),
                         "text": pa.array(["unrelated filler text"] * 2 + texts + list(again.values())
                                          + [DOC] * 2, pa.string())})
        cand = [(a, b) for a in range(len(texts)) for b in range(len(texts)) if a < b]
        pairs = pa.table({"doc_a": pa.array([ids[a] for a, _ in cand], pa.int64()),
                          "doc_b": pa.array([ids[b] for _, b in cand], pa.int64())})
        lo, hi = 3, len(cand) - 2
        thresholds = [(0, 1), (1, 2), (9, 10), (1, 1)]

        def shingles(t):
            toks = (t or "").split()
            return set(toks) if len(toks) < 3 else {tuple(toks[i : i + 3]) for i in range(len(toks) - 2)}

        def verdict(ta, tb, num, den):
            sa, sb = shingles(ta), shingles(tb)
            return not (sa | sb) or Fraction(len(sa & sb), len(sa | sb)) >= Fraction(num, den)

        def run():
            pairs_ds = ray.data.from_arrow([pairs.slice(lo, 90), pairs.slice(lo + 90, 60),
                                            pairs.slice(lo + 150, hi - lo - 150)])
            docs_ds = ray.data.from_arrow([docs.slice(0, 9), docs.slice(9)])
            return {(num, den): _sorted_pairs(jaccard_verify_pairs(
                pairs_ds, docs_ds, threshold_num=num, threshold_den=den,
            ).to_pandas()) for num, den in thresholds}

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run)
        assert broadcast == shuffled
        for num, den in thresholds:
            want = sorted((ids[a], ids[b]) for a, b in cand[lo:hi]
                          for ta in texts_of[a] for tb in texts_of[b] if verdict(ta, tb, num, den))
            assert broadcast[(num, den)] == want, (num, den)
        # every threshold separates some pairs from others
        n_rows = sum(len(texts_of[a]) * len(texts_of[b]) for a, b in cand[lo:hi])
        assert len(broadcast[(0, 1)]) == n_rows > len(broadcast[(1, 2)]) > len(broadcast[(9, 10)])
        assert len(broadcast[(9, 10)]) > len(broadcast[(1, 1)]) > 0

    def test_near_dup_texts_over_budget_shuffle_only_candidates(self, ray_session, monkeypatch, exchanges):
        """``near_dup_pairs`` with the pairs' ids within the budget and the
        candidates' texts over it: the corpus streams past the broadcast
        ids and crosses no exchange, and each of verify's two
        co-partitions takes exactly the candidate rows."""
        import ray.data

        import georay.dedup as dd
        import georay.partition as gp

        rng = np.random.default_rng(4)
        vocab = np.array([f"w{i}" for i in range(5000)])
        docs = tbl([DOC, NEAR, DOC + " coda"] + [" ".join(rng.choice(vocab, 40)) for _ in range(20)])
        want = _sorted_pairs(dd.near_dup_pairs(ray.data.from_arrow(docs))[0].to_pandas())
        assert want and not exchanges
        n_cands = len({i for pair in want for i in pair})
        budget = 8 * 2 * len(want) + 1  # the (doc_a, doc_b) pairs fit, hence their ids
        assert budget < docs.slice(0, n_cands).nbytes

        real_candidates, real_copartition, sides = dd.candidate_pairs, gp.copartition, []

        def candidate_pairs(ds):  # the budget falls once the pairs are made
            out = real_candidates(ds)
            monkeypatch.setattr("georay.partition.BROADCAST_BYTES", budget)
            return out

        def copartition(left, right, *args):
            sides.append(right.count())
            return real_copartition(left, right, *args)

        monkeypatch.setattr(dd, "candidate_pairs", candidate_pairs)
        monkeypatch.setattr(gp, "copartition", copartition)
        out = dd.near_dup_pairs(ray.data.from_arrow(docs))[0].to_pandas()
        assert _sorted_pairs(out) == want
        assert exchanges == ["copartition"] * 2 and sides == [n_cands] * 2

    def test_jaccard_pairs_over_budget_stream_past_the_texts(self, ray_session, monkeypatch):
        """Many pairs over a few short texts, at a budget between the
        texts' bytes and the pairs': the pairs stream past the broadcast
        texts, so verify starts no keyed exchange (``copartition`` and
        ``hash_partition`` both sort through ``_exchange``), and it keeps
        the default route's pairs."""
        import ray.data

        import georay.partition as gp
        from georay.dedup import jaccard_verify_pairs

        rng = np.random.default_rng(8)
        docs = tbl([" ".join(rng.choice(["a", "b", "c", "d"], 5)) for _ in range(40)])
        a, b = np.triu_indices(docs.num_rows, 1)
        pairs = pa.table({"doc_a": pa.array(a, pa.int64()), "doc_b": pa.array(b, pa.int64())})

        def run():
            pairs_ds = ray.data.from_arrow([pairs.slice(0, 300), pairs.slice(300)])
            return _sorted_pairs(jaccard_verify_pairs(pairs_ds, ray.data.from_arrow(docs)).to_pandas())

        want = run()
        assert 0 < len(want) < pairs.num_rows
        budget = 4 * docs.nbytes
        assert budget < pairs.nbytes // 2
        exchanges = []
        monkeypatch.setattr(gp, "_exchange", lambda *a, _real=gp._exchange: exchanges.append(a) or _real(*a))
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", budget)
        assert run() == want
        assert not exchanges

    def test_band_bucket_pairs(self, ray_session, monkeypatch, exchanges):
        """Truncated buckets, with an inline filter: the same real pairs
        and flags on both routes, and as many marker rows (their
        ``doc_b`` depends on the partition count)."""
        import ray.data

        from georay.dedup import band_bucket_pairs

        rng = np.random.default_rng(7)
        n = 400
        ids = rng.integers(0, 80, n)
        t = pa.table({
            "band": pa.array(rng.integers(0, 4, n), pa.int32()),
            "key": pa.array(rng.integers(0, 12, n), pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "sim": pa.array(ids % 13, pa.int64()),
        })

        def run():
            out = band_bucket_pairs(
                ray.data.from_arrow(t).repartition(3), max_bucket=6,
                payload_col="sim", verify=pairwise(lambda a, b: a == b),
            ).to_pandas()
            real = out[out.doc_a >= 0]
            return dict(zip(zip(real.doc_a, real.doc_b), real.truncated)), int((out.doc_a < 0).sum())

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run, "hash_partition")
        assert broadcast == shuffled
        flags, n_markers = broadcast
        assert any(flags.values()) and not all(flags.values()) and n_markers > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_components_seeded_graphs(self, ray_session, monkeypatch, exchanges, seed):
        import ray.data

        from georay.dedup import connected_components

        pairs, want = _seeded_graph(seed)

        def run():
            out = connected_components(ray.data.from_arrow(pairs).repartition(4)).to_pandas()
            return dict(zip(out.doc_id, out.survivor))

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run, "hash_partition")
        assert broadcast == shuffled == want

    def test_components_chain_and_disjoint(self, ray_session, monkeypatch, exchanges):
        import ray.data

        from georay.dedup import connected_components

        pairs = pa.table({"doc_a": pa.array([1, 2, 3, 10], pa.int64()),
                          "doc_b": pa.array([2, 3, 4, 11], pa.int64())})

        def run():
            out = connected_components(ray.data.from_arrow(pairs)).to_pandas()
            return dict(zip(out.doc_id, out.survivor))

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run, "hash_partition")
        assert broadcast == shuffled == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}

    def test_apply_dedup(self, ray_session, monkeypatch, exchanges):
        import ray.data

        from georay.dedup import apply_dedup

        docs = tbl([f"doc {i}" for i in range(12)])
        res = pa.table({"doc_id": pa.array([1, 2, 4, 7, 9], pa.int64()),
                        "survivor": pa.array([1, 1, 4, 4, 1], pa.int64())})

        def run():
            out = apply_dedup(
                ray.data.from_arrow(docs).repartition(3), ray.data.from_arrow(res)
            ).to_pandas()
            return out.sort_values("doc_id").to_dict("list")

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run)
        assert broadcast == shuffled
        assert broadcast["doc_id"] == [0, 1, 3, 4, 5, 6, 8, 10, 11]

    def test_dedup_cli(self, ray_session, monkeypatch, exchanges, tmp_path, capsys):
        """``python -m georay dedup`` on planted near-duplicate clusters:
        the same survivors, resolution and summary on both routes, the
        survivors are exactly the planted ones, and the summary counts
        them for a local ``--out`` and a ``file://`` URI alike."""
        import json

        import pyarrow.parquet as pq
        import ray

        from georay.__main__ import main

        rng = np.random.default_rng(5)
        vocab = np.array([f"w{i}" for i in range(2000)])
        base = [rng.choice(vocab, 60) for _ in range(150)]
        texts, dups = [" ".join(t) for t in base], set()
        for c in range(20):  # cluster c: base doc c and 1-3 one-word edits
            for _ in range(1 + c % 3):
                t = base[c].copy()
                t[rng.integers(60)] = "edit"
                dups.add(len(texts))
                texts.append(" ".join(t))
        src = str(tmp_path / "docs.parquet")
        pq.write_table(tbl(texts), src)
        monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
        # the first run writes to a local path, the second to a file:// URI
        outs = iter([str(tmp_path / "out0"), (tmp_path / "out1").as_uri()])

        def run():
            out = next(outs)
            main(["dedup", "--input", src, "--out", out])
            summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            summary.pop("out")
            survivors = pq.read_table(f"{out}/survivors").sort_by("doc_id")
            resolution = pq.read_table(f"{out}/resolution").sort_by("doc_id")
            return summary, survivors.to_pydict(), resolution.to_pydict()

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run)
        assert broadcast == shuffled
        summary, survivors, _ = broadcast
        assert survivors["doc_id"] == sorted(set(range(len(texts))) - dups)
        assert summary["survivors"] == len(texts) - len(dups)

    def test_dedup_cli_hot_bucket_fails_loudly(self, ray_session, monkeypatch, exchanges, tmp_path,
                                               capsys):
        """A corpus whose copies overflow ``max_bucket`` (lowered to 4 so
        the corpus stays small): on both routes the CLI warns on stderr
        and its summary's ``truncated_candidates`` is nonzero, and the
        two summaries agree."""
        import functools
        import json

        import pyarrow.parquet as pq
        import ray

        import georay.dedup as dd
        from georay.__main__ import main

        capped = functools.partial(dd.band_bucket_pairs, max_bucket=4)
        monkeypatch.setattr(dd, "band_bucket_pairs", capped)
        src = str(tmp_path / "docs.parquet")
        pq.write_table(tbl([DOC] * 12 + [FAR, "one two three four five six"]), src)
        monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
        outs = iter([str(tmp_path / "out0"), str(tmp_path / "out1")])

        def run():
            main(["dedup", "--input", src, "--out", next(outs)])
            captured = capsys.readouterr()
            assert "flagged truncated" in captured.err
            summary = json.loads(captured.out.strip().splitlines()[-1])
            summary.pop("out")
            return summary

        broadcast, shuffled = _both_routes(monkeypatch, exchanges, run)
        assert broadcast == shuffled
        assert broadcast["truncated_candidates"] > 0


def test_dedup_read_tasks_run_at_once(ray_session, monkeypatch, tmp_path, capsys):
    """``python -m georay dedup`` over 4 files, on an object store capped
    at 200 MB (the share of perfbench's 400 MB store Ray Data plans
    with), runs two ``minhash_band_batch`` tasks at the same time.  Each
    call waits at a file barrier until another has started; a plan that
    admits one task at a time lets the first one time out.  Ray's global
    block target is left as it was."""
    import os
    import time
    import uuid

    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext, ExecutionResources

    import georay.dedup as dd
    from georay.__main__ import main

    barrier = str(tmp_path / "barrier")
    os.mkdir(barrier)
    real = dd.minhash_band_batch

    def minhash_band_batch(batch):
        open(f"{barrier}/started-{uuid.uuid4().hex}", "w").close()
        deadline = time.monotonic() + 30
        while sum(f.startswith("started-") for f in os.listdir(barrier)) < 2:
            if time.monotonic() > deadline:
                open(f"{barrier}/alone-{uuid.uuid4().hex}", "w").close()
                break
            time.sleep(0.05)
        return real(batch)

    monkeypatch.setattr(dd, "minhash_band_batch", minhash_band_batch)
    src = tmp_path / "docs"
    src.mkdir()
    for f in range(4):
        pq.write_table(tbl([f"file {f} doc {i} " + DOC for i in range(30)]), str(src / f"part-{f}.parquet"))
    ctx = DataContext.get_current()
    block_target = ctx.target_max_block_size
    monkeypatch.setattr(ctx.execution_options, "resource_limits",
                        ExecutionResources(object_store_memory=200 * 10**6))
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    main(["dedup", "--input", str(src), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    marks = os.listdir(barrier)
    assert not [m for m in marks if m.startswith("alone-")], marks
    assert sum(m.startswith("started-") for m in marks) >= 2
    assert DataContext.get_current().target_max_block_size == block_target


@pytest.mark.parametrize("budget", [None, 0])
def test_dedup_corpus_plans_run_a_task_per_cpu(ray_session, monkeypatch, tmp_path, capsys, budget):
    """``python -m georay dedup`` over 8 small files on the session's 4
    CPU slots reads the corpus in 4 tasks in each of its two corpus plans
    (the one read rule, ``georay.sources.read_parquet_grouped``), not in
    Ray's one task per file.  At ``BROADCAST_BYTES = 0`` the split's
    ``copartition`` tags the corpus in a map that takes whole blocks, so
    the tag map fuses into the read and keeps its tasks (a ``batch_size``
    on it kept it out of the read and bundled its 88 rows into one task)."""
    import re

    import pyarrow.parquet as pq
    import ray
    from ray.data._internal.plan import ExecutionPlan

    from georay.__main__ import main

    reads, real = {}, ExecutionPlan.execute

    def execute(plan, *args, **kwargs):
        out = real(plan, *args, **kwargs)
        # a union's inputs are its stats' parents; a later plan's stats
        # repeat the operators its inputs ran
        todo = [plan.stats().to_summary()]
        while todo:
            st = todo.pop()
            todo.extend(st.parents)
            for op in st.operators_stats:
                if op.operator_name.startswith("ReadParquet"):
                    m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str or "")
                    reads[op.operator_name, op.earliest_start_time] = int(m.group(1))
        return out

    monkeypatch.setattr(ExecutionPlan, "execute", execute)
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    if budget is not None:
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", budget)
    src = tmp_path / "docs"
    src.mkdir()
    for f in range(8):
        texts = [f"file {f} doc {i} " + FAR for i in range(10)] + [DOC if f % 2 else NEAR]
        pq.write_table(tbl(texts).set_column(0, "doc_id", pa.array(range(f * 11, f * 11 + 11))),
                       str(src / f"part-{f}.parquet"))
    assert int(ray.cluster_resources()["CPU"]) == 4
    main(["dedup", "--input", str(src), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    names = [name for name, _ in reads]
    split = "ReadParquet->MapBatches(KeyedJoin)->Write" if budget is None else "ReadParquet->MapBatches(fn)"
    assert names.count("ReadParquet->MapBatches(minhash_band_batch)") == 1, reads
    assert split in names and set(reads.values()) == {4}, reads


def test_dedup_cli_runs_two_plans(ray_session, monkeypatch, tmp_path, capsys):
    """A default ``python -m georay dedup`` starts tasks in two plans: the
    MinHash read and the split pass, which reads the corpus again and
    writes it.  No ``IdFilter`` map runs: the candidates' texts come from
    the split's driver table.  Every driver table reaches the next stage
    as it is, so no plan of a ``FromArrow`` or ``FromBlocks`` operator
    alone runs (a plan of its ``InputData`` alone is the no-op
    ``materialize`` executes, which starts no task)."""
    import pyarrow.parquet as pq
    import ray
    from ray.data._internal.plan import ExecutionPlan

    from georay.__main__ import main

    def operators(plan) -> set:
        todo, names = [plan._logical_plan.dag], set()
        while todo:
            op = todo.pop()
            names.add(op.name)
            todo.extend(op.input_dependencies)
        return names

    plans, real = [], ExecutionPlan.execute

    def execute(plan, *args, **kwargs):
        if not plan.has_computed_output():
            plans.append(operators(plan))
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "execute", execute)
    monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(tbl([DOC, NEAR, FAR] + [f"doc {i} " + FAR for i in range(20)]), src)
    main(["dedup", "--input", src, "--out", str(tmp_path / "out")])
    capsys.readouterr()
    driver = {"FromArrow", "FromBlocks"}
    ran = [ops - {"InputData"} for ops in plans]
    assert not [ops for ops in ran if ops and ops <= driver], plans
    tasks = [ops for ops in ran if ops - driver]
    assert len(tasks) == 2, plans
    minhash, split = tasks
    assert "MapBatches(minhash_band_batch)" in minhash and "Write" not in minhash, plans
    assert "ReadParquet" in split and "Write" in split, plans
    assert not [ops for ops in tasks if "MapBatches(IdFilter)" in ops], plans


def _planted_corpus(src, files: int = 3) -> set:
    """150 base docs and 20 clusters of one-word edits of them, with a
    ``url`` column the MinHash read does not take, shuffled into ``files``
    parquet files under the directory ``src``; -> the ids of the edits."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    vocab = np.array([f"w{i}" for i in range(2000)])
    base = [rng.choice(vocab, 60) for _ in range(150)]
    texts, dups = [" ".join(t) for t in base], set()
    for c in range(20):
        for _ in range(1 + c % 3):
            t = base[c].copy()
            t[rng.integers(60)] = "edit"
            dups.add(len(texts))
            texts.append(" ".join(t))
    docs = tbl(texts).append_column("url", pa.array([f"https://x/{i}" for i in range(len(texts))]))
    for k, rows in enumerate(np.array_split(rng.permutation(len(texts)), files)):
        pq.write_table(docs.take(rows), f"{src}/part-{k}.parquet")
    return dups


def _dedup_cli(src, out, capsys):
    """``python -m georay dedup`` -> (summary without ``out``, sorted
    survivor rows, sorted resolution rows or ``{}``)."""
    import json

    import pyarrow.parquet as pq

    from georay.__main__ import main

    main(["dedup", "--input", str(src), "--out", str(out)])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    summary.pop("out")
    keys = [("doc_id", "ascending"), ("text", "ascending")]
    resolution = pq.read_table(f"{out}/resolution")  # no column when it has no file
    return (summary, pq.read_table(f"{out}/survivors").sort_by(keys).to_pydict(),
            resolution.sort_by("doc_id").to_pydict() if resolution.num_columns else {})


class TestCandidateSplit:
    """``python -m georay dedup``'s split pass: the docs no candidate pair
    names go straight to ``survivors/``, and verify, components and apply
    see the candidates alone, on every route."""

    @pytest.fixture(autouse=True)
    def _keep_session(self, monkeypatch):
        import ray

        monkeypatch.setattr(ray, "shutdown", lambda *a, **k: None)

    def test_routes_give_the_default_outputs(self, ray_session, monkeypatch, tmp_path, capsys):
        """At a budget between the pairs' and the candidates' bytes (the
        candidates come back as a read, their survivors are appended by a
        plan) and at ``BROADCAST_BYTES = 0``, the CLI writes the default
        run's survivor and resolution rows.  At 0 exactly one exchange
        takes the whole corpus, the split's; every other exchange of
        texts takes the candidates alone."""
        import pyarrow.parquet as pq
        from ray.data._internal.plan import ExecutionPlan

        import georay.dedup as dd
        import georay.partition as gp
        from georay.partition import driver_table

        src = tmp_path / "docs"
        src.mkdir()
        dups = _planted_corpus(src)
        n_docs = 150 + len(dups)
        seen, split = [], dd.split_candidates

        def split_candidates(docs, pairs, out):
            cands = split(docs, pairs, out)
            seen.append((driver_table(pairs), driver_table(cands)))
            return cands

        monkeypatch.setattr(dd, "split_candidates", split_candidates)
        default = _dedup_cli(src, tmp_path / "out0", capsys)
        assert default[1]["doc_id"] == sorted(set(range(n_docs)) - dups)
        assert default[0]["clustered_docs"] > 0
        pairs, cands = seen[0]
        assert pairs is not None and cands is not None and pairs.nbytes < cands.nbytes

        plans, real_execute = [], ExecutionPlan.execute

        def execute(plan, *args, **kwargs):
            if not plan.has_computed_output():
                todo, names = [plan._logical_plan.dag], set()
                while todo:
                    op = todo.pop()
                    names.add(op.name)
                    todo.extend(op.input_dependencies)
                plans.append(names - {"InputData"})
            return real_execute(plan, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "execute", execute)
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", (pairs.nbytes + cands.nbytes) // 2)
        assert _dedup_cli(src, tmp_path / "out1", capsys) == default
        assert seen[1][0] is not None and seen[1][1] is None
        # MinHash, split, verify's read of _candidates/ (no map: the texts
        # join the pairs as read), apply's read of it (kept on disk)
        reads = [ops for ops in plans if "ReadParquet" in ops]
        assert len(reads) == 4 and reads[2] == {"ReadParquet"}, plans
        for f in (tmp_path / "out1" / "survivors").iterdir():
            md = pq.read_metadata(f)
            assert {md.row_group(0).column(j).compression for j in range(md.num_columns)} == {"ZSTD"}

        texts = []

        def record(ds):
            if "text" in ds.schema().names:
                texts.append(ds.count())

        def copartition(left, right, *args, _real=gp.copartition):
            record(left)
            record(right)
            return _real(left, right, *args)

        monkeypatch.setattr(gp, "copartition", copartition)
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        assert _dedup_cli(src, tmp_path / "out2", capsys) == default
        assert texts.count(n_docs) == 1, texts
        assert len(texts) > 1 and max(n for n in texts if n != n_docs) == cands.num_rows, texts

    def test_repeated_and_null_ids(self, ray_session, tmp_path, capsys):
        """A ``doc_id`` on two rows and a null ``doc_id``: the survivors are
        the rows ``apply_dedup`` keeps from the whole corpus."""
        import pyarrow.parquet as pq
        import ray.data

        from georay.dedup import apply_dedup

        texts = [DOC, NEAR, DOC, NEAR, FAR, "one two three four five six", DOC + " coda"]
        ids = [1, 2, 2, None, 5, None, 7]
        src = str(tmp_path / "docs.parquet")
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}), src)
        summary, survivors, _ = _dedup_cli(src, tmp_path / "out", capsys)
        whole = apply_dedup(ray.data.read_parquet(src), ray.data.read_parquet(str(tmp_path / "out/resolution")))
        want = pa.Table.from_pandas(whole.to_pandas(), preserve_index=False)
        assert survivors == want.sort_by([("doc_id", "ascending"), ("text", "ascending")]).to_pydict()
        assert summary["dropped"] > 0
        assert survivors["doc_id"].count(None) == 2 and 2 not in survivors["doc_id"]

    def test_no_pair_keeps_every_row(self, ray_session, monkeypatch, tmp_path, capsys):
        """Every doc survives, ``resolution/`` is empty and the candidates
        are a typed empty driver table."""
        import os

        import pyarrow.parquet as pq

        import georay.dedup as dd
        from georay.partition import driver_table

        seen, split = [], dd.split_candidates
        monkeypatch.setattr(dd, "split_candidates", lambda *a: seen.append(split(*a)) or seen[-1])
        rng = np.random.default_rng(9)
        vocab = np.array([f"w{i}" for i in range(5000)])
        docs = tbl([" ".join(rng.choice(vocab, 40)) for _ in range(30)])
        src = str(tmp_path / "docs.parquet")
        pq.write_table(docs, src)
        summary, survivors, resolution = _dedup_cli(src, tmp_path / "out", capsys)
        assert survivors == docs.sort_by("doc_id").to_pydict()
        assert resolution == {} and os.listdir(tmp_path / "out/resolution") == []
        assert (summary["clustered_docs"], summary["dropped"]) == (0, 0)
        assert sorted(os.listdir(tmp_path / "out")) == ["resolution", "survivors"]
        assert driver_table(seen[0]).schema == docs.schema and driver_table(seen[0]).num_rows == 0

    def test_candidates_are_deleted_when_verify_raises(self, ray_session, monkeypatch, tmp_path):
        import os

        import pyarrow.parquet as pq

        import georay.dedup as dd
        from georay.__main__ import main

        out = tmp_path / "out"

        def broken(*args, **kwargs):
            assert os.listdir(out / "_candidates")  # the split wrote them
            raise RuntimeError("verify failed")

        monkeypatch.setattr(dd, "jaccard_verify_pairs", broken)
        src = str(tmp_path / "docs.parquet")
        pq.write_table(tbl([DOC, NEAR, FAR]), src)
        with pytest.raises(RuntimeError, match="verify failed"):
            main(["dedup", "--input", src, "--out", str(out)])
        assert sorted(os.listdir(out)) == ["resolution", "survivors"]

    def test_killed_split_task_leaves_no_duplicate(self, ray_session, monkeypatch, tmp_path, capsys):
        """A split write task whose worker dies after it has written
        ``survivors/`` and before ``_candidates/`` is retried by Ray Data;
        the retry writes the same file names, so the survivors and the
        resolution are a clean run's and no doc is written twice."""
        import os

        import georay.dedup as dd

        src = tmp_path / "docs"
        src.mkdir()
        _planted_corpus(src)
        clean = _dedup_cli(src, tmp_path / "clean", capsys)
        marker = str(tmp_path / "first-attempt")
        route = dd._split_route

        def route_or_die(docs):
            for rel, table in route(docs):
                if rel == "_candidates":
                    try:
                        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                    except FileExistsError:
                        pass
                    else:
                        os._exit(1)
                yield rel, table

        monkeypatch.setattr(dd, "_split_route", route_or_die)
        got = _dedup_cli(src, tmp_path / "out", capsys)
        assert os.path.exists(marker)
        assert got == clean
        assert len(set(got[1]["doc_id"])) == len(got[1]["doc_id"])
