"""ANN: brute-force cosine top-k and IVF bucketed search."""

import numpy as np

from georay.ann import cosine_topk


def make_vecs(n=200, d=16, seed=3):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    return v, np.arange(n, dtype=np.int64)


class TestBruteForce:
    def test_self_is_nearest(self):
        v, ids = make_vecs()
        top_ids, sims = cosine_topk(v[:5], v, ids, k=3)
        np.testing.assert_array_equal(top_ids[:, 0], ids[:5])
        np.testing.assert_allclose(sims[:, 0], 1.0, atol=1e-12)

    def test_matches_naive(self):
        v, ids = make_vecs(50, 8)
        q = v[:3]
        top_ids, _ = cosine_topk(q, v, ids, k=5)
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        for i in range(3):
            sims = unit @ unit[i]
            want = np.argsort(-sims, kind="stable")[:5]
            np.testing.assert_array_equal(top_ids[i], want)

    def test_tie_break_by_id(self):
        v = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # 0 and 1 colinear
        ids = np.array([7, 3, 9])
        top_ids, _ = cosine_topk(np.array([[1.0, 0.0]]), v, ids, k=2)
        np.testing.assert_array_equal(top_ids[0], [3, 7])  # equal sim -> smaller id first


class TestTieBreakAtKBoundary:
    def test_duplicate_vectors_pick_lowest_ids(self):
        # 1000 identical candidates: top-5 must be ids 0..4 (sim desc, id asc)
        v = np.tile(np.array([[1.0, 2.0, 3.0]]), (1000, 1))
        ids = np.arange(1000, dtype=np.int64)
        top_ids, sims = cosine_topk(v[:1], v, ids, k=5)
        np.testing.assert_array_equal(top_ids[0], [0, 1, 2, 3, 4])
        np.testing.assert_allclose(sims[0], 1.0)


class TestIVFSearchActor:
    """Distributed IVF shape: centroids from a sample, probe as a
    broadcast batch map; exact with nprobe=n_lists, high recall partial."""

    def _partials(self, vecs, ids, queries, qids, k, nprobe, batch=64):
        import pyarrow as pa

        from georay.ann import IVFSearch, lloyd_centroids

        centroids = lloyd_centroids(vecs[: max(32, len(vecs) // 4)], n_lists=8)
        actor = IVFSearch(
            {"query_id": qids, "vectors": queries, "centroids": centroids},
            k=k, nprobe=nprobe,
        )
        outs = []
        for s in range(0, len(vecs), batch):
            t = pa.table({
                "vec_id": pa.array(ids[s : s + batch]),
                "embedding": pa.array(list(vecs[s : s + batch])),
            })
            outs.append(actor(t))
        return pa.concat_tables(outs)

    def _merge(self, part, k):
        df = part.to_pandas()
        df = df.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True], kind="stable")
        return df.groupby("query_id").head(k)

    def test_deterministic(self):
        """Centroids, probe lists and partials: two runs give equal rows."""
        v, ids = make_vecs(100, 8)
        a = self._partials(v, ids, v[:3], ids[:3], 3, nprobe=4)
        b = self._partials(v, ids, v[:3], ids[:3], 3, nprobe=4)
        assert a.equals(b) and a.num_rows > 0

    def test_full_probe_exact(self):
        import numpy as np

        from georay.ann import cosine_topk

        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((300, 16))
        ids = np.arange(300, dtype=np.int64)
        queries = vecs[:3]
        got = self._merge(self._partials(vecs, ids, queries, ids[:3], 5, nprobe=8), 5)
        want_ids, _ = cosine_topk(queries, vecs, ids, 5)
        for qi in range(3):
            g = got[got.query_id == qi].vec_id.to_numpy()
            assert list(g) == list(want_ids[qi])

    def test_partial_probe_recall(self):
        import numpy as np

        from georay.ann import cosine_topk

        rng = np.random.default_rng(9)
        vecs = rng.standard_normal((400, 16))
        ids = np.arange(400, dtype=np.int64)
        queries = vecs[:4]
        got = self._merge(self._partials(vecs, ids, queries, ids[:4], 5, nprobe=3), 5)
        want_ids, _ = cosine_topk(queries, vecs, ids, 5)
        hits = total = 0
        for qi in range(4):
            g = set(got[got.query_id == qi].vec_id.tolist())
            w = set(want_ids[qi].tolist())
            hits += len(g & w)
            total += len(w)
        assert hits / total >= 0.5
