"""pagerank: hash-partitioned integer fixed-point PageRank."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from georay.graph import LINK_A, LINK_B, SCALE


def _serial_pagerank(edges: pd.DataFrame, iters: int) -> pd.DataFrame:
    nodes = np.unique(np.concatenate([edges.src.to_numpy(), edges.dst.to_numpy()]))
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    r = np.full(n, SCALE // n, np.int64)
    base = (15 * (SCALE // n)) // 100
    outdeg = edges.groupby("src").size()
    for _ in range(iters):
        new = np.full(n, base, np.int64)
        share = (85 * pd.Series(r, index=nodes) // 100) // outdeg
        for s, d in zip(edges.src, edges.dst):
            new[idx[d]] += share[s]
        r = new
    return pd.DataFrame({"node": nodes, "pr": r})


class TestPagerank:
    def test_matches_serial(self):
        from georay.graph import pagerank

        rng = np.random.default_rng(3)
        edges = pd.DataFrame({
            "src": rng.integers(0, 40, 200).astype(np.int64),
            "dst": rng.integers(0, 40, 200).astype(np.int64),
        })
        got = (
            pagerank(ray.data.from_pandas(edges).repartition(4), iters=3)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        want = _serial_pagerank(edges, 3).sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(got.astype(np.int64), want.astype(np.int64))

    def test_inlink_less_node_gets_base(self):
        from georay.graph import pagerank

        # 0 -> 1 -> 2; node 0 has no inlinks
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        out = pagerank(ray.data.from_pandas(edges), iters=2).to_pandas()
        out = out.set_index("node").pr
        n = 3
        base = (15 * (SCALE // n)) // 100
        assert out[0] == base  # nothing flows into 0 after round 1
        # rank order reflects the chain: 2 accumulates most
        assert out[2] > out[1] > out[0]

    def test_rank_sum_conserved_without_dangling(self):
        from georay.graph import pagerank

        # a cycle: every node outdeg 1, no dangling loss beyond rounding
        k = 12
        edges = pd.DataFrame({"src": np.arange(k), "dst": (np.arange(k) + 1) % k})
        out = pagerank(ray.data.from_pandas(edges), iters=4).to_pandas()
        # uniform fixpoint: every node keeps the same rank
        assert out.pr.nunique() == 1

    def test_synthesize_outlinks(self):
        from georay.graph import synthesize_outlinks_batch

        b = pa.table({"doc_id": pa.array([0, 7, 41], pa.int64())})
        t = synthesize_outlinks_batch(b, num_nodes=100, k=3).to_pandas()
        assert len(t) == 9
        for s in (0, 7, 41):
            dsts = t[t.src == s].dst.tolist()
            assert dsts == [(s * LINK_A + j * LINK_B) % 100 for j in (1, 2, 3)]

    def test_empty_edges(self):
        from georay.graph import pagerank

        ds = ray.data.from_arrow(pa.table({
            "src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64()),
        }))
        out = pagerank(ds, iters=2)
        assert out.count() == 0


def _serial_pagerank_dangling(edges: pd.DataFrame, iters: int) -> pd.DataFrame:
    """Reference with uniform damped dangling-mass redistribution,
    identical integer recurrence to the engine/SQL."""
    nodes = np.unique(np.concatenate([edges.src.to_numpy(), edges.dst.to_numpy()]))
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    r = np.full(n, SCALE // n, np.int64)
    base = (15 * (SCALE // n)) // 100
    outdeg = edges.groupby("src").size()
    has_out = np.isin(nodes, edges.src.unique())
    for _ in range(iters):
        d = int(r[~has_out].sum())
        extra = (85 * d // 100) // n
        new = np.full(n, base + extra, np.int64)
        share = (85 * pd.Series(r, index=nodes) // 100) // outdeg
        for s, dd in zip(edges.src, edges.dst):
            new[idx[dd]] += share[s]
        r = new
    return pd.DataFrame({"node": nodes, "pr": r})


class TestPagerankDangling:
    def _edges(self):
        rng = np.random.default_rng(9)
        # sources drawn from 0..19 only; dsts up to 39 -> nodes 20..39
        # (when not sources) are dangling
        return pd.DataFrame({
            "src": rng.integers(0, 20, 150).astype(np.int64),
            "dst": rng.integers(0, 40, 150).astype(np.int64),
        })

    def test_redistribute_matches_serial(self):
        from georay.graph import pagerank

        edges = self._edges()
        got = (
            pagerank(ray.data.from_pandas(edges).repartition(4), iters=3,
                     dangling="redistribute")
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        want = (_serial_pagerank_dangling(edges, 3)
                .sort_values("node").reset_index(drop=True))
        pd.testing.assert_frame_equal(got.astype(np.int64), want.astype(np.int64))

    def test_redistribute_differs_from_keep_when_dangling_exists(self):
        from georay.graph import pagerank

        edges = self._edges()
        ds = ray.data.from_pandas(edges)
        keep = pagerank(ds, iters=2).to_pandas().pr.sum()
        redist = pagerank(ds, iters=2, dangling="redistribute").to_pandas().pr.sum()
        assert redist > keep  # redistributed mass stays in the system

    def test_invalid_dangling_raises(self):
        import pytest
        from georay.graph import pagerank

        with pytest.raises(ValueError):
            pagerank(ray.data.from_pandas(self._edges()), dangling="drop")


class TestPagerankConvergence:
    def test_huge_tol_stops_after_one_round(self):
        from georay.graph import pagerank

        rng = np.random.default_rng(4)
        edges = pd.DataFrame({
            "src": rng.integers(0, 30, 100).astype(np.int64),
            "dst": rng.integers(0, 30, 100).astype(np.int64),
        })
        ds = ray.data.from_pandas(edges)
        one = pagerank(ds, iters=1).to_pandas().sort_values("node")
        early = pagerank(ds, iters=10, tol=SCALE).to_pandas().sort_values("node")
        pd.testing.assert_frame_equal(
            one.reset_index(drop=True), early.reset_index(drop=True))

    def test_tiny_tol_runs_all_rounds(self):
        from georay.graph import pagerank

        rng = np.random.default_rng(5)
        edges = pd.DataFrame({
            "src": rng.integers(0, 30, 100).astype(np.int64),
            "dst": rng.integers(0, 30, 100).astype(np.int64),
        })
        ds = ray.data.from_pandas(edges)
        full = pagerank(ds, iters=4).to_pandas().sort_values("node")
        tiny = pagerank(ds, iters=4, tol=0).to_pandas().sort_values("node")
        # tol=0 never triggers on a non-degenerate graph at 4 rounds
        pd.testing.assert_frame_equal(
            full.reset_index(drop=True), tiny.reset_index(drop=True))


class TestHashPartitionRefs:
    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_each_ref_holds_its_own_partition(self, ray_session, p):
        """Every ref's rows hash to the partition it is filed under, only
        the asked-for columns travel, and the refs together are the input."""
        from georay.graph import _hash_partition_refs
        from georay.partition import part_of

        rng = np.random.default_rng(p)
        n = 2000
        edges = pa.table({
            "src": pa.array(rng.integers(0, 300, n), pa.int64()),
            "dst": pa.array(rng.integers(0, 300, n), pa.int64()),
            "w": pa.array(np.ones(n), pa.float64()),
        })
        by_part = _hash_partition_refs(
            ray.data.from_arrow(edges).repartition(5), "src", p, ["src", "dst"])
        assert set(by_part) <= set(range(p))
        got = []
        for q, refs in by_part.items():
            for t in ray.get(refs):
                assert t.column_names == ["src", "dst"]
                assert (part_of(t.column("src"), p) == q).all()
                got.append(t)
        union = pa.concat_tables(got)
        assert sorted(zip(union.column("src").to_pylist(), union.column("dst").to_pylist())) == \
            sorted(zip(edges.column("src").to_pylist(), edges.column("dst").to_pylist()))
