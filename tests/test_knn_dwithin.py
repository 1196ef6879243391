"""kNN cell-expansion correctness vs brute force; DWithin polygon joins."""

import numpy as np
import pyarrow as pa
import pytest

from georay.crs.geodesy import haversine_m
from georay.stages.join import DWithinJoin, KNNJoin


def brute_knn(qlat, qlon, rlat, rlon, rids, k):
    """Reference top-k by (haversine, ref_id)."""
    d = haversine_m(qlat[:, None], qlon[:, None], rlat[None, :], rlon[None, :])
    order = np.argsort(rids, kind="stable")
    d = d[:, order]
    ids = rids[order]
    top = np.argsort(d, axis=1, kind="stable")[:, :k]
    return ids[top]


def make_refs(n, seed=5):
    rng = np.random.default_rng(seed)
    return {
        "ref_id": np.arange(n, dtype=np.int64),
        "lon": rng.uniform(-180, 180, n),
        "lat": rng.uniform(-85, 85, n),
    }


class TestKnnGridPath:
    def run_grid(self, refs, qlon, qlat, k, index_res=5):
        actor = KNNJoin.__new__(KNNJoin)
        actor.__init__(refs, k=k, index_res=index_res, exact=False)
        actor.brute = False  # force the cell-expansion path
        batch = pa.table(
            {
                "doc_id": pa.array(np.arange(len(qlon)), pa.int64()),
                "lon": pa.array(qlon, pa.float64()),
                "lat": pa.array(qlat, pa.float64()),
            }
        )
        out = actor(batch)
        got = {}
        for did, rid, rank in zip(
            out.column("doc_id").to_pylist(),
            out.column("ref_id").to_pylist(),
            out.column("rank").to_pylist(),
        ):
            got.setdefault(did, {})[rank] = rid
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        refs = make_refs(3000, seed=7)
        rng = np.random.default_rng(seed)
        qlon = rng.uniform(-180, 180, 200)
        qlat = rng.uniform(-85, 85, 200)
        got = self.run_grid(refs, qlon, qlat, k=5)
        want = brute_knn(qlat, qlon, refs["lat"], refs["lon"], refs["ref_id"], 5)
        for i in range(len(qlon)):
            assert [got[i][r] for r in range(1, 6)] == list(want[i]), f"query {i}"

    def test_antimeridian_queries(self):
        refs = make_refs(2000, seed=9)
        qlon = np.array([179.9, -179.9, 179.5, -179.5])
        qlat = np.array([10.0, -20.0, 45.0, 60.0])
        got = self.run_grid(refs, qlon, qlat, k=3)
        want = brute_knn(qlat, qlon, refs["lat"], refs["lon"], refs["ref_id"], 3)
        for i in range(4):
            assert [got[i][r] for r in range(1, 4)] == list(want[i])

    def test_polar_queries_fall_back_exhaustive(self):
        refs = make_refs(1000, seed=11)
        qlon = np.array([0.0, 120.0])
        qlat = np.array([84.5, -84.9])
        got = self.run_grid(refs, qlon, qlat, k=4)
        want = brute_knn(qlat, qlon, refs["lat"], refs["lon"], refs["ref_id"], 4)
        for i in range(2):
            assert [got[i][r] for r in range(1, 5)] == list(want[i])

    def test_sparse_refs_force_expansion(self):
        # 8 refs only: every query must expand far before the guarantee holds
        refs = make_refs(8, seed=13)
        rng = np.random.default_rng(3)
        qlon = rng.uniform(-180, 180, 50)
        qlat = rng.uniform(-70, 70, 50)
        got = self.run_grid(refs, qlon, qlat, k=3, index_res=6)
        want = brute_knn(qlat, qlon, refs["lat"], refs["lon"], refs["ref_id"], 3)
        for i in range(50):
            assert [got[i][r] for r in range(1, 4)] == list(want[i])


class TestDWithinPolygon:
    # Atkinson / Jericho fixtures: ~7.6 km apart
    def test_point_near_polygon(self):
        # square polygon around Jericho; Atkinson is ~7.6 km away
        ring = np.array(
            [[-123.2065, 49.2706], [-123.1965, 49.2706], [-123.1965, 49.2806],
             [-123.2065, 49.2806], [-123.2065, 49.2706]]
        )
        actor = DWithinJoin.__new__(DWithinJoin)
        actor.__init__(
            [{"polygon_id": "jericho-box", "exterior": ring, "holes": [], "epsg": 4326}],
            distance_m=8000.0,
        )
        batch = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "url": pa.array(["a", "b"], pa.string()),
                "lon": pa.array([-123.2646, -120.0], pa.float64()),
                "lat": pa.array([49.3304, 40.0], pa.float64()),
            }
        )
        out = actor(batch)
        assert out.column("doc_id").to_pylist() == [1]  # Atkinson within 8 km, far point not
        d = out.column("distance_m").to_pylist()[0]
        assert 5000 < d < 8000

    def test_beyond_is_negation(self):
        ring = np.array(
            [[-123.2065, 49.2706], [-123.1965, 49.2706], [-123.1965, 49.2806],
             [-123.2065, 49.2806], [-123.2065, 49.2706]]
        )
        payload = [{"polygon_id": "jericho-box", "exterior": ring, "holes": [], "epsg": 4326}]
        within = DWithinJoin(payload, distance_m=8000.0)
        beyond = DWithinJoin(payload, distance_m=8000.0, beyond=True)
        batch = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "url": pa.array(["a", "b"], pa.string()),
                "lon": pa.array([-123.2646, -120.0], pa.float64()),
                "lat": pa.array([49.3304, 40.0], pa.float64()),
            }
        )
        w = within(batch).column("doc_id").to_pylist()
        b = beyond(batch).column("doc_id").to_pylist()
        assert w == [1] and b == [2]

    def test_interior_point_distance_zero(self):
        ring = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        actor = DWithinJoin(
            [{"polygon_id": "sq", "exterior": ring, "holes": [], "epsg": 4326}], distance_m=10.0
        )
        batch = pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "url": pa.array(["a"], pa.string()),
                "lon": pa.array([0.5], pa.float64()),
                "lat": pa.array([0.5], pa.float64()),
            }
        )
        out = actor(batch)
        assert out.column("distance_m").to_pylist() == [0.0]


class TestGridTieBreak:
    def test_equidistant_refs_pick_lower_id(self):
        # two refs exactly mirrored about the query longitude, in different
        # index cells, higher id placed in the lower-ordered cell
        refs = {
            "ref_id": np.array([7, 3], dtype=np.int64),
            "lon": np.array([10.0, -10.0]),  # ref 7 east, ref 3 west
            "lat": np.array([0.0, 0.0]),
        }
        actor = KNNJoin.__new__(KNNJoin)
        actor.__init__(refs, k=1, index_res=4, exact=False)
        actor.brute = False
        batch = pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "lon": pa.array([0.0], pa.float64()),
                "lat": pa.array([0.0], pa.float64()),
            }
        )
        out = actor(batch)
        assert out.column("ref_id").to_pylist() == [3]  # smaller id wins the tie
