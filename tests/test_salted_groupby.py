"""Dataset union and limit over a skewed table (one hot cell)."""

import numpy as np
import pyarrow as pa


def skewed_table(n=6000, hot_cell=42, hot_frac=0.8, seed=3):
    rng = np.random.default_rng(seed)
    cells_arr = np.where(rng.random(n) < hot_frac, hot_cell, rng.integers(100, 120, n))
    return pa.table(
        {
            "cell": pa.array(cells_arr, pa.int64()),
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "value": pa.array(rng.random(n), pa.float64()),
        }
    )


class TestSaltedGroupby:
    def test_union_and_limit_ops(self, ray_session):
        import ray.data

        t = skewed_table(1000)
        ds1 = ray.data.from_arrow(t.slice(0, 500))
        ds2 = ray.data.from_arrow(t.slice(500))
        u = ds1.union(ds2)
        assert u.count() == 1000
        assert u.limit(7).count() == 7
