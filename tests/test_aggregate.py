"""Per-cell aggregation: combiner correctness, keyed merge, hot-cell salting."""

import numpy as np
import pyarrow as pa
import pytest

from georay.stages.aggregate import (
    cell_partial_agg,
    final_cell_agg,
    merge_cell_partials,
    salt_column,
    sample_hot_cells,
)


def geo_batch(cells_arr, lons=None, lats=None, ts=None):
    n = len(cells_arr)
    return pa.table(
        {
            "cell": pa.array(cells_arr, pa.int64()),
            "lon": pa.array(lons if lons is not None else np.zeros(n), pa.float64()),
            "lat": pa.array(lats if lats is not None else np.zeros(n), pa.float64()),
            "warc_ts": pa.array(
                ts if ts is not None else np.zeros(n, dtype="int64"), pa.timestamp("us")
            ),
        }
    )


class TestCombiner:
    def test_partial_one_row_per_cell(self):
        b = geo_batch([1, 1, 2, 1], lons=[1.0, 5.0, 2.0, -3.0], lats=[0.0, 1.0, 2.0, 3.0])
        p = cell_partial_agg(b)
        assert p.num_rows == 2
        row = {c: p.column(c).to_pylist() for c in p.column_names}
        i = row["cell"].index(1)
        assert row["n_docs"][i] == 3
        assert row["minlon"][i] == -3.0 and row["maxlon"][i] == 5.0

    def test_merge_associative(self):
        p1 = cell_partial_agg(geo_batch([1, 2], lons=[1.0, 2.0]))
        p2 = cell_partial_agg(geo_batch([1, 3], lons=[9.0, 3.0]))
        merged = merge_cell_partials(pa.concat_tables([p1, p2]))
        assert merged.num_rows == 3
        r = {c: merged.column(c).to_pylist() for c in merged.column_names}
        i = r["cell"].index(1)
        assert r["n_docs"][i] == 2 and r["maxlon"][i] == 9.0

    def test_hot_cell_skew_end_to_end(self, ray_session):
        """90% of rows in one cell: the combiner bounds shuffle input to
        one row per (block, cell); final counts stay exact."""
        import ray.data

        n = 20000
        rng = np.random.default_rng(0)
        cells_arr = np.where(rng.random(n) < 0.9, 42, rng.integers(100, 200, n))
        ds = ray.data.from_arrow(geo_batch(cells_arr)).repartition(8)
        partials = ds.map_batches(cell_partial_agg, batch_format="pyarrow")
        # each block contributes at most #distinct cells rows
        total_partial_rows = partials.count()
        assert total_partial_rows <= 8 * 102
        final = final_cell_agg(partials).to_pandas().set_index("cell")
        assert final.loc[42, "n_docs"] == int((cells_arr == 42).sum())
        assert final["n_docs"].sum() == n


class TestFinalCellAgg:
    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    def test_any_partition_count_gives_the_ray_free_merge(
        self, ray_session, monkeypatch, num_partitions
    ):
        import ray.data

        import georay.stages.aggregate as agg

        monkeypatch.setattr(agg, "partitions", lambda *a, **k: num_partitions)
        rng = np.random.default_rng(4)
        parts = []
        for _ in range(6):
            n = 500
            parts.append(cell_partial_agg(geo_batch(
                rng.integers(0, 90, n), lons=rng.uniform(-180, 180, n),
                lats=rng.uniform(-90, 90, n), ts=rng.integers(0, 10**15, n),
            )))
        partials = pa.concat_tables(parts)
        want = merge_cell_partials(partials).to_pandas().sort_values("cell", ignore_index=True)
        ds = ray.data.from_arrow(partials).repartition(3)
        got = agg.final_cell_agg(ds).to_pandas().sort_values("cell", ignore_index=True)
        assert len(want) == 90
        assert got.equals(want[got.columns])


class TestSalting:
    def test_salt_spreads_hot_key_only(self):
        key = np.array([7, 7, 7, 7, 8, 8], dtype=np.int64)
        ids = np.arange(6, dtype=np.int64)
        salt = salt_column(key, ids, {7: 4})
        assert (salt[key == 8] == 0).all()
        assert len(np.unique(salt[key == 7])) > 1  # hot key fans out

    def test_sample_hot_cells_finds_hot(self, ray_session):
        import ray.data

        n = 5000
        rng = np.random.default_rng(1)
        cells_arr = np.where(rng.random(n) < 0.5, 42, rng.integers(0, 40, n))
        ds = ray.data.from_arrow(geo_batch(cells_arr))
        hot = sample_hot_cells(ds, threshold_frac=0.2, sample_frac=1.0)
        assert 42 in hot
        assert all(v >= 1 for v in hot.values())
