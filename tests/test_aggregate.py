"""Keyed aggregates: the derived combiner and merger, ``keyed_agg``
against one Ray-free group_by, hot-cell salting."""

import numpy as np
import pyarrow as pa
import pytest

from georay.stages.aggregate import (
    CELL_AGGS,
    cell_partial_agg,
    combiner,
    keyed_agg,
    merge_cell_partials,
    merger,
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
        final = keyed_agg(ds, "cell", CELL_AGGS).to_pandas().set_index("cell")
        assert final.loc[42, "n_docs"] == int((cells_arr == 42).sum())
        assert final["n_docs"].sum() == n


def _want(t: pa.Table, on, aggs) -> list:
    """The aggregate as one Ray-free group_by over every row, sorted."""
    keys = [on] if isinstance(on, str) else list(on)
    g = t.group_by(keys).aggregate(list(aggs.values())).rename_columns(keys + list(aggs))
    return sorted(g.to_pylist(), key=lambda r: tuple(r[k] for k in keys))


def _got(ds, on, aggs) -> list:
    keys = [on] if isinstance(on, str) else list(on)
    return sorted(keyed_agg(ds, on, aggs).to_pandas().to_dict("records"),
                  key=lambda r: tuple(r[k] for k in keys))


#: every op, over an int, a float and a string column
ALL_OPS = {
    "n": ("v", "count"),
    "total": ("v", "sum"),
    "lo": ("x", "min"),
    "hi": ("x", "max"),
    "last_w": ("w", "max"),
}


def _rows(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({
        "i": pa.array(rng.integers(0, 40, n), pa.int64()),
        "s": pa.array([f"k{j}" for j in rng.integers(0, 25, n)], pa.string()),
        "t": pa.array(rng.integers(0, 4, n) * 3_600_000_000, pa.timestamp("us")),
        "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
        "x": pa.array(rng.uniform(-180, 180, n), pa.float64()),
        "w": pa.array([f"w{j}" for j in rng.integers(0, 1000, n)], pa.string()),
    })


class TestKeyedAgg:
    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    def test_any_partition_count_gives_the_ray_free_merge(
        self, ray_session, monkeypatch, num_partitions
    ):
        """The cell aggregate over six blocks equals one group_by of
        every row, whatever the partition count."""
        import ray.data

        import georay.stages.aggregate as agg

        monkeypatch.setattr(agg, "partitions", lambda *a, **k: num_partitions)
        rng = np.random.default_rng(4)
        blocks = [
            geo_batch(rng.integers(0, 90, 500), lons=rng.uniform(-180, 180, 500),
                      lats=rng.uniform(-90, 90, 500), ts=rng.integers(0, 10**15, 500))
            for _ in range(6)
        ]
        want = _want(pa.concat_tables(blocks), "cell", CELL_AGGS)
        got = _got(ray.data.from_arrow(blocks), "cell", CELL_AGGS)
        assert len(want) == 90
        assert got == want

    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    @pytest.mark.parametrize("on", ["i", "s", ["s", "t"]], ids=["int", "str", "str_ts"])
    def test_keys_and_ops(self, ray_session, monkeypatch, num_partitions, on):
        import ray.data

        import georay.stages.aggregate as agg

        monkeypatch.setattr(agg, "partitions", lambda *a, **k: num_partitions)
        blocks = [_rows(300, seed) for seed in range(5)]
        want = _want(pa.concat_tables(blocks), on, ALL_OPS)
        assert len(want) > 1
        assert _got(ray.data.from_arrow(blocks), on, ALL_OPS) == want

    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    def test_one_hot_key(self, ray_session, monkeypatch, num_partitions):
        """Every row under one key: one output row, every op exact."""
        import ray.data

        import georay.stages.aggregate as agg

        monkeypatch.setattr(agg, "partitions", lambda *a, **k: num_partitions)
        blocks = [_rows(300, seed).set_column(0, "i", pa.array([7] * 300, pa.int64()))
                  for seed in range(5)]
        want = _want(pa.concat_tables(blocks), "i", ALL_OPS)
        assert len(want) == 1 and want[0]["n"] == 1500
        assert _got(ray.data.from_arrow(blocks), "i", ALL_OPS) == want

    def test_kernels_keep_the_typed_schema_when_empty(self):
        empty = _rows(10, 0).slice(0, 0)
        part = combiner(["s", "t"], ALL_OPS)(empty)
        want = pa.schema([
            ("s", pa.string()), ("t", pa.timestamp("us")), ("n", pa.int64()),
            ("total", pa.int64()), ("lo", pa.float64()), ("hi", pa.float64()),
            ("last_w", pa.string()),
        ])
        assert part.num_rows == 0 and part.schema == want
        # one empty chunk per column: Ray reads zero chunks as no schema
        assert all(c.num_chunks == 1 for c in part.columns)
        merged = merger(["s", "t"], ALL_OPS)(part)
        assert merged.num_rows == 0 and merged.schema == want

    def test_kernel_names_say_which_aggregate(self):
        assert cell_partial_agg.__name__ == "cell_partial_agg"
        assert merge_cell_partials.__name__ == "merge_cell_partials"
        assert combiner(["h1", "h2"], {"k": ("id", "min")}).__name__ == "h1_h2_partial_agg"

    def test_unmergeable_op_raises(self):
        """pyarrow would run ``mean`` per block, and the merge would then
        average the averages."""
        with pytest.raises(ValueError, match="mean"):
            combiner("k", {"m": ("v", "mean")})


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
