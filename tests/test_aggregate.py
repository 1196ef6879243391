"""Keyed aggregates: the derived combiner and merger, ``keyed_agg``
against one Ray-free group_by."""

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
        self, ray_session, force_partitions, num_partitions
    ):
        """The cell aggregate over six blocks equals one group_by of
        every row, whatever the partition count."""
        import ray.data

        sized = force_partitions(num_partitions)
        rng = np.random.default_rng(4)
        blocks = [
            geo_batch(rng.integers(0, 90, 500), lons=rng.uniform(-180, 180, 500),
                      lats=rng.uniform(-90, 90, 500), ts=rng.integers(0, 10**15, 500))
            for _ in range(6)
        ]
        want = _want(pa.concat_tables(blocks), "cell", CELL_AGGS)
        got = _got(ray.data.from_arrow(blocks), "cell", CELL_AGGS)
        assert len(want) == 90
        assert got == want and sized

    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    @pytest.mark.parametrize("on", ["i", "s", ["s", "t"]], ids=["int", "str", "str_ts"])
    def test_keys_and_ops(self, ray_session, force_partitions, num_partitions, on):
        import ray.data

        sized = force_partitions(num_partitions)
        blocks = [_rows(300, seed) for seed in range(5)]
        want = _want(pa.concat_tables(blocks), on, ALL_OPS)
        assert len(want) > 1
        assert _got(ray.data.from_arrow(blocks), on, ALL_OPS) == want and sized

    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    def test_one_hot_key(self, ray_session, force_partitions, num_partitions):
        """Every row under one key: one output row, every op exact."""
        import ray.data

        sized = force_partitions(num_partitions)
        blocks = [_rows(300, seed).set_column(0, "i", pa.array([7] * 300, pa.int64()))
                  for seed in range(5)]
        want = _want(pa.concat_tables(blocks), "i", ALL_OPS)
        assert len(want) == 1 and want[0]["n"] == 1500
        assert _got(ray.data.from_arrow(blocks), "i", ALL_OPS) == want and sized

    def test_exchange_is_sized_by_the_input_rows(self, ray_session, monkeypatch):
        """The exchange is sized by the rows of the input's source, which
        a materialized or freshly read Dataset knows for free, through
        the lazy partials, whose own count is unknown."""
        import ray.data

        import georay.partition as gp

        seen, real = [], gp.partitions

        def sizer(*datasets):
            seen.append(real(*datasets))
            return seen[-1]

        monkeypatch.setattr(gp, "ROWS_PER_PARTITION", 100)
        monkeypatch.setattr(gp, "partitions", sizer)
        blocks = [_rows(300, seed) for seed in range(5)]
        ds = ray.data.from_arrow(blocks).materialize()
        assert _got(ds, "i", ALL_OPS) == _want(pa.concat_tables(blocks), "i", ALL_OPS)
        assert seen == [max(15, 2 * int(ray_session.cluster_resources()["CPU"]))]

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

    def test_empty_table_keeps_the_output_columns(self, ray_session):
        """A typed input with no row gives no row, under the typed output
        columns: Ray runs no kernel over an empty partition, so only the
        typed empty result ``keyed_agg`` hands the exchange carries them."""
        import ray.data

        empty = _rows(10, 0).slice(0, 0)
        want = merger(["s", "t"], ALL_OPS)(combiner(["s", "t"], ALL_OPS)(empty)).schema
        out = keyed_agg(ray.data.from_arrow(empty), ["s", "t"], ALL_OPS)
        assert out.count() == 0
        assert out.schema().base_schema == want

    def test_kernel_names_say_which_aggregate(self):
        assert cell_partial_agg.__name__ == "cell_partial_agg"
        assert merge_cell_partials.__name__ == "merge_cell_partials"
        assert combiner(["h1", "h2"], {"k": ("id", "min")}).__name__ == "h1_h2_partial_agg"

    def test_unmergeable_op_raises(self):
        """pyarrow would run ``mean`` per block, and the merge would then
        average the averages."""
        with pytest.raises(ValueError, match="mean"):
            combiner("k", {"m": ("v", "mean")})


def _empty_docs():
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()), "n_chars": pa.array([], pa.int64()),
    }))


def _empty_embeddings():
    import ray.data

    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()), "label": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))


def _schema(ds):
    assert ds.count() == 0
    return ds.schema().base_schema


def _i64(*names):
    return [(n, pa.int64()) for n in names]


def _bm25(tmp_path):
    from georay.search import bm25_topk

    stats = {"n_docs": 1, "n_tokens": 1, "df": {"a": 0}}  # forces pass 2 over no row
    return _schema(bm25_topk(_empty_docs(), ["a"], stats=stats)), pa.schema(_i64("doc_id", "score_q"))


def _corpus_stats(tmp_path):
    from georay.search import corpus_stats

    return corpus_stats(_empty_docs(), ["a", "b"]), {"n_docs": 0, "n_tokens": 0, "df": {"a": 0, "b": 0}}


def _top_ngrams(tmp_path):
    from georay.text import top_ngrams

    return _schema(top_ngrams(_empty_docs())), pa.schema([("ngram", pa.string()), ("cnt", pa.int64())])


def _percentiles(tmp_path):
    from georay.sketch import grouped_percentiles

    got = _schema(grouped_percentiles(_empty_docs(), "lang", "n_chars"))
    return got, pa.schema([("lang", pa.string()), ("p", pa.float64()), ("value", pa.int64())])


def _group_counts(tmp_path):
    from georay.sample import group_counts

    return group_counts(_empty_docs()), {}


def _eval_shingles(tmp_path):
    from georay.decontam import eval_shingle_set

    h = eval_shingle_set(_empty_docs())
    return (h.dtype, len(h)), (np.dtype(np.uint64), 0)


def _merge_topk(tmp_path):
    import ray.data

    from georay.ann import merge_topk_partials

    partials = ray.data.from_arrow(pa.table({
        "query_id": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64()),
        "cosine": pa.array([], pa.float64()),
    }))
    t = merge_topk_partials(partials, k=3)
    return (list(t.columns), len(t)), (["query_id", "vec_id", "rank"], 0)


def _label_centroids(tmp_path):
    from georay.ann import label_centroids

    got = _schema(label_centroids(_empty_embeddings()))
    return got, pa.schema(_i64("label", "pos", "n") + [("centroid", pa.float64())])


def _zonal_stats(tmp_path):
    import ray
    import ray.data

    from georay.pipelines.polygons import polygon_payload
    from georay.raster import ZONAL, zonal_stats

    raster = ray.data.from_arrow(pa.table({
        "tile_x": pa.array([], pa.int64()), "tile_y": pa.array([], pa.int64()),
        "band": pa.array([], pa.list_(pa.int64())), "n_docs": pa.array([], pa.int64()),
        "n_px": pa.array([], pa.int64()),
    }))
    return _schema(zonal_stats(raster, ray.put(polygon_payload()))), ZONAL


def _pack(tmp_path):
    from georay.pack import pack_sequences

    got = _schema(pack_sequences(_empty_docs(), seq_len=4, key_max=10))  # pass 1 runs
    return got, pa.schema(_i64("doc_id", "n_tokens", "tok_offset", "bin"))


def _top_customers(tmp_path):
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    pq.write_table(pa.table({"o_custkey": pa.array([], pa.int64()),
                             "o_totalprice": pa.array([], pa.float64())}), tmp_path / "orders.parquet")
    pq.write_table(pa.table({"c_custkey": pa.array([], pa.int64()),
                             "c_name": pa.array([], pa.string())}), tmp_path / "customer.parquet")
    got = _schema(entry._q_top_customers(str(tmp_path)))
    return got, pa.schema(_i64("o_custkey") + [("c_name", pa.string())] + _i64("total_cents", "n_orders"))


class TestDriverMerge:
    def test_skips_empty_parts_and_returns_empty_when_no_row_arrives(self):
        from georay.stages.aggregate import driver_merge

        seen = []

        def merge(t):
            seen.append(t.num_rows)
            return t

        none = pa.table({"x": pa.array([], pa.int64())})
        assert driver_merge([none, none], merge, "empty") == "empty" and seen == []
        got = driver_merge([none, pa.table({"x": [1, 2]}), none, pa.table({"x": [3]})], merge, None)
        assert got.column("x").to_pylist() == [1, 2, 3] and 0 not in seen

    @pytest.mark.parametrize("reducer", [
        _bm25, _corpus_stats, _top_ngrams, _percentiles, _group_counts, _eval_shingles,
        _merge_topk, _label_centroids, _zonal_stats, _pack, _top_customers,
    ], ids=lambda f: f.__name__.lstrip("_"))
    def test_every_keyless_reducer_types_its_empty_result(self, ray_session, tmp_path, reducer):
        """Each reducer that merges through ``driver_merge``, given an
        input with no row, returns its typed empty result."""
        got, want = reducer(tmp_path)
        assert got == want
