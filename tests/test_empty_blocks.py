"""Every stage must pass empty blocks through cleanly — at scale, blocks
routinely become empty after filters, and one crashing kernel kills the
whole streaming job."""

import pyarrow as pa

from georay.extract import extract_all_geo_batch, extract_geo_batch
from georay.stages.aggregate import cell_partial_agg, merge_cell_partials
from georay.stages.geo import Reproject, cellize, filter_has_geo


def no_geo_pages():
    return pa.table(
        {
            "url": ["a", "b"],
            "warc_ts": pa.array([0, 1], pa.timestamp("us")),
            "html": [b"<html>x</html>", b"<html>y</html>"],
            "text": ["x", "y"],
            "lang": ["en", "en"],
            "doc_id": pa.array([1, 2], pa.int64()),
        }
    )


class TestEmptyBlocks:
    def test_kernel_chain_on_all_filtered_batch(self):
        b = filter_has_geo(extract_geo_batch(no_geo_pages(), keep_text=False))
        assert b.num_rows == 0
        b = cellize(Reproject(4326)(b), 7)
        assert b.num_rows == 0
        p = cell_partial_agg(b.append_column("dummy", pa.array([], pa.int64())).drop_columns(["dummy"]))
        assert p.num_rows == 0
        assert merge_cell_partials(p).num_rows == 0

    def test_extract_all_on_no_geo(self):
        assert extract_all_geo_batch(no_geo_pages()).num_rows == 0

    def test_e2e_pipeline_all_no_geo(self, ray_session, tmp_path):
        """The flagship over pages none of which has a coordinate: the lazy
        route gives no join rows and no cells, and with ``out_dir`` the
        three outputs are empty directories."""
        import os

        import ray.data

        from georay.pipelines.flagship import flagship

        joined, agg = flagship(ray.data.from_arrow(no_geo_pages()))
        assert (joined.count(), agg.count()) == (0, 0)
        out = tmp_path / "run"
        counts = flagship(ray.data.from_arrow(no_geo_pages()), out_dir=str(out))
        assert counts["join_rows"]["rows"] == counts["tiles"]["rows"] == 0
        assert sorted(os.listdir(out)) == ["cell_agg", "join_rows", "tiles"]
        assert all(os.listdir(out / d) == [] for d in os.listdir(out))

    def test_oracle_check_keeps_typed_empty_columns(self, ray_session):
        """``tools/check_correctness.py`` compares a typed empty result's
        columns with its oracle's: ``Dataset.to_pandas()`` drops them."""
        import importlib.util
        import pathlib

        import pandas as pd
        import ray.data

        path = pathlib.Path(__file__).parents[1] / "tools" / "check_correctness.py"
        spec = importlib.util.spec_from_file_location("check_correctness", path)
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        typed = pa.table({"cell": pa.array([], pa.int64()), "name": pa.array([], pa.string())})
        got = check.to_pandas(ray.data.from_arrow(typed))
        assert len(got) == 0
        assert {c: str(t) for c, t in got.dtypes.items()} == {"cell": "int64", "name": "object"}
        assert check.to_pandas(ray.data.from_arrow(pa.table({"cell": [7]}))).cell.tolist() == [7]
        # a lazy empty result: its one run gives the schema
        lazy = ray.data.from_arrow(pa.table({"cell": [7]})).map_batches(
            lambda b: b.slice(0, 0).append_column("name", pa.array([], pa.string())),
            batch_format="pyarrow")
        assert list(check.to_pandas(lazy).columns) == ["cell", "name"]
        # a pandas-format empty result has no Arrow schema: Ray's frame as is
        frame = pd.DataFrame({"cell": [7]})
        empty = ray.data.from_pandas(frame).map_batches(lambda b: b.iloc[:0], batch_format="pandas")
        assert len(check.to_pandas(empty)) == 0


class TestEmptyAnnAndLsh:
    def test_brute_force_knn_empty_batch(self):
        import numpy as np

        from georay.ann import BruteForceKNN

        actor = BruteForceKNN(
            {"query_id": np.array([0]), "vectors": np.ones((1, 4))}, k=3
        )
        empty = pa.table(
            {"vec_id": pa.array([], pa.int64()), "embedding": pa.array([], pa.list_(pa.float32()))}
        )
        out = actor(empty)
        assert out.num_rows == 0

    def test_lsh_keys_empty_batch(self, ray_session):
        import ray.data

        from georay.dedup import embed_lsh_pairs

        empty = pa.table(
            {"vec_id": pa.array([], pa.int64()), "embedding": pa.array([], pa.list_(pa.float32()))}
        )
        out = embed_lsh_pairs(ray.data.from_arrow(empty), threshold=0.5)
        assert out.count() == 0
