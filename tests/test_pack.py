"""pack_sequences: distributed exclusive token prefix-scan."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray


def _docs(n, seed=7):
    rng = np.random.default_rng(seed)
    texts = [" ".join(f"w{j}" for j in range(rng.integers(0, 9))) for _ in range(n)]
    ids = rng.permutation(n).astype(np.int64)  # unordered on purpose
    return pd.DataFrame({"doc_id": ids, "text": [texts[i] for i in range(n)]})


def _expected(df, seq_len):
    d = df.sort_values("doc_id").reset_index(drop=True)
    nt = d.text.str.split().map(len).to_numpy(np.int64)
    off = np.cumsum(nt) - nt
    return pd.DataFrame({
        "doc_id": d.doc_id.to_numpy(),
        "n_tokens": nt,
        "tok_offset": off,
        "bin": off // seq_len,
    })


class TestPackSequences:
    @pytest.mark.parametrize("num_buckets,parts", [(4, 3), (4096, None)])
    def test_matches_serial_scan(self, num_buckets, parts):
        from georay.pack import pack_sequences

        df = _docs(200)
        ds = ray.data.from_pandas(df).repartition(5)
        out = (
            pack_sequences(ds, seq_len=16, num_buckets=num_buckets,
                           num_partitions=parts)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = _expected(df, 16)
        pd.testing.assert_frame_equal(
            out.astype(np.int64), want.astype(np.int64)
        )

    def test_zero_token_docs_share_offset(self):
        from georay.pack import pack_sequences

        df = pd.DataFrame({
            "doc_id": np.arange(5, dtype=np.int64),
            "text": ["a b", "", "", "c", ""],
        })
        out = (
            pack_sequences(ray.data.from_pandas(df), seq_len=2, num_buckets=2)
            .to_pandas().sort_values("doc_id")
        )
        assert list(out.tok_offset) == [0, 2, 2, 2, 3]
        assert list(out.bin) == [0, 1, 1, 1, 1]

    def test_key_max_hint_too_low_still_correct(self):
        from georay.pack import pack_sequences

        df = _docs(64)
        out = (
            pack_sequences(ray.data.from_pandas(df), seq_len=8,
                           num_buckets=4, key_max=7)  # hint far below max id
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        want = _expected(df, 8)
        pd.testing.assert_frame_equal(out.astype(np.int64), want.astype(np.int64))

    def test_empty_corpus_typed(self):
        from georay.pack import pack_sequences

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
        }))
        out = pack_sequences(ds, seq_len=4)
        assert out.count() == 0
        assert set(out.schema().names) == {"doc_id", "n_tokens", "tok_offset", "bin"}


class TestPass1TreeMerge:
    def test_nonlocal_ids_tree_path_matches_direct(self, monkeypatch):
        """With ids deliberately shuffled across many blocks (no key
        locality) and the direct-concat gate forced to 2 blocks, pass 1
        must route through the remote fan-in reduce and still produce the
        exact scan; driver-side concat sees at most
        ceil(blocks/fanout) x num_buckets rows."""
        import georay.pack as pack_mod

        monkeypatch.setattr(pack_mod, "_DIRECT_MERGE_MAX_BLOCKS", 2)
        monkeypatch.setattr(pack_mod, "_MERGE_FANOUT", 3)
        df = _docs(300, seed=11)  # ids are a random permutation: non-local
        ds = ray.data.from_pandas(df).repartition(12)
        out = (
            pack_mod.pack_sequences(ds, seq_len=16, num_buckets=8)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        want = _expected(df, 16)
        pd.testing.assert_frame_equal(out.astype(np.int64), want.astype(np.int64))

    def test_driver_concat_bounded(self, monkeypatch):
        """The ref list handed to the final driver concat never exceeds
        the gate, regardless of input block count."""
        import georay.pack as pack_mod

        monkeypatch.setattr(pack_mod, "_DIRECT_MERGE_MAX_BLOCKS", 2)
        monkeypatch.setattr(pack_mod, "_MERGE_FANOUT", 2)
        seen = []
        real = pack_mod._bucket_sums_partial_merge

        def spy(t):
            seen.append(t.num_rows)
            return real(t)

        monkeypatch.setattr(pack_mod, "_bucket_sums_partial_merge", spy)
        df = _docs(200, seed=3)
        ds = ray.data.from_pandas(df).repartition(10)
        pack_mod.pack_sequences(ds, seq_len=16, num_buckets=4).to_pandas()
        # driver-side merge input: <= gate x num_buckets rows (remote
        # fan-in tasks run the unpatched module-level function, so `seen`
        # records only the driver call)
        assert seen and seen[0] <= 2 * 4


class TestDataAwarePartitions:
    """``georay.partition.partitions``, the one sizing rule, as the
    pack shuffle uses it."""

    def test_partition_count_scales_with_rows(self, ray_session):
        from georay.partition import partitions

        ds = ray.data.range(5000)  # row count is free plan metadata
        assert partitions(ds, rows_per_partition=10) == 500

    def test_explicit_override_wins(self, ray_session, monkeypatch):
        """An explicit ``num_partitions`` is used as is: the sizer is
        never consulted."""
        import georay.pack as pack_mod

        def sizer(*args, **kwargs):
            raise AssertionError("sized despite an explicit num_partitions")

        monkeypatch.setattr(pack_mod, "partitions", sizer)
        df = _docs(100)
        out = (
            pack_mod.pack_sequences(ray.data.from_pandas(df), seq_len=16, num_partitions=7)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out.astype(np.int64), _expected(df, 16).astype(np.int64))

    def test_unknown_rows_falls_back_to_cluster(self, ray_session):
        from georay.partition import partitions

        floor = max(4, 2 * int(ray.cluster_resources()["CPU"]))
        assert partitions() == floor
        lazy = ray.data.range(10**6).map_batches(lambda b: b)  # count unknown
        assert partitions(lazy, rows_per_partition=10) == floor
