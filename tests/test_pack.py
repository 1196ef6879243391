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
    def test_matches_serial_scan(self, num_buckets, parts, force_partitions):
        """``parts`` fixes the exchange's partition count (None: sized by
        ``partitions()``)."""
        import georay.pack as pack_mod

        sized = force_partitions(parts) if parts else None
        df = _docs(200)
        ds = ray.data.from_pandas(df).repartition(5)
        out = (
            pack_mod.pack_sequences(ds, seq_len=16, num_buckets=num_buckets)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = _expected(df, 16)
        pd.testing.assert_frame_equal(
            out.astype(np.int64), want.astype(np.int64)
        )
        assert sized is None or sized  # a forced count reached the exchange

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


class TestPass1DriverMerge:
    def test_nonlocal_ids_over_many_blocks_match_serial_scan(self):
        """Pass 1 merges its bucket partials on the driver as the blocks
        stream.  With ids shuffled across many blocks (no key locality,
        so every block touches most buckets), merges interleave with
        arriving blocks and the scan must still be exact."""
        from georay.pack import pack_sequences

        df = _docs(300, seed=11)  # ids are a random permutation: non-local
        ds = ray.data.from_pandas(df).repartition(24)
        out = (
            pack_sequences(ds, seq_len=16, num_buckets=8)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        want = _expected(df, 16)
        pd.testing.assert_frame_equal(out.astype(np.int64), want.astype(np.int64))


class TestDataAwarePartitions:
    """``georay.partition.partitions``, the one sizing rule, as the
    pack shuffle uses it."""

    def test_partition_count_scales_with_rows(self, ray_session, monkeypatch):
        import georay.partition as gp

        monkeypatch.setattr(gp, "ROWS_PER_PARTITION", 10)
        ds = ray.data.range(5000)  # row count is free plan metadata
        assert gp.partitions(ds) == 500

    def test_unknown_rows_falls_back_to_cluster(self, ray_session, monkeypatch, tmp_path):
        """A lazy map keeps its source's row count; a source that reports
        none gets the cluster floor."""
        import georay.partition as gp

        monkeypatch.setattr(gp, "ROWS_PER_PARTITION", 10)
        floor = max(4, 2 * int(ray.cluster_resources()["CPU"]))
        assert gp.partitions() == floor
        lazy = ray.data.range(10**4).map_batches(lambda b: b)  # no count of its own
        assert gp.partitions(lazy) == 1000
        (tmp_path / "lines.txt").write_text("x\n" * 1000)
        unknown = ray.data.read_text(str(tmp_path / "lines.txt")).map_batches(lambda b: b)
        assert gp.partitions(unknown) == floor
