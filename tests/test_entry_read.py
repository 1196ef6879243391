"""The session read memo of ``__ray_entry__._read`` caches small tables only."""

import pyarrow as pa
import pyarrow.parquet as pq

import __ray_entry__ as entry


def _write_dir_table(path, n_files=3, rows=2000):
    path.mkdir()
    for i in range(n_files):
        pq.write_table(pa.table({"x": list(range(i * rows, (i + 1) * rows))}), path / f"part-{i}.parquet")


class TestReadMemo:
    def test_directory_over_the_cap_is_not_memoized(self, ray_session, tmp_path, monkeypatch):
        _write_dir_table(tmp_path / "big.parquet")
        size = entry._size_on_disk(str(tmp_path / "big.parquet"))
        assert size > 3 * 4096  # more than the directory entry's own size
        monkeypatch.setattr(entry, "_READ_CACHE_MAX_BYTES", size - 1)
        monkeypatch.setattr(entry, "_READ_CACHE", {})
        ds = entry._read(str(tmp_path), "big")
        assert entry._READ_CACHE == {}
        assert ds.count() == 6000

    def test_directory_under_the_cap_is_memoized(self, ray_session, tmp_path, monkeypatch):
        _write_dir_table(tmp_path / "small.parquet")
        monkeypatch.setattr(entry, "_READ_CACHE", {})
        ds = entry._read(str(tmp_path), "small", ["x"])
        assert entry._read(str(tmp_path), "small", ["x"]) is ds
        assert ds.count() == 6000
