"""Per-partition checkpointing: lineage records + resume-after-kill."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from georay.state.checkpoint import (
    completed_partitions,
    partition_groups,
    read_lineage,
    resumable_run,
)


@pytest.fixture()
def input_files(tmp_path):
    import pyarrow as pa

    files = []
    for i in range(8):
        p = tmp_path / f"in-{i}.parquet"
        pq.write_table(pa.table({"x": pa.array(range(i * 10, i * 10 + 10))}), p)
        files.append(str(p))
    return files


def build(files):
    import ray.data

    return ray.data.read_parquet(files).map_batches(
        lambda b: b, batch_format="pyarrow"
    )


class TestPartitioning:
    def test_groups_deterministic(self, input_files):
        g = partition_groups(input_files, 3)
        assert [name for name, _ in g] == ["part-00000", "part-00001", "part-00002"]
        assert sum(len(f) for _, f in g) == 8


class TestResume:
    def test_full_run_writes_lineage(self, ray_session, input_files, tmp_path):
        out = str(tmp_path / "out")
        stats = resumable_run(input_files, out, build, group_size=4)
        assert stats == {"partitions": 2, "skipped": 0, "rows_out": 80, "rows_in": 80}
        lineage = read_lineage(out)
        assert len(lineage) == 2
        assert lineage[0]["rows_in"] == lineage[0]["rows_out"] == 40
        assert lineage[0]["engine_version"]
        # output data readable and partitioned per group
        rows = sum(
            pq.read_table(f).num_rows for f in glob.glob(f"{out}/part-*/data/*.parquet")
        )
        assert rows == 80

    def test_resume_after_kill_skips_done(self, ray_session, input_files, tmp_path):
        out = str(tmp_path / "out")
        # first run dies after 1 completed partition
        with pytest.raises(RuntimeError, match="injected failure"):
            resumable_run(input_files, out, build, group_size=4, fail_after=1)
        assert completed_partitions(out) == {"part-00000"}
        # resume: completes only the remaining partition
        stats = resumable_run(input_files, out, build, group_size=4)
        assert stats["skipped"] == 1
        assert stats["partitions"] == 1
        assert len(read_lineage(out)) == 2

    def test_partial_partition_dir_is_discarded(self, ray_session, input_files, tmp_path):
        out = str(tmp_path / "out")
        # simulate a killed run that left a partial dir without _SUCCESS
        os.makedirs(os.path.join(out, "part-00000", "data"))
        with open(os.path.join(out, "part-00000", "data", "junk.parquet"), "w") as f:
            f.write("partial garbage")
        stats = resumable_run(input_files, out, build, group_size=4)
        assert stats["partitions"] == 2
        for f in glob.glob(f"{out}/part-00000/data/*.parquet"):
            pq.read_table(f)  # everything present parses
