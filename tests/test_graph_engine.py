"""The BSP engine of ``georay.graph`` sizes its actor set to the cluster."""
import numpy as np
import pyarrow as pa
import pytest
import ray


@pytest.mark.parametrize("program", ["pagerank", "components"])
def test_actors_never_outnumber_the_cpu_slots(ray_session, monkeypatch, program):
    """Each engine actor holds one CPU slot, so on a Ray of 2 CPUs the
    engine starts 2 actors (4 would wait forever to be placed) and still
    gives the answer; ``cluster_resources`` reports 2 CPUs to the
    engine, and the setup exchange records the partition count."""
    import ray.data

    import georay.graph as gg
    import georay.partition

    counts, real = [], gg._hash_partition_refs
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0})
    monkeypatch.setattr(gg, "_hash_partition_refs", lambda ds, key, p, cols: counts.append(p) or real(ds, key, p, cols))
    if program == "pagerank":
        edges = pa.table({"src": pa.array([0, 1, 2], pa.int64()), "dst": pa.array([1, 2, 0], pa.int64())})
        out = gg.pagerank(ray.data.from_arrow(edges), iters=3).to_pandas()
        # a 3-cycle keeps every node at the uniform rank
        assert sorted(out.node) == [0, 1, 2] and out.pr.nunique() == 1
    else:
        from georay.dedup import connected_components

        monkeypatch.setattr(georay.partition, "BROADCAST_BYTES", 0)
        pairs = pa.table({"doc_a": pa.array([5, 6, 9], pa.int64()), "doc_b": pa.array([6, 7, 10], pa.int64())})
        out = connected_components(ray.data.from_arrow(pairs)).to_pandas()
        assert dict(zip(out.doc_id, out.survivor)) == {5: 5, 6: 5, 7: 5, 9: 9, 10: 9}
    assert counts and all(p == 2 for p in counts)
