"""georay.partition: the key hash, the one- and two-input exchanges, the
broadcast-or-exchange rule, the broadcast kernel ``cached_map``, the
small-side join ``keyed_join``, and the rule that georay has no other."""

import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

import georay.partition
from georay.partition import (
    broadcast_or_none, cached_map, copartition, from_table, hash_partition, keyed_join, part_of,
)

LEFT = pa.schema([("id", pa.int64()), ("a", pa.int64())])
RIGHT = pa.schema([("rid", pa.int64()), ("text", pa.large_string())])


def _rows(t: pa.Table) -> list:
    return sorted(zip(*(t.column(c).to_pylist() for c in sorted(t.column_names))))


def _collect(ds) -> pa.Table:
    blocks = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows]
    return pa.concat_tables(blocks) if blocks else None


P = 4


def _shapes_kernel():
    """Kernel that reports what one partition received (built in a
    function so Ray ships it by value: workers cannot import tests)."""
    def shapes(L: pa.Table, R: pa.Table) -> pa.Table:
        keys = L.column("id").to_pylist() + R.column("rid").to_pylist()
        return pa.table({
            "part": pa.array([int(part_of(np.array(keys[:1]), P)[0])], pa.int32()),
            "nl": [L.num_rows],
            "nr": [R.num_rows],
            "typed": [L.schema.equals(LEFT) and R.schema.equals(RIGHT)],
        })

    return shapes


def _keys_in(parts, n, start=0):
    """``n`` consecutive-from-``start`` integers whose partition is in ``parts``."""
    out, k = [], start
    while len(out) < n:
        if int(part_of(np.array([k]), P)[0]) in parts:
            out.append(k)
        k += 1
    return out


def _left(ids):
    return pa.table({"id": pa.array(ids, pa.int64()), "a": pa.array([i * 10 for i in ids], pa.int64())})


def _right(ids):
    return pa.table({"rid": pa.array(ids, pa.int64()),
                     "text": pa.array([f"t{i}" for i in ids], pa.large_string())})


class TestPartOf:
    def test_range_and_single_key_mix(self):
        k = np.arange(-50, 1000, dtype=np.int64)
        p = part_of(k, 7)
        assert p.dtype == np.int32 and p.min() >= 0 and p.max() < 7
        h = k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
        assert np.array_equal(p, (h % np.uint64(7)).astype(np.int32))

    def test_composite_key_depends_on_every_column(self):
        band = np.repeat(np.arange(4, dtype=np.int32), 100)
        key = np.tile(np.arange(100, dtype=np.int64), 4)
        p = part_of([band, key], 16)
        # the same key in different bands lands in different partitions
        assert (p.reshape(4, 100) != p[:100]).any(axis=1)[1:].all()


    def test_string_hash_golden_values(self):
        """The string hash uses one fixed key, so a key's partition is the
        same in every process and every run (values pinned here)."""
        v = ["", "a", "example.org", "www.example.org", "the quick brown", "über", None]
        want = [1724144759, 1310061750, 1876999047, 42918571, 1116946934, 1477265586, 1384300139]
        big = 2**31 - 1
        assert part_of(pa.array(v), big).tolist() == want
        assert part_of(np.array(v, dtype=object), big).tolist() == want
        assert part_of(pa.array([None if x is None else x.encode() for x in v], pa.binary()), big).tolist() == want
        assert part_of([pa.array(v, pa.large_string()), np.arange(7)], big).tolist() == [
            709319314, 101359128, 2070459880, 1321581144, 831598969, 1416895388, 1092001235]


def _calls_kernel(on):
    """Kernel that reports, per key it received, its row count and the
    call that saw it (the call's smallest row id)."""
    def calls(t: pa.Table) -> pa.Table:
        g = t.group_by(on).aggregate([("rid", "count")])
        return g.append_column("call", pa.array(np.full(g.num_rows, t.column("rid").to_numpy().min())))

    return calls


class TestHashPartition:
    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    def test_each_key_whole_in_one_call(self, ray_session, num_partitions):
        """Every kernel call sees all rows of each key it gets, no key
        reaches two calls, and at most P blocks hold rows."""
        import ray.data

        rng = np.random.default_rng(3)
        keys = rng.integers(-20, 200, 1500)
        t = pa.table({"k": pa.array(keys, pa.int64()), "rid": pa.array(np.arange(1500), pa.int64())})
        out = hash_partition(
            ray.data.from_arrow(t).repartition(6), "k", _calls_kernel(["k"]), num_partitions,
        ).materialize()
        got = _collect(out).to_pandas()
        assert got.k.is_unique
        want = t.to_pandas().groupby("k").size()
        assert got.set_index("k").rid_count.sort_index().tolist() == want.tolist()
        assert got.call.nunique() <= num_partitions
        blocks = [b for b in out.iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows]
        assert len(blocks) <= num_partitions

    def test_empty_partitions_keep_the_output_schema(self, ray_session, tmp_path):
        """Three keys over 64 partitions leave most partitions empty;
        the output schema is still the kernel's."""
        import ray.data

        t = pa.table({"k": pa.array([1, 2, 3] * 5, pa.int64()), "v": pa.array(range(15), pa.int64())})

        def total(g: pa.Table) -> pa.Table:
            s = g.group_by("k").aggregate([("v", "sum")])
            return pa.table({"k": s.column("k").cast(pa.int32()), "total": s.column("v_sum")})

        out = hash_partition(ray.data.from_arrow(t).repartition(4), "k", total, 64).materialize()
        want = pa.schema([("k", pa.int32()), ("total", pa.int64())])
        assert out.schema().base_schema.equals(want)
        assert sorted(out.to_pandas().itertuples(index=False)) == [(1, 30), (2, 35), (3, 40)]
        out.write_parquet(str(tmp_path))
        assert ray.data.read_parquet(str(tmp_path)).schema().base_schema.equals(want)

    def test_composite_string_int_key(self, ray_session):
        import ray.data

        rng = np.random.default_rng(8)
        n = 800
        t = pa.table({
            "host": pa.array([f"h{i}.example.org" for i in rng.integers(0, 25, n)]),
            "day": pa.array(rng.integers(0, 4, n), pa.int64()),
            "rid": pa.array(np.arange(n), pa.int64()),
        })
        out = _collect(hash_partition(
            ray.data.from_arrow(t).repartition(5), ["host", "day"],
            _calls_kernel(["host", "day"]), 7,
        )).to_pandas()
        assert not out.duplicated(["host", "day"]).any()
        want = t.to_pandas().groupby(["host", "day"]).size().rename("rid_count").reset_index()
        got = out[["host", "day", "rid_count"]].sort_values(["host", "day"]).reset_index(drop=True)
        assert got.equals(want.astype({"rid_count": got.rid_count.dtype}))

    def test_tag_fuses_into_a_read_and_bundles_made_blocks(self, ray_session, tmp_path):
        """The tag map takes whole blocks after a file read, so it fuses
        into the read's 4 tasks; over 8 small blocks already made it
        takes ``_TAG_ROWS`` rows a task, so it runs as 1 task, not 8."""
        import pyarrow.parquet as pq
        import ray.data

        t = pa.table({"k": pa.array(range(80), pa.int64())})
        for i in range(4):
            pq.write_table(t.slice(i * 20, 20), tmp_path / f"part-{i}.parquet")
        read = ray.data.read_parquet(str(tmp_path), override_num_blocks=4)
        made = ray.data.from_arrow([t.slice(i * 10, 10) for i in range(8)]).materialize()
        for ds, op, tasks in ((read, "ReadParquet->MapBatches(tag)", 4), (made, "MapBatches(tag)", 1)):
            out = hash_partition(ds, "k", lambda g: g, 4).materialize()
            assert sorted(out.to_pandas()["k"]) == list(range(80))
            m = re.search(rf"Operator \d+ {re.escape(op)}: (\d+) tasks executed", out.stats())
            assert m and int(m.group(1)) == tasks, out.stats()


class TestOneMechanism:
    """georay has one keyed-exchange module and one keyless reduce: no
    hand-rolled partition column shuffles, partition hashes, partition
    sizers or merge trees elsewhere, and no actor pool over a broadcast
    side."""

    FORBIDDEN = re.compile(
        r'groupby\("part"\)|_partition_of|_cluster_partitions|_join_partitions|default_partitions'
        r'|tree_row_limit|_tree_pairs_from_partials|_join_pairs_from_slim|\bfanout\b'
        r'|tree_merge|_merge_partials|_MERGE_TASK|_DIRECT_MERGE_MAX_BLOCKS|_MERGE_FANOUT|AttachName'
        r'|verify_partition|pair_filter|IdFilter|\b_verify_pairs|_deliver_labels|_min_label'
    )

    def _sources(self):
        root = Path(__file__).resolve().parents[1]
        return [root / "__ray_entry__.py", *sorted((root / "georay").rglob("*.py"))]

    def test_no_hand_rolled_exchange_or_sizer(self):
        hits = [
            f"{path.name}:{i}: {line.strip()}"
            for path in self._sources()
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if self.FORBIDDEN.search(line)
        ]
        assert not hits, hits

    def _call_sites(self, hit):
        """{(file, top-level def)} of every call ``hit(node)`` accepts."""
        import ast

        sites = set()
        for path in self._sources():
            tree = ast.parse(path.read_text())
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and hit(node):
                        sites.add((path.name, getattr(top, "name", None)))
        return sites

    def test_one_parquet_writer(self):
        """Every parquet file georay writes goes through
        ``georay.sources`` (``write_output``, ``write_parquet_file``), so
        it gets the one writer policy, ``PARQUET_WRITE``: no other module
        calls ``pq.write_table(``, ``.write_parquet(`` or
        ``ParquetWriter(``."""
        writer = re.compile(r"write_table\(|\.write_parquet\(|ParquetWriter\(")
        hits = [
            f"{path.name}:{i}: {line.strip()}"
            for path in self._sources()
            if path.parts[-2:] != ("georay", "sources.py")
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if writer.search(line)
        ]
        assert not hits, hits

    def test_keyed_merges_have_one_route(self):
        """The keyed merges take no route knob; no code coalesces blocks
        (``.repartition(``), since a keyless merge is ``driver_merge``;
        and the only Dataset ``.sort(`` calls are the exchange's own and
        ``_q_top_cells``, which tests the engine's total-order operator.
        A ``.sort(`` with no argument is a list's; ``np.sort`` is numpy's."""
        import ast
        import inspect

        from georay.dedup import band_bucket_pairs
        from georay.stages.aggregate import keyed_agg

        for fn in (keyed_agg, band_bucket_pairs):
            knobs = {"mode", "fanout", "tree_row_limit"} & set(inspect.signature(fn).parameters)
            assert not knobs, (fn.__name__, knobs)

        def method(name):
            return lambda n: isinstance(n.func, ast.Attribute) and n.func.attr == name

        assert self._call_sites(method("repartition")) == set()
        sorts = self._call_sites(lambda n: method("sort")(n) and (n.args or n.keywords)
                                 and ast.unparse(n.func.value) not in ("np", "numpy"))
        assert sorts == {("partition.py", "_exchange"), ("__ray_entry__.py", "_q_top_cells")}

    def test_keyless_reduces_take_no_knob(self):
        """The converted reducers lost their tree fan-in and partition
        knobs: the reduce is ``driver_merge`` and ``partitions()`` sizes
        the exchanges."""
        import inspect

        from georay.pack import pack_sequences
        from georay.sketch import grouped_percentiles
        from georay.text import top_ngrams

        for fn in (grouped_percentiles, top_ngrams, pack_sequences):
            assert not {"fanout", "num_partitions"} & set(inspect.signature(fn).parameters)

    def test_one_keyed_aggregate(self):
        """Every keyed aggregate is ``keyed_agg``: no code chains a Dataset
        ``.groupby(...)`` into Ray's sort aggregate (``.aggregate(``,
        ``.count(``, ``.sum(``, ``.min(``, ``.max(``), and ``keyed_agg``
        takes no option beyond its spec."""
        import ast
        import inspect

        from georay.stages.aggregate import keyed_agg

        hits = [
            f"{path.name}:{node.lineno}: {ast.unparse(node)[:80]}"
            for path in self._sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("aggregate", "count", "sum", "min", "max")
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "groupby"
        ]
        assert not hits, hits
        assert list(inspect.signature(keyed_agg).parameters) == ["ds", "on", "aggs"]

    def test_no_map_groups(self):
        """Every keyed exchange is ``hash_partition`` or ``copartition``:
        no code calls Ray's sort-groupby ``.map_groups(``, which samples
        boundaries and ignores ``num_partitions``.  Docstrings may name
        it."""
        import ast

        hits = [
            f"{path.name}:{node.lineno}: {ast.unparse(node)[:80]}"
            for path in self._sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_groups"
        ]
        assert not hits, hits

    def test_embed_lsh_pairs_has_one_route(self):
        """``embed_lsh_pairs`` verifies inside its buckets only: no route
        knob, no ignored broadcast ref, no opt-in truncation column, and
        no partition count of its own (``band_bucket_pairs`` sizes it)."""
        import inspect

        from georay.dedup import embed_lsh_pairs

        gone = {"mode", "vectors_ref", "include_truncated", "num_partitions"}
        assert not gone & set(inspect.signature(embed_lsh_pairs).parameters)

    def test_one_bucket_kernel(self):
        """MinHash, SimHash and embeddings pair their buckets through one
        ``band_bucket_pairs`` and count its truncated rows with one
        ``real_pairs``, and the MinHash chain is mapped only in
        ``candidate_pairs``, which the CLI calls and the gate's
        ``near_dup_pairs`` wraps.  The truncation warning is written
        once."""
        import ast

        def calls(name):
            return lambda n: isinstance(n.func, ast.Name) and n.func.id == name

        generators = {("dedup.py", f) for f in ("simhash_pairs", "embed_lsh_pairs", "candidate_pairs")}
        assert self._call_sites(calls("band_bucket_pairs")) == generators
        assert self._call_sites(calls("real_pairs")) == generators
        assert self._call_sites(lambda n: isinstance(n.func, ast.Attribute) and n.func.attr == "map_batches"
                                and any(isinstance(a, ast.Name) and a.id == "minhash_band_batch"
                                        for a in n.args)) == {("dedup.py", "candidate_pairs")}
        texts = {path.name: path.read_text().count("truncated at max_bucket") for path in self._sources()}
        assert {name: n for name, n in texts.items() if n} == {"dedup.py": 1}

    def test_broadcast_decided_only_in_partition_module(self):
        """Only ``partition.py`` measures a side (``size_bytes()``) and
        reads the budget (``BROADCAST_BYTES``): no other module's code
        chooses broadcast over exchange.  Docstrings may name them."""
        import ast

        hits = sorted({
            path.name for path in self._sources()
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and node.id == "BROADCAST_BYTES")
            or (isinstance(node, ast.Attribute) and node.attr in ("BROADCAST_BYTES", "size_bytes"))
            or (isinstance(node, ast.alias) and node.name == "BROADCAST_BYTES")
        })
        assert hits == ["partition.py"]

    def test_budget_compared_only_in_fits_broadcast(self):
        """Inside ``partition.py`` only ``fits_broadcast`` reads
        ``BROADCAST_BYTES``: ``broadcast_or_none`` and ``cached_map``'s
        retention bound both call it, so the budget is compared once."""
        import ast

        tree = ast.parse(Path(georay.partition.__file__).read_text())
        readers = sorted({
            fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "BROADCAST_BYTES"
        })
        assert readers == ["fits_broadcast"]

    def test_broadcast_payloads_fetched_once_per_worker(self):
        """No nested function in ``dedup.py``, ``decontam.py``, ``ann.py``,
        ``pack.py`` or ``__ray_entry__.py`` calls ``ray.get(``: a map that
        fetches its broadcast payload does so on every batch, where
        ``cached_map`` fetches it once per worker."""
        import ast

        root = Path(georay.partition.__file__).parent
        hits = []
        for path in [root / n for n in ("dedup.py", "decontam.py", "ann.py", "pack.py")] + [
            root.parent / "__ray_entry__.py"
        ]:
            for outer in ast.walk(ast.parse(path.read_text())):
                if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for inner in ast.walk(outer):
                    if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.Lambda)):
                        continue
                    hits += [
                        f"{path.name}:{node.lineno}: {ast.unparse(node)[:80]}"
                        for node in ast.walk(inner)
                        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ray.get")
                    ]
        assert not hits, hits

    def test_dedup_cli_streams_its_survivors(self):
        """``cmd_dedup`` writes the survivors as they stream from the
        read: no ``.materialize()`` of ``apply_dedup``'s output, which
        would pin the whole corpus in the object store."""
        import ast
        import inspect
        import textwrap

        from georay.__main__ import cmd_dedup

        tree = ast.parse(textwrap.dedent(inspect.getsource(cmd_dedup)))
        pinned = [
            ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "materialize"
            and re.search(r"survivors|apply_dedup", ast.unparse(node.func.value))
        ]
        assert not pinned, pinned

    def test_one_geo_chain(self):
        """``geo_dataset`` is the only extract -> reproject -> cellize
        chain: no other function in georay, the entry module or the bench
        harness maps ``extract_geo_batch``, and ``flagship`` has no
        ``geo_cache`` route knob."""
        import ast
        import inspect

        from georay.pipelines.flagship import flagship

        root = Path(__file__).resolve().parents[1]
        owners = []
        for path in [*self._sources(), root / "bench.py"]:
            tree = ast.parse(path.read_text())
            defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "map_batches"):
                    continue
                if any(isinstance(n, ast.Name) and n.id == "extract_geo_batch"
                       or isinstance(n, ast.Attribute) and n.attr == "extract_geo_batch"
                       for arg in [*node.args, *(k.value for k in node.keywords)]
                       for n in ast.walk(arg)):
                    inner = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                    owners.append((path.name, min(inner, key=lambda d: d.end_lineno - d.lineno).name
                                   if inner else None))
        assert owners == [("flagship.py", "geo_dataset")]
        assert "geo_cache" not in inspect.signature(flagship).parameters

    def test_part_of_defined_only_in_partition_module(self):
        defs = [
            path.name for path in self._sources()
            if re.search(r"^\s*def _?part_of\b", path.read_text(), re.M)
        ]
        assert defs == ["partition.py"]

    def test_copartition_only_in_keyed_join(self):
        """A join against a small keyed side is ``keyed_join``, which picks
        broadcast or ``copartition`` itself: nothing but
        ``partition.keyed_join`` calls ``copartition(``, dedup's verify
        included."""
        import ast

        def calls_copartition(n):
            return ast.unparse(n.func).split(".")[-1] == "copartition"

        assert self._call_sites(calls_copartition) == {("partition.py", "keyed_join")}

    def test_no_partition_count_knob(self, capsys):
        """``partitions()`` sizes every exchange: no function outside
        ``partition.py`` takes a ``num_partitions`` parameter, and the
        ``curate`` CLI has no ``--num-partitions`` flag."""
        import ast

        from georay.__main__ import main

        hits = [
            f"{path.name}:{node.lineno}: {getattr(node, 'name', 'lambda')}"
            for path in self._sources() if path.name != "partition.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and "num_partitions" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        ]
        assert not hits, hits
        with pytest.raises(SystemExit):
            main(["curate", "--help"])
        help_text = capsys.readouterr().out
        assert "--min-quality-bp" in help_text and "--num-partitions" not in help_text

    def test_no_actor_pools(self):
        """A broadcast stage is ``cached_map(cls, ...)`` on plain tasks:
        no ``map_batches`` sizes an actor pool (``concurrency=``) or
        passes constructor arguments (``fn_constructor_kwargs=``), and the
        old per-join closure cache is gone."""
        import ast

        hits = []
        for path in self._sources():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    kws = {k.arg for k in node.keywords}
                    if "fn_constructor_kwargs" in kws or (
                        node.func.attr == "map_batches" and "concurrency" in kws
                    ):
                        hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)[:80]}")
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name in ("_PSET_CACHE", "_PSET_CACHE_MAX", "make_spatial_join_fn"):
                    hits.append(f"{path.name}:{node.lineno}: {name}")
                if isinstance(node, ast.FunctionDef) and node.name == "make_spatial_join_fn":
                    hits.append(f"{path.name}:{node.lineno}: def {node.name}")
        assert not hits, hits


class _Counting:
    """A stage that records each construction."""

    built: list = []

    def __init__(self, payload, scale: int = 1):
        self.payload, self.scale = payload, scale
        _Counting.built.append((payload, scale))

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column("scaled", pa.array([v * self.scale for v in batch.column("id").to_pylist()]))


class TestCachedMap:
    @pytest.fixture(autouse=True)
    def _fresh(self, monkeypatch):
        monkeypatch.setattr(georay.partition, "_INSTANCES", {})
        monkeypatch.setattr(_Counting, "built", [])

    def test_builds_once_per_key(self, ray_session):
        import ray

        fn = cached_map(_Counting, ray.put(7), scale=2)
        for i in range(5):
            out = fn(_left([i]))
            assert out.column("scaled").to_pylist() == [2 * i]
        assert _Counting.built == [(7, 2)]

    def test_new_ref_or_kwargs_builds_anew(self, ray_session):
        import ray

        ref = ray.put(7)
        batch = _left([1])
        cached_map(_Counting, ref, scale=2)(batch)
        cached_map(_Counting, ref, scale=2)(batch)
        assert len(_Counting.built) == 1
        cached_map(_Counting, ref, scale=3)(batch)
        cached_map(_Counting, ray.put(7), scale=2)(batch)
        assert _Counting.built == [(7, 2), (7, 3), (7, 2)]

    def test_ninth_key_evicts_the_oldest(self, ray_session):
        import ray

        ref = ray.put(7)
        batch = _left([1])
        fns = [cached_map(_Counting, ref, scale=s) for s in range(9)]
        for fn in fns:
            fn(batch)
        assert len(georay.partition._INSTANCES) == 8
        fns[8](batch)
        fns[1](batch)
        assert len(_Counting.built) == 9
        fns[0](batch)
        assert [s for _, s in _Counting.built] == [*range(9), 0]

    def test_kept_payloads_fit_the_budget(self, ray_session, monkeypatch):
        """A new instance evicts the oldest ones until the kept payloads'
        ``nbytes`` fit ``BROADCAST_BYTES``; the newest alone may exceed
        it, so a large broadcast is fetched once, not per batch."""
        import ray

        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 2000)
        batch = _left([1])
        small, big = ray.put(np.zeros(100, np.int64)), ray.put(np.zeros(300, np.int64))  # 800 B, 2400 B
        fns = [cached_map(_Counting, ref, scale=s) for s, ref in enumerate([small, small, big])]
        fns[0](batch)
        fns[1](batch)
        assert len(georay.partition._INSTANCES) == 2  # 1600 B kept
        fns[2](batch)
        fns[2](batch)
        assert len(georay.partition._INSTANCES) == 1  # only the 2400 B one
        fns[0](batch)
        assert len(georay.partition._INSTANCES) == 1
        assert [s for _, s in _Counting.built] == [0, 1, 2, 0]

    def test_plain_payload_raises(self):
        with pytest.raises(TypeError, match="ObjectRef"):
            cached_map(_Counting, 7)

    def test_named_after_the_class(self, ray_session):
        import ray

        assert cached_map(_Counting, ray.put(7)).__name__ == "_Counting"
        assert cached_map(_Counting, ray.put(7)).__qualname__ == "_Counting"

    def test_each_worker_builds_once(self, ray_session, tmp_path):
        """Over many tasks, no worker process builds an instance twice: the
        cache is the worker's module state, not a copy shipped per task."""
        import os
        import uuid

        import ray
        import ray.data

        class Marking:
            def __init__(self, payload, marks: str):
                open(os.path.join(marks, f"{os.getpid()}_{uuid.uuid4().hex}"), "w").close()
                self.payload = payload

            def __call__(self, batch: pa.Table) -> pa.Table:
                return batch.append_column("p", pa.array([self.payload] * batch.num_rows))

        ds = ray.data.from_arrow([_left([i]) for i in range(24)])
        out = ds.map_batches(cached_map(Marking, ray.put(5), marks=str(tmp_path)), batch_format="pyarrow")
        assert sorted(_collect(out).column("id").to_pylist()) == list(range(24))
        pids = [name.split("_")[0] for name in os.listdir(tmp_path)]
        assert pids and len(pids) == len(set(pids)), pids


class TestBroadcastOrNone:
    def test_fits_returns_every_row(self, ray_session):
        import ray.data

        t = _left(list(range(100)))
        table, ds = broadcast_or_none(ray.data.from_arrow(t).repartition(4))
        assert _rows(table) == _rows(t)
        assert ds.count() == 100

    def test_over_budget_returns_none_and_materialized_side(self, ray_session, tmp_path, monkeypatch):
        """Over the budget the side comes back materialized: the caller's
        exchange does not run its plan again."""
        import ray.data

        marks = tmp_path / "marks"
        marks.mkdir()

        def mark(b: pa.Table) -> pa.Table:
            (marks / str(b.column("id")[0].as_py())).touch()
            return b

        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        t = _left(list(range(100)))
        table, ds = broadcast_or_none(ray.data.from_arrow(t).map_batches(mark, batch_format="pyarrow"))
        assert table is None
        assert _rows(_collect(ds)) == _rows(t)
        assert len(list(marks.iterdir())) == 1

    def test_module_budget_is_read_per_call(self, ray_session, monkeypatch):
        import ray.data

        ds = ray.data.from_arrow(_left([1, 2, 3]))
        assert broadcast_or_none(ds)[0] is not None
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        assert broadcast_or_none(ds)[0] is None

    def test_fits_broadcast_includes_the_budget(self, monkeypatch):
        from georay.partition import BROADCAST_BYTES, fits_broadcast

        assert fits_broadcast(BROADCAST_BYTES) and not fits_broadcast(BROADCAST_BYTES + 1)
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", 0)
        assert fits_broadcast(0) and not fits_broadcast(1)

    def test_empty_side_keeps_its_schema(self, ray_session):
        """Empty partitions of an exchange are schemaless blocks; they are
        dropped, and a side with no rows comes back as a typed empty table."""
        import ray.data

        three = hash_partition(ray.data.from_arrow(_left([1, 2, 3])), "id", lambda t: t, 16)
        table, _ = broadcast_or_none(three)
        assert _rows(table) == _rows(_left([1, 2, 3]))
        table, _ = broadcast_or_none(ray.data.from_arrow(LEFT.empty_table()))
        assert table.num_rows == 0 and table.schema.equals(LEFT)



@pytest.fixture
def executed(monkeypatch):
    """Every Ray Data plan executed while the test runs."""
    from ray.data._internal.plan import ExecutionPlan

    plans, real = [], ExecutionPlan.execute

    def execute(plan, *args, **kwargs):
        plans.append(plan)
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "execute", execute)
    return plans


class TestFromTable:
    """A Dataset made by ``from_table`` hands its table to
    ``broadcast_or_none`` with no plan; any other Dataset is fetched."""

    def test_gives_its_table_back_without_a_plan(self, ray_session, executed):
        t = _left(list(range(50)))
        ds = from_table(t)
        executed.clear()
        table, same = broadcast_or_none(ds)
        assert table is t and same is ds
        assert not executed

    def test_over_budget_returns_none_and_keyed_join_copartitions(self, ray_session, monkeypatch,
                                                                  copartitions, executed):
        import ray.data

        right = _right([1, 3, 5])
        ds = from_table(right)
        monkeypatch.setattr("georay.partition.BROADCAST_BYTES", right.nbytes - 1)
        executed.clear()
        table, same = broadcast_or_none(ds)
        assert table is None and same is ds
        assert not executed
        out = keyed_join(
            ray.data.from_arrow(_left(list(range(8)))), ds, "id", "rid",
            lambda L, R: L.join(R, keys="id", right_keys="rid", join_type="left semi"),
        )
        assert sorted(_collect(out).column("id").to_pylist()) == [1, 3, 5]
        assert len(copartitions) == 1

    def test_a_materialized_copy_is_fetched(self, ray_session, executed):
        """``.materialize()`` makes a new Dataset, which is fetched; the
        fetched table is then kept for the Dataset that comes back."""
        t = _left(list(range(50)))
        copy = from_table(t).materialize()
        executed.clear()
        table, ds = broadcast_or_none(copy)
        assert table is not t and _rows(table) == _rows(t)
        assert executed
        executed.clear()
        assert broadcast_or_none(ds)[0] is table
        assert not executed


class TestCopartition:
    def test_one_sided_partitions_get_typed_empty_tables(self, ray_session):
        import ray.data

        # partition 0: left only; partition 1: right only; 2, 3: both
        lk = _keys_in({0}, 5) + _keys_in({2, 3}, 6, 1000)
        rk = _keys_in({1}, 5) + _keys_in({2, 3}, 6, 1000)
        out = _collect(copartition(
            ray.data.from_arrow(_left(lk)), ray.data.from_arrow(_right(rk)),
            "id", "rid", _shapes_kernel(), P,
        ))
        got = {p: (nl, nr) for p, nl, nr in zip(*(out.column(c).to_pylist() for c in ("part", "nl", "nr")))}
        assert got[0] == (5, 0) and got[1] == (0, 5)
        assert all(nl and nr for p, (nl, nr) in got.items() if p in (2, 3))
        assert all(out.column("typed").to_pylist())

    def test_side_empty_everywhere(self, ray_session):
        import ray.data

        left = ray.data.from_arrow(_left(list(range(20))))
        right = ray.data.from_arrow(RIGHT.empty_table())
        out = _collect(copartition(left, right, "id", "rid", _shapes_kernel(), P))
        assert sum(out.column("nl").to_pylist()) == 20
        assert sum(out.column("nr").to_pylist()) == 0
        assert all(out.column("typed").to_pylist())
        anti = _collect(copartition(
            left, right, "id", "rid",
            lambda L, R: L.join(R, keys="id", right_keys="rid", join_type="left anti"), P,
        ))
        assert sorted(anti.column("id").to_pylist()) == list(range(20))

    @pytest.mark.parametrize("num_partitions", [1, 3, 64])
    @pytest.mark.parametrize("kind", ["inner", "left anti", "left semi"])
    def test_matches_pyarrow_join(self, ray_session, kind, num_partitions):
        """P=1, a few partitions, and P far above the 30-key row count."""
        import ray.data

        rng = np.random.default_rng(5)
        left = _left(rng.integers(0, 30, 40).tolist())  # repeated keys
        right = _right(rng.choice(45, 25, replace=False).tolist())
        out = _collect(copartition(
            ray.data.from_arrow(left).repartition(3), ray.data.from_arrow(right),
            "id", "rid",
            lambda L, R: L.join(R, keys="id", right_keys="rid", join_type=kind),
            num_partitions,
        ))
        want = left.join(right, keys="id", right_keys="rid", join_type=kind)
        assert want.num_rows > 0
        assert _rows(out) == _rows(want)
        if kind == "inner":
            assert out.schema.field("text").type == pa.large_string()

    def test_composite_key_self_join(self, ray_session):
        import ray.data

        rng = np.random.default_rng(9)
        t = pa.table({
            "band": pa.array(rng.integers(0, 3, 200), pa.int32()),
            "key": pa.array(rng.integers(0, 20, 200), pa.int64()),
            "doc": pa.array(np.arange(200), pa.int64()),
        })

        def pairs(L, R):
            R = R.rename_columns(["band", "key", "doc_b"])
            return L.join(R, keys=["band", "key"]).select(["doc", "doc_b"])

        ds = ray.data.from_arrow(t)
        out = _collect(copartition(ds, ds, ["band", "key"], ["band", "key"], pairs, 5))
        want = pairs(t, t)
        assert _rows(out) == _rows(want)

    def test_lazy_side_runs_once(self, ray_session, tmp_path):
        """A side whose schema is unknown without running it (a lazy map)
        is materialized, not executed twice."""
        import ray.data

        marks = tmp_path / "calls"
        marks.mkdir()

        def count_calls(b: pa.Table) -> pa.Table:
            (marks / f"{len(list(marks.iterdir()))}").touch()
            return b

        lazy = ray.data.from_arrow(_left(list(range(10)))).map_batches(
            count_calls, batch_format="pyarrow")
        out = _collect(copartition(
            lazy, ray.data.from_arrow(_right([1, 2])), "id", "rid",
            lambda L, R: L.join(R, keys="id", right_keys="rid", join_type="inner"), 2,
        ))
        assert sorted(out.column("id").to_pylist()) == [1, 2]
        assert len(list(marks.iterdir())) == 1

    def test_output_block_count_is_num_partitions(self, ray_session):
        """Block (and so output file) count follows num_partitions, not
        the 7 + 2 input blocks."""
        import ray.data

        left = ray.data.from_arrow(_left(list(range(200)))).repartition(7)
        right = ray.data.from_arrow(_right(list(range(0, 200, 3)))).repartition(2)
        out = copartition(
            left, right, "id", "rid",
            lambda L, R: L.join(R, keys="id", right_keys="rid", join_type="left semi"), 3,
        ).materialize()
        assert out.num_blocks() == 3
        assert out.count() == 67


class TestKeyedJoin:
    """``keyed_join`` gives the rows of ``kernel(left, right)`` on both
    routes: the broadcast map while the right side fits the budget, one
    ``copartition`` past it (``BROADCAST_BYTES = -1``, so that an empty
    right side, 0 bytes, is over it too)."""

    @pytest.fixture(params=["broadcast", "exchange"])
    def route(self, request, monkeypatch, copartitions):
        if request.param == "exchange":
            monkeypatch.setattr("georay.partition.BROADCAST_BYTES", -1)
        yield request.param
        assert bool(copartitions) == (request.param == "exchange")

    @pytest.mark.parametrize("kind", ["inner", "left semi", "left anti"])
    @pytest.mark.parametrize("sides", ["both", "left empty", "right empty"])
    def test_matches_pyarrow_join(self, ray_session, route, kind, sides):
        import ray.data

        rng = np.random.default_rng(11)
        left = _left(rng.integers(0, 30, 40).tolist())  # repeated keys
        right = _right(rng.choice(45, 25, replace=False).tolist())  # large_string text
        if sides == "left empty":
            left = LEFT.empty_table()
        elif sides == "right empty":
            right = RIGHT.empty_table()
        out = _collect(keyed_join(
            ray.data.from_arrow([left.slice(0, 15), left.slice(15)]), ray.data.from_arrow(right),
            "id", "rid", lambda L, R: L.join(R, keys="id", right_keys="rid", join_type=kind),
        ))
        want = left.join(right, keys="id", right_keys="rid", join_type=kind)
        assert (want.num_rows > 0) == (sides == "both" or (sides == "right empty" and kind == "left anti"))
        if want.num_rows == 0:
            assert out is None
            return
        assert _rows(out) == _rows(want)
        if kind == "inner":
            assert out.schema.field("text").type == pa.large_string()

    def test_broadcast_builds_once_per_worker(self, ray_session, tmp_path, copartitions):
        """Over many tasks, each worker fetches the kernel, so builds its
        instance, once: the cache key holds no per-task object."""
        import os
        import uuid

        import ray.data

        class Marked:
            """A semi-join kernel that marks each unpickling with its pid."""

            def __init__(self, marks: str):
                self.marks = marks

            def __setstate__(self, state):
                self.__dict__.update(state)
                open(os.path.join(self.marks, f"{os.getpid()}_{uuid.uuid4().hex}"), "w").close()

            def __call__(self, L: pa.Table, R: pa.Table) -> pa.Table:
                return L.join(R, keys="id", right_keys="rid", join_type="left semi")

        left = ray.data.from_arrow([_left([i]) for i in range(24)])
        out = keyed_join(left, ray.data.from_arrow(_right(list(range(0, 24, 2)))), "id", "rid",
                         Marked(str(tmp_path)))
        assert sorted(_collect(out).column("id").to_pylist()) == list(range(0, 24, 2))
        assert not copartitions
        pids = [name.split("_")[0] for name in os.listdir(tmp_path)]
        assert pids and len(pids) == len(set(pids)), pids
