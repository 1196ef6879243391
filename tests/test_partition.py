"""georay.partition: the key hash, the one- and two-input exchanges, the
broadcast-or-exchange rule, and the rule that georay has no other."""

import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from georay.partition import broadcast_or_none, copartition, hash_partition, part_of

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


class TestOneMechanism:
    """georay has one keyed-exchange module: no hand-rolled partition
    column shuffles, partition hashes or partition sizers elsewhere."""

    FORBIDDEN = re.compile(
        r'groupby\("part"\)|_partition_of|_cluster_partitions|_join_partitions|default_partitions'
        r'|tree_row_limit|_tree_pairs_from_partials|_join_pairs_from_slim|repartition\(fanout\)'
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

    def test_keyed_merges_have_one_route(self):
        """The keyed merges take no route knob, and the only coalesce
        (``.repartition(``) outside ``stages/aggregate.py``'s keyless
        ``tree_merge`` is ``_q_top_customers``' global top-10."""
        import ast
        import inspect

        from georay.dedup import band_bucket_pairs
        from georay.stages.aggregate import keyed_agg

        for fn in (keyed_agg, band_bucket_pairs):
            knobs = {"mode", "fanout", "tree_row_limit"} & set(inspect.signature(fn).parameters)
            assert not knobs, (fn.__name__, knobs)
        sites = set()
        for path in self._sources():
            if path.parts[-2:] == ("stages", "aggregate.py"):
                continue
            src = path.read_text()
            defs = [n for n in ast.parse(src).body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
            for i, line in enumerate(src.splitlines(), 1):
                if ".repartition(" in line:
                    owner = [d.name for d in defs if d.lineno <= i <= d.end_lineno]
                    sites.add((path.name, owner[0] if owner else None))
        assert sites == {("__ray_entry__.py", "_q_top_customers")}

    def test_one_keyed_aggregate(self):
        """Every keyed aggregate is ``keyed_agg``: no code chains a Dataset
        ``.groupby(...)`` into Ray's sort aggregate (``.aggregate(``,
        ``.count(``, ``.sum(``, ``.min(``, ``.max(``).  The raster
        ``map_groups`` sites are not aggregates and stay allowed, and
        ``keyed_agg`` takes no option beyond its spec."""
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

    def test_broadcast_decided_only_in_partition_module(self):
        """Only ``broadcast_or_none`` measures a side (``size_bytes()``)
        and reads the budget (``BROADCAST_BYTES``): no other module's code
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

    def test_empty_side_keeps_its_schema(self, ray_session):
        """Empty partitions of an exchange are schemaless blocks; they are
        dropped, and a side with no rows comes back as a typed empty table."""
        import ray.data

        three = hash_partition(ray.data.from_arrow(_left([1, 2, 3])), "id", lambda t: t, 16)
        table, _ = broadcast_or_none(three)
        assert _rows(table) == _rows(_left([1, 2, 3]))
        table, _ = broadcast_or_none(ray.data.from_arrow(LEFT.empty_table()))
        assert table.num_rows == 0 and table.schema.equals(LEFT)


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
