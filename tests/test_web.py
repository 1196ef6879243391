"""Host-level crawl curation stats (georay/web.py)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from georay.stages.aggregate import combiner
from georay.web import HOST_AGGS, HOST_PATTERN, extract_host, host_rows


def host_stats_partial(b: pa.Table) -> pa.Table:
    """The per-batch combine ``host_stats`` runs before its exchange."""
    return combiner("host", HOST_AGGS)(host_rows(b))


class TestExtractHost:
    def test_scheme_authority(self):
        urls = pa.array(
            [
                "https://en.example.org/doc/1",
                "http://a.b.c:8080/path?q=1",
                "ftp://files.example.net",
                "no-scheme-here",
                "https://host#frag",
            ]
        )
        assert extract_host(urls).to_pylist() == [
            "en.example.org",
            "a.b.c:8080",
            "files.example.net",
            "",
            "host",
        ]

    def test_duckdb_parity(self):
        """Engine (pyarrow RE2) and oracle (DuckDB RE2) must agree on the
        same pattern over adversarial urls."""
        urls = [
            "https://x.y/",
            "a://h?q",
            "scheme+ext-1.2://h:1/p",
            "://nohost",
            "HTTPS://upper.case/x",  # scheme class is lowercase by design
            "mailto:nobody",
            "",
        ]
        got = extract_host(pa.array(urls, pa.string())).to_pylist()
        want = [
            r[0]
            for r in duckdb.sql(
                f"SELECT regexp_extract(u, '{HOST_PATTERN}', 1) "
                f"FROM (SELECT unnest({urls!r}) AS u)"
            ).fetchall()
        ]
        assert got == want


class TestHostStatsPartial:
    def test_combine(self):
        b = pa.table(
            {
                "url": ["https://a.x/1", "https://a.x/2", "https://b.y/1"],
                "text": ["aaa", "bb", "cccc"],
                "warc_ts": pa.array([100, 300, 200], pa.timestamp("us")),
            }
        )
        rows = {r["host"]: r for r in host_stats_partial(b).to_pylist()}
        assert rows["a.x"] == {"host": "a.x", "n_docs": 2, "sum_chars": 5, "max_ts_us": 300}
        assert rows["b.y"]["n_docs"] == 1 and rows["b.y"]["sum_chars"] == 4

    def test_empty_typed(self):
        b = pa.table(
            {
                "url": pa.array([], pa.string()),
                "text": pa.array([], pa.string()),
                "warc_ts": pa.array([], pa.timestamp("us")),
            }
        )
        t = host_stats_partial(b)
        assert t.num_rows == 0
        assert t.schema.field("max_ts_us").type == pa.int64()

    def test_non_ascii_chars_counted_as_codepoints(self):
        # DuckDB length() is codepoints; utf8_length must match
        b = pa.table(
            {
                "url": ["https://h/1"],
                "text": ["héllo🌍"],
                "warc_ts": pa.array([1], pa.timestamp("us")),
            }
        )
        assert host_stats_partial(b).to_pylist()[0]["sum_chars"] == 6
        assert duckdb.sql("SELECT length('héllo🌍')").fetchone()[0] == 6


class TestHostStatsDataset:
    def test_end_to_end(self, ray_session):
        import ray as _ray

        from georay.web import host_stats

        n = 500
        hosts = [f"h{i % 7}.example.org" for i in range(n)]
        b = pa.table(
            {
                "url": [f"https://{h}/doc/{i}" for i, h in enumerate(hosts)],
                "text": ["x" * (i % 11) for i in range(n)],
                "warc_ts": pa.array(np.arange(n), pa.timestamp("us")),
            }
        )
        out = host_stats(_ray.data.from_arrow(b).repartition(4)).to_pandas()
        assert len(out) == 7
        assert out.n_docs.sum() == n
        want_chars = sum(i % 11 for i in range(n))
        assert out.sum_chars.sum() == want_chars
        # max_ts per host = last index with that host
        got = dict(zip(out.host, out.max_ts.astype("int64")))
        for k in range(7):
            last = max(i for i in range(n) if i % 7 == k)
            assert got[f"h{k}.example.org"] == last


class TestHostQuota:
    def test_truncate_is_safe_combiner(self):
        from georay.web import _quota_truncate

        # global keepers survive ANY subset pre-truncation
        t = pa.table({
            "doc_id": pa.array([9, 1, 5, 3, 7, 2], pa.int64()),
            "host": pa.array(["a", "a", "a", "b", "b", "a"], pa.string()),
        })
        out = _quota_truncate(t, quota=2).to_pandas()
        assert sorted(out[out.host == "a"].doc_id) == [1, 2]
        assert sorted(out[out.host == "b"].doc_id) == [3, 7]

    def test_end_to_end_matches_global_rank(self, ray_session):
        import ray as _ray
        from georay.web import host_quota

        rng = np.random.default_rng(11)
        n = 300
        hosts = np.array([f"h{int(i)}.org" for i in rng.integers(0, 7, n)])
        ids = rng.permutation(n).astype(np.int64)
        pages = pd.DataFrame({
            "doc_id": ids,
            "url": [f"https://{h}/d/{i}" for h, i in zip(hosts, ids)],
        })
        got = (
            host_quota(_ray.data.from_pandas(pages).repartition(5), quota=10)
            .to_pandas()
        )
        want = (
            pages.assign(host=hosts)
            .sort_values(["host", "doc_id"])
            .groupby("host")
            .head(10)[["doc_id", "host"]]
        )
        assert sorted(map(tuple, got.values.tolist())) == sorted(
            map(tuple, want.values.tolist())
        )

    def test_empty(self, ray_session):
        import ray as _ray
        from georay.web import host_quota

        ds = _ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "url": pa.array([], pa.string()),
        }))
        assert host_quota(ds, quota=3).count() == 0
