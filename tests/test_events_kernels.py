"""Partition-vectorized event kernels: strictness and boundary cases the
oracle only covers statistically (duplicate timestamps, purchases at the
exact event instant, multi-user interleaving in one partition)."""

import numpy as np
import pandas as pd

from georay.pipelines.events import GAP_US, asof_partition, sessionize_partition


def _df(rows):
    return pd.DataFrame(
        {
            "user_id": [r[0] for r in rows],
            "event_id": [r[1] for r in rows],
            "ts": pd.to_datetime([r[2] for r in rows], unit="s").astype("datetime64[us]"),
            "event_type": [r[3] for r in rows],
        }
    )


class TestAsofStrictness:
    def test_purchase_at_same_instant_excluded(self):
        g = _df([
            (1, 10, 100, "purchase"),
            (1, 11, 100, "view"),     # same ts as the purchase: NOT earlier
            (1, 12, 200, "view"),
        ])
        out = asof_partition(g).to_pandas().set_index("event_id")["last_purchase"]
        assert pd.isna(out[10])  # a purchase's own instant is not earlier
        assert pd.isna(out[11])
        assert out[12] == pd.Timestamp(100, unit="s")

    def test_duplicate_purchase_timestamps(self):
        g = _df([
            (1, 10, 100, "purchase"),
            (1, 11, 100, "purchase"),  # duplicate purchase ts
            (1, 12, 150, "view"),
        ])
        out = asof_partition(g).to_pandas().set_index("event_id")["last_purchase"]
        assert pd.isna(out[10]) and pd.isna(out[11])  # equal ts: strictly-earlier only
        assert out[12] == pd.Timestamp(100, unit="s")

    def test_users_isolated_within_partition(self):
        g = _df([
            (1, 10, 100, "purchase"),
            (2, 20, 150, "view"),      # user 2 has no purchases
            (1, 11, 200, "view"),
        ])
        out = asof_partition(g).to_pandas().set_index("event_id")["last_purchase"]
        assert pd.isna(out[20])
        assert out[11] == pd.Timestamp(100, unit="s")

    def test_empty(self):
        out = asof_partition(_df([]))
        assert len(out) == 0


class TestWindowTop1Partition:
    def _df(self, rows):
        return pd.DataFrame(
            {
                "user_id": [r[0] for r in rows],
                "event_id": [r[1] for r in rows],
                "ts": pd.to_datetime([r[2] for r in rows], unit="s").astype("datetime64[us]"),
                "value": [r[3] for r in rows],
            }
        )

    def test_top1_per_user_with_tiebreaks(self):
        from georay.pipelines.events import window_top1_partition

        g = self._df([
            (1, 10, 100, 5.0),
            (1, 11, 50, 9.0),    # user 1 max value
            (2, 20, 10, 3.0),
            (2, 21, 5, 3.0),     # tie on value: earlier ts wins
            (3, 30, 1, 1.0),
            (3, 31, 1, 1.0),     # tie on value AND ts: lower event_id wins
        ])
        out = window_top1_partition(g).to_pandas().set_index("user_id")["event_id"]
        assert out[1] == 11
        assert out[2] == 21
        assert out[3] == 30

    def test_empty(self):
        from georay.pipelines.events import window_top1_partition

        out = window_top1_partition(self._df([]))
        assert len(out) == 0


class TestCentsRounding:
    def test_half_away_from_zero_both_signs(self):
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("_entry", "/root/repo/__ray_entry__.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        # 0.125 is exact in binary: 12.5 cents must round AWAY from zero
        # on both sides (np.round's half-to-even would give 12; the old
        # floor(x*100+0.5) gave -12 for the negative — ADVICE r2)
        v = np.array([0.125, -0.125, 1.0, -1.0, 0.0])
        assert mod._cents(v).tolist() == [13, -13, 100, -100, 0]
        # sign symmetry over arbitrary values
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 100, 1000)
        assert (mod._cents(x) == -mod._cents(-x)).all()


class TestSessionizePartition:
    def test_gap_splits_and_user_resets(self):
        gap_s = GAP_US // 1_000_000
        g = _df([
            (1, 10, 0, "view"),
            (1, 11, 10, "view"),                   # same session
            (1, 12, 10 + gap_s + 1, "view"),        # gap -> session 2
            (2, 20, 5, "view"),                     # new user -> own session 1
        ])
        out = sessionize_partition(g).to_pandas()
        k = out.set_index(["user_id", "session_idx"])
        assert k.loc[(1, 1), "n_events"] == 2
        assert k.loc[(1, 2), "n_events"] == 1
        assert k.loc[(2, 1), "n_events"] == 1

    def test_boundary_exact_gap_is_same_session(self):
        gap_s = GAP_US // 1_000_000
        g = _df([(1, 10, 0, "view"), (1, 11, gap_s, "view")])  # diff == gap: NOT >
        out = sessionize_partition(g).to_pandas()
        assert len(out) == 1 and out.iloc[0]["n_events"] == 2

    def test_empty(self):
        out = sessionize_partition(_df([]))
        assert len(out) == 0


class TestSlidingWindow:
    def _g(self, rows):
        # rows: (event_id, type, ts_us, day, own)
        return pd.DataFrame(
            {
                "event_id": [r[0] for r in rows],
                "event_type": [r[1] for r in rows],
                "ts": pd.to_datetime([r[2] for r in rows], unit="us").astype("datetime64[us]"),
                "day": [r[3] for r in rows],
                "own": [r[4] for r in rows],
            }
        )

    def test_counts_ties_and_boundary_inclusive(self):
        from georay.pipelines.events import HOUR_US, sliding_count_partition

        H = HOUR_US
        g = self._g([
            (1, "view", 0, 0, 1),
            (2, "view", H, 0, 1),        # exactly 1h later: boundary INCLUDED
            (3, "view", H, 0, 1),        # tie with 2
            (4, "view", 3 * H, 0, 1),    # outside every prior window
            (5, "click", H, 0, 1),       # different type: independent
        ])
        out = sliding_count_partition(g).to_pandas().set_index("event_id")["n_trailing"]
        assert out[1] == 1
        assert out[2] == 3  # events 1 (boundary), 2, 3 (tie)
        assert out[3] == 3
        assert out[4] == 1
        assert out[5] == 1

    def test_replicated_rows_count_but_do_not_emit(self):
        from georay.pipelines.events import DAY_US, HOUR_US, sliding_count_partition

        # event at the start of day 1 sees the replicated tail of day 0
        g = self._g([
            (10, "view", DAY_US - HOUR_US // 2, 1, 0),  # replicated (own=0)
            (11, "view", DAY_US, 1, 1),
        ])
        out = sliding_count_partition(g).to_pandas()
        assert sorted(out.event_id) == [11]
        assert out.set_index("event_id")["n_trailing"][11] == 2

    def test_end_to_end_matches_bruteforce(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from georay.pipelines.events import DAY_US, HOUR_US, events_sliding

        rng = np.random.default_rng(12)
        n = 400
        ts = np.sort(rng.integers(0, 3 * DAY_US, n))  # spans day boundaries
        types = rng.choice(["a", "b"], n)
        t = pa.table({
            "event_id": pa.array(np.arange(n), pa.int64()),
            "event_type": pa.array(types),
            "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        })
        out = events_sliding(ray.data.from_arrow(t)).to_pandas().set_index("event_id")
        for i in rng.choice(n, 40, replace=False):
            want = int(((types == types[i]) & (ts >= ts[i] - HOUR_US) & (ts <= ts[i])).sum())
            assert out["n_trailing"][i] == want, i


class TestWindowTopK:
    def test_topk_ranks_and_ties(self):
        from georay.pipelines.events import window_topk_partition

        g = pd.DataFrame({
            "user_id": [1, 1, 1, 2],
            "event_id": [10, 11, 12, 20],
            "ts": pd.to_datetime([5, 1, 1, 9], unit="s").astype("datetime64[us]"),
            "value": [7.0, 9.0, 9.0, 3.0],
        })
        out = window_topk_partition(g, k=2).to_pandas()
        got = set(zip(out.user_id, out.event_id, out["rank"]))
        # user 1: two value-9 events tie, earlier ts is rank 1 -> both
        # 11 (rank 1) and 12 (rank 2); event 10 (value 7) excluded
        assert got == {(1, 11, 1), (1, 12, 2), (2, 20, 1)}

    def test_int64_values_above_2_pow_53_rank_exactly(self):
        """2^53 and 2^53+1 are one float64: a float negation ties them,
        and the ts tie-break then ranks the smaller value first.  INT64_MIN
        has no int64 negation."""
        import pyarrow as pa

        from georay.pipelines.events import window_topk_partition

        big = 2**53
        g = pa.table({
            "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "event_id": pa.array([10, 11, 12, 13, 20], pa.int64()),
            "ts": pa.array([1, 2, 3, 4, 5], pa.timestamp("us")),
            "value": pa.array([big, big + 1, big + 2, -(2**63), -(2**63)], pa.int64()),
        })
        out = window_topk_partition(g, k=4).to_pandas()
        got = sorted(zip(out.user_id, out["rank"], out.event_id))
        assert got == [(1, 1, 12), (1, 2, 11), (1, 3, 10), (1, 4, 13), (2, 1, 20)]

    def test_empty(self):
        from georay.pipelines.events import window_topk_partition

        out = window_topk_partition(pd.DataFrame(
            {"user_id": [], "event_id": [], "ts": [], "value": []}), k=3)
        assert len(out) == 0


class TestStratifiedSample:
    def _t(self):
        import pyarrow as pa

        n = 2000
        langs = np.where(np.arange(n) % 3 == 0, "en", np.where(np.arange(n) % 3 == 1, "de", "fr"))
        return pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "lang": pa.array(langs),
        })

    def test_deterministic_and_rate_accurate(self):
        from georay.sample import stratified_sample_batch

        t = self._t()
        rates = {"en": 5000, "de": 2500}
        a = stratified_sample_batch(t, rates, default_bp=1000)
        b = stratified_sample_batch(t, rates, default_bp=1000)
        assert a.equals(b)  # pure function of the row
        df = a.to_pandas()
        n_per = df.groupby("lang").size()
        # ~667 docs per stratum: expected keeps 333/167/67, +-5 sigma
        assert 240 <= n_per.get("en", 0) <= 430
        assert 100 <= n_per.get("de", 0) <= 240
        assert 20 <= n_per.get("fr", 0) <= 130

    def test_subset_property(self):
        """Raising a stratum's rate only ADDS documents (hash-threshold
        sampling nests) — the property that makes rate sweeps reproducible."""
        from georay.sample import stratified_sample_batch

        t = self._t()
        low = stratified_sample_batch(t, {"en": 2000}, default_bp=500).to_pandas()
        high = stratified_sample_batch(t, {"en": 6000}, default_bp=1500).to_pandas()
        assert set(low.doc_id) <= set(high.doc_id)

    def test_zero_default_drops_unknown_strata(self):
        from georay.sample import stratified_sample_batch

        t = self._t()
        out = stratified_sample_batch(t, {"en": 10000}, default_bp=0).to_pandas()
        assert (out.lang == "en").all()
        assert len(out) == (t.to_pandas().lang == "en").sum()

    def test_md5_backend_matches_duckdb_predicate(self):
        import duckdb

        from georay.sample import stratified_sample_batch

        t = self._t()
        got = stratified_sample_batch(
            t, {"en": 5000, "de": 2500}, default_bp=1000, hash_impl="md5"
        ).to_pandas()
        want = duckdb.sql(
            "SELECT doc_id, lang FROM t WHERE "
            "md5_number_lower(CAST(doc_id AS VARCHAR)) % 10000 < "
            "CASE lang WHEN 'en' THEN 5000 WHEN 'de' THEN 2500 ELSE 1000 END"
        ).df()
        assert sorted(got.doc_id) == sorted(want.doc_id)


class TestDataAwarePartitionsE2E:
    def test_sessionize_with_forced_tiny_rows_per_partition(self, ray_session, monkeypatch):
        """A rows_per_partition far below the row count drives the
        partition count above the old 256 cap; sessionize output must be
        identical to a small fixed partitioning (window logic never
        crosses users regardless of partition count)."""
        import pyarrow as pa

        import georay.pipelines.events as ev
        from georay.partition import partitions

        rng = np.random.default_rng(21)
        n = 3000
        t = pa.table({
            "user_id": pa.array(rng.integers(0, 50, n).astype(np.int64)),
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(
                np.sort(rng.integers(0, 10**12, n)).astype("datetime64[us]"),
                pa.timestamp("us")),
        })
        import ray.data

        ds = ray.data.from_arrow(t)
        p = partitions(ds, rows_per_partition=10)
        assert p == 300

        def sessions(n):
            monkeypatch.setattr(ev, "partitions", lambda *a, **k: n)
            return (ev.sessionize(ds).to_pandas()
                    .sort_values(["user_id", "session_idx"]).reset_index(drop=True))

        many, few = sessions(p), sessions(8)
        pd.testing.assert_frame_equal(many, few)
