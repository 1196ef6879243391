"""Event-stream custom operators: gap sessionization and as-of join.

The reference has no streaming operators (SURVEY.md §2.9); these are the
engine-level windowed operators the driver mandate names as custom-op
examples (windowed aggregate, as-of join).

Partitioning design: rows are hash-partitioned on ``user_id`` into a
CLUSTER-SIZED number of partitions
(:func:`georay.partition.hash_partition`) and each partition is
processed by ONE vectorized multi-user kernel.  This replaces per-user
``map_groups`` dispatch (~0.5 ms per group — millions of users would
serialize on dispatch) with P group tasks whose inner work is numpy
over the whole partition; window logic never crosses a partition
boundary because a user's rows always hash together.
"""

from __future__ import annotations

import numpy as np

from georay.partition import hash_partition, partitions

GAP_US = 30 * 60 * 1_000_000  # 30-minute session gap


def _as_table(g) -> "pa.Table":
    """Accept the partition's pyarrow table or a pandas frame (unit tests,
    callers predating the zero-copy kernels)."""
    import pyarrow as pa

    if isinstance(g, pa.Table):
        return g
    return pa.Table.from_pandas(g, preserve_index=False)


def _ts_us(col) -> np.ndarray:
    """Arrow timestamp column -> int64 microseconds since epoch."""
    import pyarrow as pa

    return col.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )


def sessionize_partition(g, gap_us: int = GAP_US):
    """ALL users of one hash partition -> session rows (user_id,
    session_idx, n_events, t_start, t_end), fully vectorized over the
    Arrow block (no pandas copy): one lexsort by (user_id, ts, event_id),
    boundary mask (user change OR gap), per-run reduction — sessions are
    contiguous runs of the sorted order, so min/max/size are the run's
    first/last/width."""
    import pyarrow as pa

    g = _as_table(g)
    n = g.num_rows
    if n == 0:
        return pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "t_start": pa.array([], pa.timestamp("us")),
                "t_end": pa.array([], pa.timestamp("us")),
            }
        )
    user = g.column("user_id").to_numpy(zero_copy_only=False)
    ts = _ts_us(g.column("ts"))
    eid = g.column("event_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, user))
    user, ts = user[order], ts[order]
    new_sess = np.ones(n, dtype=bool)
    same_user = user[1:] == user[:-1]
    new_sess[1:] = (~same_user) | (np.diff(ts) > gap_us)
    starts = np.nonzero(new_sess)[0]
    ends = np.append(starts[1:], n)
    su = user[starts]
    us_start = np.ones(len(starts), dtype=bool)
    us_start[1:] = su[1:] != su[:-1]
    base = np.nonzero(us_start)[0]
    session_idx = (
        np.arange(len(starts), dtype=np.int64)
        - np.repeat(base, np.diff(np.append(base, len(starts))))
        + 1
    )
    return pa.table(
        {
            "user_id": pa.array(su.astype(np.int64), pa.int64()),
            "session_idx": pa.array(session_idx, pa.int64()),
            "n_events": pa.array((ends - starts).astype(np.int64), pa.int64()),
            "t_start": pa.array(ts[starts].astype("datetime64[us]")),
            "t_end": pa.array(ts[ends - 1].astype("datetime64[us]")),
        }
    )


def asof_partition(g):
    """ALL users of one hash partition -> (event_id, last_purchase): the
    most recent STRICTLY-earlier 'purchase' per event.  Fully vectorized
    over the Arrow block via composite (user_rank, ts_rank) keys: one
    searchsorted against the sorted purchase key array counts each row's
    strictly-earlier same-user purchases (strictness is exact — equal
    timestamps differ in key), then a gather fetches that purchase's
    timestamp."""
    import pyarrow as pa
    import pyarrow.compute as pc

    g = _as_table(g)
    n = g.num_rows
    if n == 0:
        return pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "last_purchase": pa.array([], pa.timestamp("us")),
            }
        )
    user = g.column("user_id").to_numpy(zero_copy_only=False)
    ts = _ts_us(g.column("ts"))
    ev_id = g.column("event_id").to_numpy(zero_copy_only=False)
    is_p = pc.equal(
        g.column("event_type"), pa.scalar("purchase")
    ).to_numpy(zero_copy_only=False)

    uniq_u, user_rank = np.unique(user, return_inverse=True)
    uniq_t, ts_rank = np.unique(ts, return_inverse=True)
    K = np.int64(len(uniq_t) + 1)
    keys = user_rank.astype(np.int64) * K + ts_rank.astype(np.int64)

    p_keys = np.sort(keys[is_p])
    p_order = np.argsort(keys[is_p], kind="stable")
    p_ts = ts[is_p][p_order]
    # per-user purchase segment starts: first purchase key of each user
    p_user = p_keys // K
    cnt_before = np.searchsorted(p_keys, keys, side="left")
    seg_start = np.searchsorted(p_user, user_rank, side="left")
    cnt_in_user = cnt_before - seg_start
    last = np.full(n, np.datetime64("NaT", "us"))
    has = cnt_in_user > 0
    last[has] = p_ts[cnt_before[has] - 1].astype("datetime64[us]")
    return pa.table(
        {
            "event_id": pa.array(ev_id.astype(np.int64), pa.int64()),
            "last_purchase": pa.array(last),
        }
    )


def window_top1_partition(g):
    """ALL users of one hash partition -> highest-value event per user
    (ties: earliest ts, then lowest event_id): the k=1 special case of
    :func:`window_topk_partition` with the rank column dropped — one
    tie-break key list, no drift between the two kernels."""
    return window_topk_partition(g, k=1).select(["user_id", "event_id"])


def _by_user_partition(ds, kernel):
    """Hash-partition on user_id, one vectorized multi-user kernel per
    partition."""
    return hash_partition(ds, "user_id", kernel, partitions(ds))


def sessionize(ds, gap_us: int = GAP_US):
    """Dataset of events -> per-user-session aggregate rows."""
    return _by_user_partition(ds, lambda g: sessionize_partition(g, gap_us))


def asof_purchase(ds):
    """Dataset of events -> (event_id, last_purchase) as-of join rows."""
    return _by_user_partition(ds, asof_partition)


def window_top1(ds):
    """Dataset of events -> (user_id, event_id) of each user's
    highest-value event (windowed top-1 custom op)."""
    return _by_user_partition(ds, window_top1_partition)


def window_topk_partition(g, k: int):
    """ALL users of one hash partition -> each user's top-k events by
    (value desc, ts, event_id) with their 1-based rank.  One vectorized
    lexsort + per-user rank rebase over the Arrow block (no pandas
    copy)."""
    import pyarrow as pa

    g = _as_table(g)
    n = g.num_rows
    if n == 0:
        return pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    user = g.column("user_id").to_numpy(zero_copy_only=False)
    value = g.column("value").to_numpy(zero_copy_only=False)
    ts = _ts_us(g.column("ts"))
    eid = g.column("event_id").to_numpy(zero_copy_only=False)
    # value DESC: integers via ~value (exact, monotone decreasing, and
    # defined at INT64_MIN, unlike -value or a float64 cast that ties
    # values above 2^53); floats via negation (the events value column
    # is finite — the pandas ascending=False path assumed no NaN too)
    desc = ~value if value.dtype.kind in "iu" else -value.astype(np.float64)
    order = np.lexsort((eid, ts, desc, user))
    user = user[order]
    start = np.ones(n, bool)
    start[1:] = user[1:] != user[:-1]
    first = np.nonzero(start)[0]
    rank = np.arange(n, dtype=np.int64) - np.repeat(
        first, np.diff(np.append(first, n))
    ) + 1
    m = rank <= k
    return pa.table(
        {
            "user_id": pa.array(user[m].astype(np.int64), pa.int64()),
            "event_id": pa.array(eid[order][m].astype(np.int64), pa.int64()),
            "rank": pa.array(rank[m], pa.int64()),
        }
    )


def window_topk(ds, k: int = 2):
    """Dataset of events -> (user_id, event_id, rank) of each user's k
    highest-value events (windowed top-k custom op)."""
    return _by_user_partition(ds, lambda g: window_topk_partition(g, k))


# ---------------------------------------------------------------------------
# sliding (trailing) window via OVERLAP REPLICATION
# ---------------------------------------------------------------------------

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


def sliding_count_partition(g, window_us: int = HOUR_US):
    """ALL (event_type, day) groups of one hash partition -> per-event
    trailing-window count (events of the same type with ts in
    [ts - window, ts], ties included — SQL RANGE-frame semantics).
    Vectorized over the Arrow block: event_type factorized to lex-ordered
    codes (np.unique), one lexsort, then per-(type, day) segment a pair
    of ``searchsorted`` calls over the whole segment at once; replicated
    overlap rows (own == 0) participate in the counts but emit nothing."""
    import pyarrow as pa

    g = _as_table(g)
    n = g.num_rows
    if n == 0:
        return pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "n_trailing": pa.array([], pa.int64()),
            }
        )
    ts = _ts_us(g.column("ts"))
    own = g.column("own").to_numpy(zero_copy_only=False).astype(bool)
    ev = g.column("event_id").to_numpy(zero_copy_only=False)
    day = g.column("day").to_numpy(zero_copy_only=False)
    et = g.column("event_type").to_numpy(zero_copy_only=False)
    # np.unique codes are lexicographically ordered — sorting by code is
    # sorting by event_type (only equal-value grouping matters here)
    _, codes = np.unique(et, return_inverse=True)
    order = np.lexsort((ev, ts, day, codes))
    ts, own, ev = ts[order], own[order], ev[order]
    seg_key = codes[order].astype(np.int64) * np.int64(1 << 32) + day[order]
    bounds = np.concatenate(
        [[0], np.nonzero(seg_key[1:] != seg_key[:-1])[0] + 1, [n]]
    )
    out_ids, out_counts = [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        seg = ts[s:e]
        hi = np.searchsorted(seg, seg, side="right")
        lo = np.searchsorted(seg, seg - window_us, side="left")
        m = own[s:e]
        out_ids.append(ev[s:e][m])
        out_counts.append((hi - lo)[m])
    return pa.table(
        {
            "event_id": pa.array(
                np.concatenate(out_ids).astype(np.int64), pa.int64()),
            "n_trailing": pa.array(
                np.concatenate(out_counts).astype(np.int64), pa.int64()),
        }
    )


def events_sliding(ds, window_us: int = HOUR_US):
    """Per-event TRAILING-window count (same event_type, ts within the
    last ``window_us``) — the sliding-window custom op.

    Scale design: a sliding window over `groupby(event_type)` would
    funnel each type through one task (types are few, data per type is
    the corpus).  Instead events are range-partitioned by (event_type,
    DAY) with OVERLAP REPLICATION: each event inside the last ``window``
    of its day is replicated into the next day's partition (flagged
    own=0, counted but never emitted), so every partition holds every
    row its own events' windows can reach.  Partition count grows with
    the time span x types — no per-type funnel, no per-group dispatch
    (one vectorized kernel per hash partition).  Requires
    window <= 1 day (asserted)."""
    import pyarrow as pa

    if window_us > DAY_US:
        raise ValueError("events_sliding requires window <= 1 day (overlap = 1 period)")

    def explode(b: pa.Table) -> pa.Table:
        ts = b.column("ts").cast(pa.int64()).to_numpy()
        day = ts // DAY_US
        tail = ts >= (day + 1) * DAY_US - window_us  # last window of the day
        n = len(ts)
        idx = np.concatenate([np.arange(n), np.nonzero(tail)[0]])
        out_day = np.concatenate([day, day[tail] + 1])
        own = np.concatenate([np.ones(n, np.int8), np.zeros(int(tail.sum()), np.int8)])
        t = b.take(pa.array(idx, pa.int64()))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
                "ts": t.column("ts"),
                "day": pa.array(out_day, pa.int64()),
                "own": pa.array(own, pa.int8()),
            }
        )

    return hash_partition(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["event_type", "day"],
        lambda g: sliding_count_partition(g, window_us),
        partitions(ds),
    )
