"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry and its ``oracle_sql()`` twin on the same
sf dir, compares row count, column names, and an order-insensitive value
hash (rows sorted by all columns, columns sorted by name).

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys

import duckdb
import pandas as pd

import ray


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    # widen integer/float widths (int32 -> int64, float32 -> float64): the
    # driver's value hash is width-insensitive but int-vs-float sensitive
    for c in df.columns:
        k = df[c].dtype.kind
        if k == "i":
            df[c] = df[c].astype("int64")
        elif k == "u":
            df[c] = df[c].astype("uint64")
        elif k == "f":
            df[c] = df[c].astype("float64")
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    # build the memoized geo extract first: otherwise the first
    # geo query's ray= wall carries it and walls differ with query order
    entry._geo(sf_dir)
    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    import time as _time
    for name, fn in qs.items():
        if only and name not in only:
            continue
        _t0 = _time.monotonic()
        _ray_wall = None
        try:
            got = normalize(to_pandas(fn(sf_dir)))
            _ray_wall = _time.monotonic() - _t0
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in oracles:
            print(f"SKIP {name}: no oracle (rows={len(got)})")
            continue
        try:
            want = normalize(con.execute(oracles[name]).df())
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        ok_rows = len(got) == len(want)
        ok_cols = list(got.columns) == list(want.columns)
        ok_vals = False
        ok_dtypes = True
        if ok_rows and ok_cols:
            gv = got.reset_index(drop=True)
            wv = want.reset_index(drop=True)
            # The driver hashes VALUES, so a float64 123.0 vs int64 123
            # mismatches there even when the numbers are equal — compare
            # strictly, without dtype coercion, to mirror that gate.
            ok_dtypes = list(map(str, gv.dtypes)) == list(map(str, wv.dtypes))
            try:
                ok_vals = ok_dtypes and gv.equals(wv)
            except Exception:
                ok_vals = False
        status = "OK  " if (ok_rows and ok_cols and ok_vals) else "FAIL"
        if status == "FAIL" and ok_rows and ok_cols and not ok_dtypes:
            print(f"     dtype mismatch: got {list(map(str, got.dtypes))} want {list(map(str, want.dtypes))}")
        if status == "FAIL":
            failures += 1
        print(f"{status} {name}: rows {len(got)}/{len(want)} cols_match={ok_cols} vals_match={ok_vals} wall={_time.monotonic() - _t0:.1f}s ray={_ray_wall:.1f}s")
        if not ok_cols:
            print(f"     got cols:  {list(got.columns)}\n     want cols: {list(want.columns)}")
        if ok_rows and ok_cols and not ok_vals:
            neq = (got.astype(str) != want.astype(str)).any(axis=1)
            print("     first diffs:")
            print(pd.concat([got[neq].head(3).add_suffix("_got"), want[neq].head(3).add_suffix("_want")], axis=1).to_string())
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    code = main()
    ray.shutdown()
    sys.exit(code)
