"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry and its ``oracle_sql()`` twin on the same
sf dir, compares row count, column names, and an order-insensitive value
hash (rows sorted by all columns, columns sorted by name).

Usage: python tools/check_correctness.py [sf_dir] [query ...] [--budget BYTES]

``--budget`` sets ``georay.partition.BROADCAST_BYTES`` before the queries
run; ``--budget 0`` puts every budget-dependent step on its exchange route.
"""

from __future__ import annotations

import argparse
import os
import sys

import duckdb
import pandas as pd
import pyarrow as pa

import ray
import ray.data


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
    """A query's result as a DataFrame.  A Dataset with no rows keeps the
    columns of its schema: Ray's ``to_pandas`` gives a column-less frame
    for it, which would hide a wrong or missing column."""
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, ray.data.Dataset):
        # one run, whose blocks carry the schema; a pandas-format schema
        # has no empty_table, so its frame is Ray's
        res = res.materialize()
        df = res.to_pandas()
        schema = res.schema(fetch_if_missing=False)
        if len(df) == 0 and schema is not None and isinstance(schema.base_schema, pa.Schema):
            return schema.base_schema.empty_table().to_pandas()
        return df
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def main(argv=None):
    ap = argparse.ArgumentParser(description="queries() against their oracle_sql() twins")
    ap.add_argument("sf_dir", nargs="?", help="default: __ray_entry__.SF001")
    ap.add_argument("query", nargs="*", help="run only these queries")
    ap.add_argument("--budget", type=int, help="georay.partition.BROADCAST_BYTES for the run")
    args = ap.parse_args(argv)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry
    import georay.partition

    sf_dir, only = args.sf_dir or entry.SF001, set(args.query)
    if args.budget is not None:
        georay.partition.BROADCAST_BYTES = args.budget
    unknown = only - set(entry.queries())
    if unknown:  # a misspelt name would otherwise run nothing and pass
        ap.error(f"no such queries: {', '.join(sorted(unknown))}")

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
