"""Output checks run after every timed pipeline run.

Each check returns a list of problems; an empty list means the output is
correct.  They read only what the pipeline wrote, with pyarrow, so a
check never depends on the Ray session that produced the output.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

JOIN_COLUMNS = ("doc_id", "polygon_id", "url", "predicate")


def parquet_files(path: str) -> list[str]:
    """Every ``*.parquet`` file under ``path``, recursively, sorted."""
    out = []
    for dirpath, _, names in os.walk(path):
        out.extend(os.path.join(dirpath, n) for n in names if n.endswith(".parquet"))
    return sorted(out)


def read_dir(path: str, columns: list[str]) -> pa.Table:
    """All parquet files under ``path`` as one table (partition columns,
    which live in directory names, are not read)."""
    files = parquet_files(path)
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def join_digest(table: pa.Table) -> str:
    """Order-independent digest of the join-row multiset: sha256 over the
    rows sorted by (doc_id, polygon_id), column by column."""
    t = table.select(list(JOIN_COLUMNS)).sort_by([("doc_id", "ascending"), ("polygon_id", "ascending")])
    h = hashlib.sha256(str(t.num_rows).encode())
    h.update(np.ascontiguousarray(t.column("doc_id").to_numpy()).astype("<i8").tobytes())
    for name in JOIN_COLUMNS[1:]:
        h.update("\x00".join(t.column(name).to_pylist()).encode())
    return h.hexdigest()


def check_join(out_dir: str, ref: dict) -> list[str]:
    rows = read_dir(os.path.join(out_dir, "join_rows"), columns=list(JOIN_COLUMNS))
    if rows is None:
        return ["no join_rows output"]
    if rows.num_rows != ref["join_rows"]:
        return [f"join rows {rows.num_rows} != reference {ref['join_rows']}"]
    if join_digest(rows) != ref["join_digest"]:
        return ["join-row multiset digest differs from the Ray-free reference"]
    return []


def check_flagship(out_dir: str, geo_pages: int, ref: dict) -> list[str]:
    """Σ cell_agg.n_docs and the tile rows equal the generator's geo-page
    count; the join rows equal the Ray-free reference pass."""
    problems = []
    agg = read_dir(os.path.join(out_dir, "cell_agg"), columns=["n_docs"])
    n_docs = 0 if agg is None else int(pa.compute.sum(agg.column("n_docs")).as_py() or 0)
    if n_docs != geo_pages:
        problems.append(f"sum(cell_agg.n_docs) {n_docs} != geo pages {geo_pages}")
    tiles = sum(pq.read_metadata(f).num_rows for f in parquet_files(os.path.join(out_dir, "tiles")))
    if tiles != geo_pages:
        problems.append(f"tile rows {tiles} != geo pages {geo_pages}")
    return problems + check_join(out_dir, ref)


def check_dedup(out_dir: str, survivors: np.ndarray) -> list[str]:
    """The survivor ids are exactly the generator's non-duplicate ids."""
    got = read_dir(os.path.join(out_dir, "survivors"), columns=["doc_id"])
    if got is None:
        return ["no survivors output"]
    ids = np.sort(got.column("doc_id").to_numpy())
    if len(ids) != len(survivors):
        return [f"{len(ids)} survivors != expected {len(survivors)}"]
    if not np.array_equal(ids, survivors):
        return [f"{int(np.count_nonzero(ids != survivors))} survivor ids differ from the planted set"]
    return []
