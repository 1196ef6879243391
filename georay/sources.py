"""Source readers: one entry point over the formats Ray Data ships,
plus a distributed GML corpus reader.

The reference's only sources are XML streams (SURVEY.md §2.7:
classpath streams, absolute-URI fetch); the engine's sources are Ray
Data's file readers, wrapped so every pipeline accepts parquet / csv /
json(l) interchangeably with the same pruning semantics (columns pushed
to the parquet reader; post-read projection for row-oriented formats
that cannot prune at the read).  :func:`read_gml` maps the reference's
XML-document source to a Dataset: every file parsed inside
``map_batches`` (the XML never leaves the worker — only the slim
geometry summary rows do).  :func:`write_output` is the one way a
pipeline writes an output directory, from a Dataset or from a table on
the driver, and :func:`parquet_rows` counts an output's rows from its
footers.  :data:`PARQUET_WRITE` is the one parquet writer policy, and
:func:`write_parquet_file` the one way a single file is written with it.
:func:`read_parquet_grouped` reads whole files per task, at least a
given number of rows each.  :data:`PLAN_BLOCK_BYTES` is the
block target a plan sets on its own context so its tasks start together.
"""

from __future__ import annotations

import os
import uuid

#: ``target_max_block_size`` a plan sets on its own context (never on
#: Ray's global one): the flagship's sink plan and ``python -m georay
#: dedup``'s read plans.  Until a plan's first task finishes, Ray Data
#: budgets each running task at 2 x this target and admits tasks while
#: they fit half the object store: at Ray's default 128 MiB that is
#: 256 MiB per task, over the 200 MB of a 400 MB store, so each task
#: would run alone.  At 16 MiB a task is budgeted at 32 MiB and several
#: fit even that store.  The estimate is honest for these plans: a sink
#: task's only object-store output is its counts dict, and a dedup read
#: task's output is its banded rows or its filtered texts.
PLAN_BLOCK_BYTES = 16 << 20

#: The writer options of every parquet file georay writes: zstd, and no
#: dictionary pages.  Most columns georay writes are all but unique
#: (``url``, ``doc_id``, ``warc_ts``, ``lon``, ``lat``), and a file of a
#: few thousand rows never reaches the 1 MB dictionary size at which
#: parquet falls back to plain, so a dictionary stores each value twice,
#: once in the dictionary page and once as an index.  On perfbench's
#: ``flagship_uniform`` the written bytes fell from 0.37 to 0.22 of the
#: input against pyarrow's defaults (snappy, a dictionary per column);
#: keeping dictionaries only for the repeating columns would save 1%
#: more, not worth a per-column rule (BASELINE.md).
PARQUET_WRITE = {"compression": "zstd", "use_dictionary": False}


def filesystem(path: str):
    """``(filesystem, path inside it)`` for a local path or a filesystem
    URI."""
    import pyarrow.fs as pafs

    return pafs.FileSystem.from_uri(path if "://" in path else os.path.abspath(path))


def write_parquet_file(table, path: str, fs) -> int:
    """Write ``table`` as the parquet file ``path`` of the filesystem
    ``fs`` with :data:`PARQUET_WRITE`, replacing any file of that name;
    -> the bytes written."""
    import pyarrow.parquet as pq

    with fs.open_output_stream(path) as f:
        pq.write_table(table, f, **PARQUET_WRITE)
        return f.tell()


def write_output(data, path: str, **kwargs) -> bool:
    """Write ``data`` (a Dataset, by ``data.write_parquet(path,
    **kwargs)``; or a ``pa.Table`` on the driver, as one ``<uuid>.parquet``
    with no plan) as the parquet directory ``path``, replacing whatever an
    earlier run left there (Ray's default appends, so a re-run would
    double every output).  Every file is written with
    :data:`PARQUET_WRITE`; ``kwargs`` (``partition_cols``) pass through to
    ``write_parquet``.  The directory exists afterwards even when ``data``
    has no rows (Ray removes it then), so reading the output back whole
    gives an empty dataset instead of raising.  Returns whether the
    write left anything under ``path``: ``False`` when ``data`` had no
    rows."""
    import pyarrow as pa
    import pyarrow.fs as pafs
    from ray.data.datasource import SaveMode

    fs, p = filesystem(path)
    if isinstance(data, pa.Table):
        replace_dir(path)
        if data.num_rows:
            write_parquet_file(data, f"{p}/{uuid.uuid4().hex}.parquet", fs)
        return data.num_rows > 0
    data.write_parquet(path, mode=SaveMode.OVERWRITE, **{**PARQUET_WRITE, **kwargs})
    fs.create_dir(p)
    return bool(fs.get_file_info(pafs.FileSelector(p)))


def remove_dir(path: str) -> None:
    """Delete the directory ``path`` (a local path or a filesystem URI)
    and everything under it, if it exists."""
    import pyarrow.fs as pafs

    fs, p = filesystem(path)
    if fs.get_file_info(p).type != pafs.FileType.NotFound:
        fs.delete_dir(p)


def replace_dir(path: str) -> None:
    """Make ``path`` an empty directory, deleting whatever an earlier run
    left under it."""
    fs, p = filesystem(path)
    fs.delete_dir_contents(p, missing_dir_ok=True)
    fs.create_dir(p)


def parquet_file_rows(path: str) -> dict:
    """``{file: rows}`` of the parquet file ``path`` or of every
    ``.parquet`` file under the directory ``path`` at any depth (a local
    path or a filesystem URI), from their footers: no data is read.  A
    missing ``path`` gives ``{}``."""
    import pyarrow.fs as pafs
    import pyarrow.parquet as pq

    fs, p = filesystem(path)
    info = fs.get_file_info(p)
    if info.type == pafs.FileType.Directory:
        files = [i.path for i in fs.get_file_info(pafs.FileSelector(p, recursive=True))
                 if i.is_file and i.path.endswith(".parquet")]
    else:
        files = [p] if info.is_file else []
    return {f: pq.read_metadata(f, filesystem=fs).num_rows for f in sorted(files)}


def parquet_rows(path: str) -> int:
    """Rows in the parquet file or directory ``path``
    (:func:`parquet_file_rows`), from the footers."""
    return sum(parquet_file_rows(path).values())


def read_parquet_grouped(path: str, columns, min_rows: int):
    """``ray.data.read_parquet(path, columns=columns)`` in blocks of at
    least ``min_rows`` rows when the files are of one size (one block when
    all the rows are fewer), the rows counted from the footers.

    While a file holds fewer than ``min_rows`` rows on average, each read
    task gets ``ceil(min_rows / rows per file)`` whole files or more, and
    a file holding ``min_rows`` to ``2 * min_rows - 1`` rows is a task of
    its own: no file is split, so Ray adds no ``SplitBlocks`` and the maps
    and the write after the read fuse into its tasks.  A file holding
    ``k * min_rows`` rows or more (``k`` > 1) is read by one task and split
    into ``k`` blocks, so a big file still feeds ``k`` tasks after its
    read.  Raises ``FileNotFoundError`` when ``path`` holds no parquet
    file."""
    import math

    import ray.data

    files = parquet_file_rows(path)
    if not files:
        raise FileNotFoundError(f"no parquet file under {path!r}")
    n, rows = len(files), sum(files.values())
    split = rows // (min_rows * n)
    if split:
        # Ray splits each of the n read tasks' output into blocks / n
        blocks = n * split
    else:
        # Ray hands each task a contiguous run of files, n // blocks or more
        blocks = max(1, n // math.ceil(min_rows * n / max(rows, 1)))
    return ray.data.read_parquet(path, columns=columns, override_num_blocks=blocks)


def read_table(path: str, fmt: str | None = None, columns=None, override_num_blocks=None):
    """Read a table from parquet / csv / json(l) into a Dataset.

    ``fmt`` inferred from the extension when omitted.  Column pruning is
    a true read-time pushdown only for parquet; csv/json project after
    parse (documented cost — columnar input is the scale format).
    """
    import ray.data

    if fmt is None:
        ext = os.path.splitext(path.rstrip("/"))[1].lstrip(".").lower()
        fmt = ext or "parquet"
    fmt = fmt.lower()
    kwargs = {}
    if override_num_blocks:
        kwargs["override_num_blocks"] = override_num_blocks
    if fmt == "parquet":
        return ray.data.read_parquet(path, columns=columns, **kwargs)
    if fmt == "csv":
        ds = ray.data.read_csv(path, **kwargs)
    elif fmt in ("json", "jsonl", "ndjson"):
        ds = ray.data.read_json(path, **kwargs)
    else:
        raise ValueError(f"Unsupported source format: {fmt}")
    if columns:
        ds = ds.map_batches(lambda b: b.select(list(columns)), batch_format="pyarrow")
    return ds


def _geom_bbox(prepared):
    """4326 bbox + coordinate count of a prepare_geometry result."""
    import numpy as np

    kind, obj = prepared
    if kind == "point":
        x, y = float(obj[0]), float(obj[1])
        return 1, x, y, x, y
    if kind == "line":
        c = obj.coords
        return len(c), float(c[:, 0].min()), float(c[:, 1].min()), float(c[:, 0].max()), float(c[:, 1].max())
    if kind == "polygon":
        c = obj.exterior
        n = len(c) + sum(len(h) for h in obj.holes)
        return n, float(c[:, 0].min()), float(c[:, 1].min()), float(c[:, 0].max()), float(c[:, 1].max())
    # multi: union of members
    if not obj:
        raise ValueError("multi geometry with zero members (no extent)")
    parts = [_geom_bbox(p) for p in obj]
    ns, x0s, y0s, x1s, y1s = zip(*parts)
    return int(np.sum(ns)), min(x0s), min(y0s), max(x1s), max(y1s)


def read_gml(path: str, target_epsg: int = 4326, strict: bool = False,
             override_num_blocks=None):
    """Distributed reader over a GML document corpus (the reference's
    source format, SURVEY.md §2.7): one summary row per file —
    ``(path, kind, epsg, n_coords, minx, miny, maxx, maxy, error)`` —
    with parsing, densification, axis normalization and reprojection to
    ``target_epsg`` all running INSIDE ``map_batches`` (G-04/EP-1 chain:
    unmarshal -> toJTSGeometry -> setCRS).  Files that are not GML
    geometries (envelopes, CSW responses, temporal docs) emit an
    ``error`` row when ``strict=False`` (honest inventory of a mixed
    corpus) and raise when ``strict=True``."""
    import ray.data

    kwargs = {}
    if override_num_blocks:
        kwargs["override_num_blocks"] = override_num_blocks
    files = ray.data.read_binary_files(path, include_paths=True, **kwargs)

    def parse(batch):
        import xml.etree.ElementTree as ET

        import pyarrow as pa

        from georay.gmlio import parse_geometry, prepare_geometry

        paths, kinds, epsgs, ncs = [], [], [], []
        bbs = {k: [] for k in ("minx", "miny", "maxx", "maxy")}
        errs = []
        for p, raw in zip(
            batch["path"].to_pylist(), batch["bytes"].to_pylist()
        ):
            paths.append(p)
            try:
                desc = parse_geometry(ET.fromstring(raw))
                prepared = prepare_geometry(desc, target_epsg=target_epsg)
                n, x0, y0, x1, y1 = _geom_bbox(prepared)
                kinds.append(desc.get("kind", prepared[0]))
                epsgs.append(int(desc.get("epsg") or 0))
                ncs.append(int(n))
                for k, v in zip(("minx", "miny", "maxx", "maxy"), (x0, y0, x1, y1)):
                    bbs[k].append(float(v))
                errs.append(None)
            except Exception as ex:  # noqa: BLE001 — mixed-corpus inventory
                if strict:
                    raise
                kinds.append("error")
                epsgs.append(0)
                ncs.append(0)
                for k in bbs:
                    bbs[k].append(None)
                errs.append(f"{type(ex).__name__}: {ex}"[:200])
        return pa.table(
            {
                "path": pa.array(paths, pa.string()),
                "kind": pa.array(kinds, pa.string()),
                "epsg": pa.array(epsgs, pa.int32()),
                "n_coords": pa.array(ncs, pa.int64()),
                "minx": pa.array(bbs["minx"], pa.float64()),
                "miny": pa.array(bbs["miny"], pa.float64()),
                "maxx": pa.array(bbs["maxx"], pa.float64()),
                "maxy": pa.array(bbs["maxy"], pa.float64()),
                "error": pa.array(errs, pa.string()),
            }
        )

    return files.map_batches(parse, batch_format="pyarrow")
