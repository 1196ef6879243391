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
the driver, :func:`append_output` adds rows to one,
:func:`parquet_files` lists an output's files and :func:`parquet_rows`
counts its rows from their footers.  :data:`PARQUET_WRITE` is the one
parquet writer policy, and :func:`write_parquet_file` the one way a
single file is written with it.
:func:`read_parquet_grouped` is the one read rule of every corpus read:
``max(CPU slots, rows // TASK_ROWS)`` blocks from
``min(files, that)`` tasks of whole files (:func:`read_tasks`), so a
small input still fills every slot in one wave and a large one gets
about :data:`TASK_ROWS` rows per task whatever the cluster's size; a
read whose write fuses into its tasks (``sink=True``) is not split to
fill the slots.  :data:`PLAN_BLOCK_BYTES` is the
block target a plan sets on its own context so its tasks start together.

:class:`SplitSink` ``(out_dir, route, outputs)`` is the one streaming
write of partitioned outputs (the flagship's tiles under the Hive
``tiles/cell_prefix=<res-2 parent cell>/`` layout of SURVEY.md §2.7 /
§4, its join rows and cell partials; dedup's survivors and candidates).
It replaces each directory of ``outputs`` when the write starts.  Each
write task concatenates its non-empty blocks and writes every non-empty
table of ``route(table)``'s ``(relative dir, table)`` pairs, in that
order, as ``<dir>/<uuid>_<task index>.parquet``; the uuid is fixed when
the sink is built, so a task that Ray Data retries overwrites its own
files instead of adding a second copy.  Once the write completes,
``counts`` holds ``{output: {"rows", "bytes", "nbytes"}}`` per name in
``outputs`` (file bytes and Arrow bytes, zeros when nothing was
written; an output is the first part of a ``dir``) and ``schemas`` the
first schema routed to each output, written or not.  It sets no
``min_rows_per_write``, so the read and the maps before it fuse into its
tasks.
"""

from __future__ import annotations

import os
import uuid

from ray.data import Datasink

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


def _driver_table(data):
    """``data`` itself when it is a ``pa.Table``, the table a
    :func:`georay.partition.from_table` Dataset holds, else ``None``."""
    import pyarrow as pa

    from georay.partition import driver_table

    return data if isinstance(data, pa.Table) else driver_table(data)


def write_output(data, path: str, **kwargs) -> bool:
    """Write ``data`` (a table on the driver: a ``pa.Table`` or a
    :func:`georay.partition.from_table` Dataset, as one ``<uuid>.parquet``
    with no plan; any other Dataset by ``data.write_parquet(path,
    **kwargs)``) as the parquet directory ``path``, replacing whatever an
    earlier run left there (Ray's default appends, so a re-run would
    double every output).  Every file is written with
    :data:`PARQUET_WRITE`; ``kwargs`` (``partition_cols``) pass through to
    ``write_parquet``.  The directory exists afterwards even when ``data``
    has no rows (Ray removes it then), so reading the output back whole
    gives an empty dataset instead of raising.  Returns whether the
    write left anything under ``path``: ``False`` when ``data`` had no
    rows."""
    from ray.data.datasource import SaveMode

    table = _driver_table(data)
    if table is not None:
        replace_dir(path)
        append_output(table, path)
        return table.num_rows > 0
    data.write_parquet(path, mode=SaveMode.OVERWRITE, **{**PARQUET_WRITE, **kwargs})
    fs, p = filesystem(path)
    fs.create_dir(p)
    return bool(parquet_files(path))


def append_output(data, path: str) -> None:
    """Add ``data`` to the existing parquet directory ``path`` with
    :data:`PARQUET_WRITE`, keeping the files already there: a table on
    the driver (as :func:`write_output` takes it) as one
    ``<uuid>.parquet`` with no plan (none when it has no rows), any other
    Dataset by an appending ``write_parquet``."""
    from ray.data.datasource import SaveMode

    table = _driver_table(data)
    if table is None:
        data.write_parquet(path, mode=SaveMode.APPEND, **PARQUET_WRITE)
    elif table.num_rows:
        fs, p = filesystem(path)
        write_parquet_file(table, f"{p}/{uuid.uuid4().hex}.parquet", fs)


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


#: what :class:`SplitSink` counts per output
_COUNTS = ("rows", "bytes", "nbytes")


class SplitSink(Datasink):
    """The one partitioned sink (the module docstring describes it)."""

    def __init__(self, out_dir: str, route, outputs):
        self.out_dir = out_dir
        self.route = route
        self.outputs = tuple(outputs)
        self.uuid = uuid.uuid4().hex
        self.counts = self.schemas = None

    def on_write_start(self) -> None:
        for name in self.outputs:
            replace_dir(f"{self.out_dir}/{name}")

    def write(self, blocks, ctx) -> dict:
        import pyarrow as pa

        out = {}
        tables = [b for b in blocks if b.num_rows]
        if not tables:
            return out
        fs, root = filesystem(self.out_dir)
        name = f"{self.uuid}_{ctx.task_idx}.parquet"
        for rel, table in self.route(pa.concat_tables(tables)):
            counts, _ = out.setdefault(rel.split("/")[0], (dict.fromkeys(_COUNTS, 0), table.schema))
            if table.num_rows:
                fs.create_dir(f"{root}/{rel}")
                counts["bytes"] += write_parquet_file(table, f"{root}/{rel}/{name}", fs)
                counts["rows"] += table.num_rows
                counts["nbytes"] += table.nbytes
        return out

    def on_write_complete(self, write_result) -> None:
        self.counts = {name: dict.fromkeys(_COUNTS, 0) for name in self.outputs}
        self.schemas = {}
        for task in write_result.write_returns:
            for name, (counts, schema) in task.items():
                for key in _COUNTS:
                    self.counts[name][key] += counts[key]
                self.schemas.setdefault(name, schema)


def parquet_files(path: str) -> list:
    """The parquet file ``path``, or every ``.parquet`` file under the
    directory ``path`` at any depth, sorted, as paths inside
    ``filesystem(path)``'s filesystem (a local path or a filesystem URI).
    A missing ``path`` gives ``[]``."""
    import pyarrow.fs as pafs

    fs, p = filesystem(path)
    info = fs.get_file_info(p)
    if info.type != pafs.FileType.Directory:
        return [p] if info.is_file else []
    return sorted(i.path for i in fs.get_file_info(pafs.FileSelector(p, recursive=True))
                  if i.is_file and i.path.endswith(".parquet"))


def parquet_file_rows(path: str) -> dict:
    """``{file: rows}`` of :func:`parquet_files` ``(path)``, from their
    footers: no data is read."""
    import pyarrow.parquet as pq

    fs, _ = filesystem(path)
    return {f: pq.read_metadata(f, filesystem=fs).num_rows for f in parquet_files(path)}


def parquet_rows(path: str) -> int:
    """Rows in the parquet file or directory ``path``
    (:func:`parquet_file_rows`), from the footers."""
    return sum(parquet_file_rows(path).values())


#: rows per read task once the data, not the CPU slots, sets the task
#: count (:func:`read_tasks`).  A flagship read task (``sink=True``) is
#: also a :class:`SplitSink` write task, which writes one tile file per
#: res-2 prefix, a join file and a partials
#: file: one write task per input block gave 256 tile files of ~150 rows
#: for 40k pages.  8M pages in 400 files run as 400 tasks at 4 CPUs and
#: at 16.
TASK_ROWS = 20_000


def read_tasks(file_rows, cpus: int, sink: bool = False) -> tuple[int, int]:
    """``(read tasks, blocks per task)`` of the read rule over files of
    ``file_rows`` rows on ``cpus`` CPU slots.

    The read aims at ``max(cpus, rows // TASK_ROWS)`` blocks: at least one
    per slot, so a small input runs in one wave, and about
    :data:`TASK_ROWS` rows each past that, so the task shapes do not change
    with the cluster's size.  It reads them in ``min(files, blocks)``
    tasks, each a contiguous run of whole files, and splits each task's
    output into ``blocks // tasks`` blocks when the files are fewer (one
    file on 4 slots: 1 task, 4 blocks).  Unsplit, Ray adds no
    ``SplitBlocks`` and the maps and the write after the read fuse into its
    tasks; split, they run in tasks of their own, one per block.

    With ``sink`` the read feeds a write that fuses into its tasks and
    writes one file set per task (the flagship's :class:`SplitSink`), so
    the slots do not split it, only its rows: ``rows // TASK_ROWS`` blocks
    (``k`` > 1 per task at ``k * TASK_ROWS`` rows a task or more), so a
    big file still feeds ``k`` tasks after its read."""
    n, rows = len(file_rows), sum(file_rows)
    blocks = max(cpus, rows // TASK_ROWS)
    tasks = min(n, blocks)
    return tasks, max(1, (rows // TASK_ROWS if sink else blocks) // tasks)


def read_parquet_grouped(path: str, columns=None, sink: bool = False):
    """``ray.data.read_parquet(path, columns=columns)`` in the tasks and
    blocks :func:`read_tasks` gives (``sink`` passed on), the rows counted
    from the footers and the CPU slots from ``ray.cluster_resources()``.
    Raises ``FileNotFoundError`` when ``path`` holds no parquet file."""
    import ray
    import ray.data

    files = parquet_file_rows(path)
    if not files:
        raise FileNotFoundError(f"no parquet file under {path!r}")
    cpus = int(ray.cluster_resources().get("CPU", 1))
    tasks, split = read_tasks(list(files.values()), cpus, sink)
    # Ray hands each task a contiguous run of files and splits each task's
    # output into blocks / tasks
    return ray.data.read_parquet(path, columns=columns, override_num_blocks=tasks * split)


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
