"""Raster <-> vector bridge: rasterize point datasets into dense tile
grids and aggregate rasters back onto vector zones.

north_rule names "raster<->vector tile assignment" as a first-class
operator.  The reference library's closest analog is the envelope->grid
clipping path (``Extents.java:231-243``, already mapped by
``cells.cell_polygon``); everything here is the distributed raster layer
the reference does not have.

Grid model
----------
Pixels are the resolution-``res`` cells of :mod:`georay.cells` (an
equirectangular 2^res x 2^res grid over lon [-180,180) / lat [-90,90)),
so the raster grid and the engine's tile-cell index share one coordinate
system and one SQL mirror (`__ray_entry__._CELL_SQL`).  Pixels group
into square tiles of ``tile x tile`` pixels; a tile row is

    (tile_x, tile_y, band: list<int64>[tile*tile], n_docs, n_px)

with ``band[(iy % tile)*tile + (ix % tile)]`` = document count in that
pixel — the dense, zero-filled form a raster consumer (resampling,
convolution, tile server) needs, NOT a sparse (cell, n) table.

Scale shape
-----------
``rasterize`` pre-combines per batch (one row per (tile, pixel) per
block via a pyarrow C++ group_by), then moves ONLY those combined
partials through the one tile exchange, :func:`_tile_exchange`: a
``hash_partition`` on (tile_x, tile_y) that brings every partial row of
a tile into one partition.  Each partition's kernel finds its tiles with
one ``np.unique`` and scatters all their bands with one ``np.add.at``,
bounded at tile*tile int64s per tile.  ``downsample``, ``raster_diff``
and ``raster_focal`` share that exchange.  ``zonal_stats`` never
shuffles the raster: each batch of tiles is reduced against the
broadcast zone polygons to at most K partial rows, and the K-row
partials merge on the driver (``stages.aggregate.driver_merge``).
Occupied-pixel centers are tested with the same vectorized ray-cast
kernel as the point joins (``geom.polygon.PolygonSet.join``), so
raster->vector and point->polygon agree on boundary semantics by
construction.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from georay import cells as _cells
from georay.partition import cached_map, hash_partition
from georay.pipelines.polygons import build_polygon_set
from georay.stages.aggregate import blocks, combiner, driver_merge, merger

_I64 = pa.int64()
#: combined partial pixel rows: what the tile exchange of ``rasterize``
#: and ``downsample`` moves
PIXELS = pa.schema([("tile_x", _I64), ("tile_y", _I64), ("idx", _I64), ("n", _I64)])
#: ``raster_vectorize`` output: one vector feature per qualifying pixel
FEATURES = pa.schema(
    [("gx", _I64), ("gy", _I64), ("n", _I64)]
    + [(c, pa.float64()) for c in ("minlon", "minlat", "maxlon", "maxlat")]
)
#: ``zonal_partial`` output: one row per zone
ZONAL = pa.schema([("polygon_id", pa.string()), ("n_px", _I64), ("n_docs", _I64), ("max_n", _I64)])


def _grid_n(res: int) -> int:
    return 1 << res


def _np(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def _flat(col) -> np.ndarray:
    """Every value of a list column (one chunk or many), flattened."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False)


def _tiles(xy: np.ndarray, tile: int, **cols) -> pa.Table:
    """One row per tile of ``xy`` (an (m, 2) array of tile_x, tile_y):
    a 2-D column becomes a dense band, a 1-D one stays a scalar column."""
    out = {"tile_x": xy[:, 0].astype(np.int64), "tile_y": xy[:, 1].astype(np.int64)}
    for name, v in cols.items():
        out[name] = (
            pa.FixedSizeListArray.from_arrays(pa.array(v.reshape(-1), _I64), tile * tile)
            if v.ndim == 2 else v
        )
    return pa.table(out)


def _tile_index(part: pa.Table):
    """The distinct tiles of a partition's rows, as an (m, 2) array of
    (tile_x, tile_y), and each row's position in it."""
    xy = np.stack([_np(part, "tile_x"), _np(part, "tile_y")], axis=1)
    tiles, inv = np.unique(xy, axis=0, return_inverse=True)
    return tiles, inv.reshape(-1)


def _tile_exchange(partials, kernel, tile: int):
    """The one tile-keyed exchange of every raster stage: a
    ``hash_partition`` on (tile_x, tile_y) brings all partial rows of a
    tile into one partition, and ``kernel(part, tile)`` merges every tile
    that partition holds.  The exchange sizes itself from the rows of the
    sources the partials are made from (the points, or the points under a
    raster)."""
    return hash_partition(partials, ["tile_x", "tile_y"], partial(kernel, tile=tile))


def rasterize_partial(batch: pa.Table, res: int = 7, tile: int = 8) -> pa.Table:
    """Per-batch combine: point rows -> one (tile_x, tile_y, idx, n) row
    per occupied pixel in this block (pyarrow C++ group_by; no Python per
    row).  This is the ONLY thing the rasterize shuffle moves."""
    if _grid_n(res) % tile:
        raise ValueError(f"tile={tile} must divide 2^res={_grid_n(res)}")
    if batch.num_rows == 0:
        return PIXELS.empty_table()
    cell = _cells.latlng_to_cell(_np(batch, "lat"), _np(batch, "lon"), res)
    ix = _cells.cell_ix(cell)
    iy = _cells.cell_iy(cell)
    t = pa.table(
        {
            "tile_x": ix // tile,
            "tile_y": iy // tile,
            "idx": (iy % tile) * tile + (ix % tile),
            "one": np.ones(len(ix), dtype=np.int64),
        }
    )
    g = t.group_by(["tile_x", "tile_y", "idx"]).aggregate([("one", "sum")])
    return g.rename_columns(PIXELS.names)


def _dense_tiles(part: pa.Table, tile: int) -> pa.Table:
    """Tile-merge kernel: a partition's combined (idx, n) partial rows ->
    one dense row per tile it holds.  Partial rows for the same pixel
    from different blocks sum (np.add.at).  Bounded at tile*tile int64s
    per tile."""
    tiles, t = _tile_index(part)
    bands = np.zeros((len(tiles), tile * tile), dtype=np.int64)
    np.add.at(bands, (t, _np(part, "idx")), _np(part, "n"))
    return _tiles(tiles, tile, band=bands, n_docs=bands.sum(axis=1), n_px=(bands > 0).sum(axis=1))


def rasterize(ds, res: int = 7, tile: int = 8):
    """Vector -> raster: point dataset (lon/lat columns) -> dense tile
    grid, one row per OCCUPIED tile (empty tiles are absent by design —
    at 10^12 docs the ocean tiles must not exist).

    Pre-combined per block, exchanged by tile key, densified per
    partition.
    """
    partials = ds.map_batches(
        lambda b: rasterize_partial(b, res=res, tile=tile), batch_format="pyarrow"
    )
    return _tile_exchange(partials, _dense_tiles, tile)


def raster_pixels(raster_ds, tile: int = 8, **bands):
    """Raster -> pixel rows: explode dense tiles back to one row per
    pixel INCLUDING zero pixels — the exact inverse of the dense fill,
    and the oracle-comparable form.  Each ``out="band"`` keyword adds
    column ``out`` with that band's pixel values: ``n="band"`` for a
    ``rasterize`` raster, ``n_a="band_a", n_b="band_b",
    diff="band_diff"`` for a ``raster_diff`` one, ``focal="band"`` for a
    ``raster_focal`` one.  Rows are (tile_x, tile_y, idx, *bands)."""
    tt = tile * tile
    empty = pa.schema([(c, _I64) for c in ("tile_x", "tile_y", "idx", *bands)]).empty_table()

    def explode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        return pa.table(
            {
                "tile_x": np.repeat(_np(b, "tile_x"), tt),
                "tile_y": np.repeat(_np(b, "tile_y"), tt),
                "idx": np.tile(np.arange(tt, dtype=np.int64), b.num_rows),
                **{out: _flat(b.column(band)) for out, band in bands.items()},
            }
        )

    return raster_ds.map_batches(explode, batch_format="pyarrow")


def downsample_partial(batch: pa.Table, res: int, tile: int, factor: int) -> pa.Table:
    """Per-batch pyramid combine: dense res-r tiles -> combined partial
    pixel rows at res-(log2 factor) via an f x f block-sum (one reshape
    per batch, no Python per pixel).  Output rows feed the SAME tile
    exchange and dense fill as ``rasterize_partial``, so pyramid levels
    and direct coarse rasterization share one code path and one
    invariant: downsample(rasterize(res), f) == rasterize(res - log2 f)."""
    if factor < 1 or factor & (factor - 1):
        raise ValueError(f"factor must be a power of two: {factor}")
    if tile % factor:
        raise ValueError(f"factor={factor} must divide tile={tile}")
    if batch.num_rows == 0:
        return PIXELS.empty_table()
    t2 = tile // factor  # coarse pixels contributed per input tile side
    tx = _np(batch, "tile_x")
    ty = _np(batch, "tile_y")
    coarse = (
        _flat(batch.column("band")).reshape(len(tx), t2, factor, t2, factor).sum(axis=(2, 4))
    )  # (rows, t2, t2) — band layout is idx = ly*tile + lx, so axis 1 is y
    # global coarse pixel coords per (row, ly', lx')
    gx = tx[:, None, None] * t2 + np.arange(t2, dtype=np.int64)[None, None, :]
    gy = ty[:, None, None] * t2 + np.arange(t2, dtype=np.int64)[None, :, None]
    gx = np.broadcast_to(gx, coarse.shape).reshape(-1)
    gy = np.broadcast_to(gy, coarse.shape).reshape(-1)
    n = coarse.reshape(-1)
    keep = n > 0
    gx, gy, n = gx[keep], gy[keep], n[keep]
    # partial rows from one batch can still collide on a coarse pixel only
    # across DIFFERENT input tiles mapping into the same output tile — the
    # downstream _dense_tiles np.add.at sums them; no combine needed here
    return pa.table(
        [gx // tile, gy // tile, (gy % tile) * tile + (gx % tile), n.astype(np.int64)],
        schema=PIXELS,
    )


def downsample(raster_ds, res: int = 7, tile: int = 8, factor: int = 2):
    """Raster pyramid level: dense res-r raster -> dense res-(r - log2 f)
    raster by f x f block-sum.  Exchanges only combined coarse-pixel
    partials, keyed by output tile (same exchange as ``rasterize``)."""
    partials = raster_ds.map_batches(
        lambda b: downsample_partial(b, res=res, tile=tile, factor=factor),
        batch_format="pyarrow",
    )
    return _tile_exchange(partials, _dense_tiles, tile)


def _diff_tiles(part: pa.Table, tile: int) -> pa.Table:
    """Map-algebra kernel: a partition's tagged partial pixel rows from
    the two input rasters (``src`` 0 or 1) -> one aligned row per tile
    with both dense bands, zero-filled where one input lacks the tile,
    and their elementwise difference."""
    tiles, t = _tile_index(part)
    bands = np.zeros((len(tiles), 2, tile * tile), dtype=np.int64)
    np.add.at(bands, (t, _np(part, "src"), _np(part, "idx")), _np(part, "n"))
    a, b = bands[:, 0], bands[:, 1]
    return _tiles(tiles, tile, band_a=a, band_b=b, band_diff=a - b)


def raster_diff(points_a, points_b, res: int = 7, tile: int = 8):
    """Binary map algebra (change detection): rasterize two point
    datasets onto the SAME grid, align tiles, subtract bands.

    A tile occupied in either input appears once with both dense bands
    zero-filled — the outer-join semantics change detection needs.  Both
    inputs pre-combine per block; the only exchange is ONE tile-keyed
    shuffle of tagged combined partials (no raster ever joins a raster
    through a row join)."""

    def tag(src_id):
        def fn(b: pa.Table) -> pa.Table:
            p = rasterize_partial(b, res=res, tile=tile)
            return p.append_column(
                "src", pa.array(np.full(p.num_rows, src_id, dtype=np.int8))
            )

        return fn

    tagged = points_a.map_batches(tag(0), batch_format="pyarrow").union(
        points_b.map_batches(tag(1), batch_format="pyarrow")
    )
    return _tile_exchange(tagged, _diff_tiles, tile)


def focal_partial(batch: pa.Table, res: int, tile: int) -> pa.Table:
    """Halo-exchange partials for a 3x3 focal sum: each input tile's
    box-summed (T+2)^2 padded result is split into up to 9 pieces — the
    T x T center for the tile itself plus border strips/corners for its
    neighbors — each scattered into a dense T^2 partial band for its
    TARGET tile.  The ``own`` flag marks the center piece so the merge
    can restrict output to occupied tiles (the rasterize contract: empty
    tiles don't exist, even when a neighbor would shine into them).

    Grid edges zero-pad (no longitude wrap — documented divergence from
    the kNN cell-neighbourhood, which wraps); out-of-grid targets are
    dropped here, and unoccupied targets are dropped at the merge."""
    tt = tile * tile
    n_tiles = _grid_n(res) // tile
    if batch.num_rows == 0:
        return _tiles(np.zeros((0, 2), np.int64), tile, band=np.zeros((0, tt), np.int64),
                      own=np.zeros(0, bool))
    tx = _np(batch, "tile_x")
    ty = _np(batch, "tile_y")
    bands = _flat(batch.column("band")).reshape(len(tx), tile, tile)
    # vectorized 3x3 box sum per tile: R is (T+2)x(T+2) (the tile plus a
    # one-pixel halo each side), R[i,j] = sum of B over the 3x3 window
    # centred on padded (i,j); computed as 9 shifted adds, no Python per
    # pixel
    R = np.zeros((len(tx), tile + 2, tile + 2), dtype=np.int64)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ys, ye = max(0, 1 + dy), min(tile + 2, 1 + dy + tile)
            xs, xe = max(0, 1 + dx), min(tile + 2, 1 + dx + tile)
            R[:, ys:ye, xs:xe] += bands[
                :, ys - 1 - dy : ye - 1 - dy, xs - 1 - dx : xe - 1 - dx
            ]
    out_xy, out_bands, out_own = [], [], []
    # 9 pieces: (row range in R, col range in R) -> (tile offset, dest slice)
    spans = [((0, 1), -1, (tile - 1, tile)), ((1, tile + 1), 0, (0, tile)),
             ((tile + 1, tile + 2), 1, (0, 1))]
    for (ry0, ry1), oy, (dy0, dy1) in spans:
        for (rx0, rx1), ox, (dx0, dx1) in spans:
            piece = R[:, ry0:ry1, rx0:rx1]
            ttx = tx + ox
            tty = ty + oy
            ok = (ttx >= 0) & (ttx < n_tiles) & (tty >= 0) & (tty < n_tiles)
            if ox or oy:
                ok &= piece.reshape(len(tx), -1).any(axis=1)
            dest = np.zeros((int(ok.sum()), tile, tile), dtype=np.int64)
            dest[:, dy0:dy1, dx0:dx1] = piece[ok]
            out_xy.append(np.stack([ttx[ok], tty[ok]], axis=1))
            out_bands.append(dest.reshape(-1, tt))
            out_own.append(np.full(int(ok.sum()), not (ox or oy), dtype=bool))
    return _tiles(np.concatenate(out_xy), tile, band=np.concatenate(out_bands),
                  own=np.concatenate(out_own))


def _focal_merge(part: pa.Table, tile: int) -> pa.Table:
    """Halo merge kernel: sum each tile's partial bands; emit a tile ONLY
    if it is itself occupied (one of its partials is ``own``), so tiles
    that only a neighbour shines into are dropped."""
    tiles, t = _tile_index(part)
    total = np.zeros((len(tiles), tile * tile), dtype=np.int64)
    np.add.at(total, t, _flat(part.column("band")).reshape(len(t), -1))
    occupied = np.zeros(len(tiles), dtype=bool)
    occupied[t[_np(part, "own")]] = True
    return _tiles(tiles[occupied], tile, band=total[occupied])


def raster_focal(raster_ds, res: int = 7, tile: int = 8):
    """3x3 focal (neighbourhood) sum over a dense tile raster via halo
    exchange: tiles never see the global raster; each emits <= 9 partial
    bands and ONE tile-keyed exchange merges them.  Output covers exactly
    the occupied tiles of the input."""
    partials = raster_ds.map_batches(
        lambda b: focal_partial(b, res=res, tile=tile), batch_format="pyarrow"
    )
    return _tile_exchange(partials, _focal_merge, tile)


def raster_vectorize(raster_ds, threshold: int = 1, res: int = 7, tile: int = 8):
    """Raster -> vector extraction ("vectorize"): pixels with value >=
    ``threshold`` become vector features — one row per qualifying pixel
    with its cell polygon bounds (the pixel IS a res-``res`` cell, so the
    bounds come from the shared cell arithmetic and its SQL mirror).

    Stateless per-batch kernel over the dense raster: a threshold mask +
    the vectorized bbox arithmetic of :func:`georay.cells.cell_to_bbox`.
    No shuffle — the raster is already tile-partitioned."""
    tt = tile * tile
    n = _grid_n(res)
    w, h = 360.0 / n, 180.0 / n

    def vectorize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return FEATURES.empty_table()
        flat = _flat(b.column("band"))
        hit = np.nonzero(flat >= threshold)[0]
        row = hit // tt
        idx = (hit % tt).astype(np.int64)
        gx = _np(b, "tile_x")[row] * tile + idx % tile
        gy = _np(b, "tile_y")[row] * tile + idx // tile
        minlon = -180.0 + gx.astype(np.float64) * w
        minlat = -90.0 + gy.astype(np.float64) * h
        return pa.table(
            [gx, gy, flat[hit], minlon, minlat, minlon + w, minlat + h], schema=FEATURES
        )

    return raster_ds.map_batches(vectorize, batch_format="pyarrow")


def pixel_centers(tile_x, tile_y, idx, res: int = 7, tile: int = 8):
    """Pixel -> center lon/lat (the raster->vector sampling points)."""
    n = _grid_n(res)
    ix = tile_x * tile + idx % tile
    iy = tile_y * tile + idx // tile
    lon = (ix + 0.5) * (360.0 / n) - 180.0
    lat = (iy + 0.5) * (180.0 / n) - 90.0
    return lon, lat


#: per-zone pixel statistics: occupied pixels, documents, densest pixel
ZONAL_AGGS = {"n_px": ("v", "count"), "n_docs": ("v", "sum"), "max_n": ("v", "max")}


def zonal_partial(batch: pa.Table, pset, res: int = 7, tile: int = 8) -> pa.Table:
    """Per-batch raster->vector combine: occupied pixel centers of this
    batch's tiles joined (WITHIN, shared ray-cast kernel) against the
    broadcast zone polygons, reduced to <=K rows

        (polygon_id, n_px, n_docs, max_n)

    K = #zones, so the downstream merge is trivially small no matter how
    many raster tiles exist."""
    if batch.num_rows == 0:
        return ZONAL.empty_table()
    tt = tile * tile
    flat = _flat(batch.column("band"))
    occ = np.nonzero(flat > 0)[0]
    row = occ // tt
    idx = (occ % tt).astype(np.int64)
    lon, lat = pixel_centers(_np(batch, "tile_x")[row], _np(batch, "tile_y")[row], idx,
                             res=res, tile=tile)
    pt_i, poly_i = pset.join(lon, lat, "WITHIN")
    if len(pt_i) == 0:
        return ZONAL.empty_table()
    g = combiner("pid", ZONAL_AGGS)(pa.table({"pid": poly_i, "v": flat[occ][pt_i]}))
    names = [pset.polygons[int(p)].polygon_id for p in _np(g, "pid")]
    return g.drop_columns(["pid"]).add_column(0, "polygon_id", pa.array(names, pa.string()))


#: associative+commutative merge of zonal partials (``driver_merge``)
zonal_merge = merger("polygon_id", ZONAL_AGGS)


class ZonalStats:
    """Broadcast kernel: builds the polygon index once per worker
    (``cached_map``), reduces each raster batch to <=K zonal partial rows."""

    def __init__(self, polygons, res: int = 7, tile: int = 8):
        self.pset = build_polygon_set(polygons)
        self.res = res
        self.tile = tile

    def __call__(self, batch: pa.Table) -> pa.Table:
        return zonal_partial(batch, self.pset, res=self.res, tile=self.tile)


def zonal_stats(raster_ds, polygons_ref, res: int = 7, tile: int = 8):
    """Raster -> vector: per-zone pixel statistics over a dense tile
    raster, as a one-block Dataset.  Zones are broadcast once (ray.put
    payload), never shuffled; the raster streams through plain tasks,
    and the driver merges the partials when this is called."""
    import ray.data

    partials = raster_ds.map_batches(
        cached_map(ZonalStats, polygons_ref, res=res, tile=tile), batch_format="pyarrow"
    )
    return ray.data.from_arrow(driver_merge(blocks(partials), zonal_merge, ZONAL.empty_table()))
