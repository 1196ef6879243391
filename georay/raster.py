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
block via a pyarrow C++ group_by), then shuffles ONLY those combined
partials, keyed by tile.  The dense fill runs per tile group and is
bounded at tile*tile int64s.  ``zonal_stats`` never shuffles the raster:
each batch of tiles is reduced against the broadcast zone polygons to at
most K partial rows, and the K-row partials merge in a tree
(``stages.aggregate.tree_merge``).  Occupied-pixel centers are tested
with the same vectorized ray-cast kernel as the point joins
(``geom.polygon.PolygonSet.join``), so raster->vector and point->polygon
agree on boundary semantics by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import cells as _cells
from georay.partition import cached_map
from georay.pipelines.polygons import build_polygon_set
from georay.stages.aggregate import combiner, merger, tree_merge


def _grid_n(res: int) -> int:
    return 1 << res


def rasterize_partial(batch: pa.Table, res: int = 7, tile: int = 8) -> pa.Table:
    """Per-batch combine: point rows -> one (tile_x, tile_y, idx, n) row
    per occupied pixel in this block (pyarrow C++ group_by; no Python per
    row).  This is the ONLY thing the rasterize shuffle moves."""
    if _grid_n(res) % tile:
        raise ValueError(f"tile={tile} must divide 2^res={_grid_n(res)}")
    cols = {
        "tile_x": pa.array([], pa.int64()),
        "tile_y": pa.array([], pa.int64()),
        "idx": pa.array([], pa.int64()),
        "n": pa.array([], pa.int64()),
    }
    if batch.num_rows == 0:
        return pa.table(cols)
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    cell = _cells.latlng_to_cell(lat, lon, res)
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
    return g.rename_columns(["tile_x", "tile_y", "idx", "n"])


def _dense_tiles(group: pa.Table, tile: int) -> pa.Table:
    """Per-tile-group kernel: scatter combined (idx, n) partials into the
    dense band.  Partial rows for the same pixel from different blocks
    sum (np.add.at).  Bounded at tile*tile int64s per tile."""
    tt = tile * tile
    tx = group.column("tile_x").to_numpy(zero_copy_only=False)
    ty = group.column("tile_y").to_numpy(zero_copy_only=False)
    idx = group.column("idx").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    # a map_groups group is one tile by construction; guard anyway so a
    # mis-keyed upstream fails loudly instead of silently blending tiles
    if len(np.unique(tx)) != 1 or len(np.unique(ty)) != 1:
        raise ValueError("_dense_tiles received rows from multiple tiles")
    band = np.zeros(tt, dtype=np.int64)
    np.add.at(band, idx, n)
    return pa.table(
        {
            "tile_x": np.asarray([tx[0]], dtype=np.int64),
            "tile_y": np.asarray([ty[0]], dtype=np.int64),
            "band": pa.FixedSizeListArray.from_arrays(pa.array(band, pa.int64()), tt),
            "n_docs": np.asarray([band.sum()], dtype=np.int64),
            "n_px": np.asarray([int((band > 0).sum())], dtype=np.int64),
        }
    )


def rasterize(ds, res: int = 7, tile: int = 8):
    """Vector -> raster: point dataset (lon/lat columns) -> dense tile
    grid, one row per OCCUPIED tile (empty tiles are absent by design —
    at 10^12 docs the ocean tiles must not exist).

    Pre-combined per block, shuffled by tile key, densified per group.
    """
    partials = ds.map_batches(
        lambda b: rasterize_partial(b, res=res, tile=tile), batch_format="pyarrow"
    )
    return partials.groupby(["tile_x", "tile_y"]).map_groups(
        lambda g: _dense_tiles(g, tile), batch_format="pyarrow"
    )


def raster_pixels(raster_ds, res: int = 7, tile: int = 8):
    """Raster -> pixel rows: explode dense tiles back to one row per
    pixel (tile_x, tile_y, idx, n) INCLUDING zero pixels — the exact
    inverse of the dense fill, and the oracle-comparable form."""
    tt = tile * tile

    def explode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "tile_x": pa.array([], pa.int64()),
                    "tile_y": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        tx = b.column("tile_x").to_numpy(zero_copy_only=False)
        ty = b.column("tile_y").to_numpy(zero_copy_only=False)
        band = b.column("band")
        flat = band.combine_chunks().flatten().to_numpy(zero_copy_only=False) \
            if isinstance(band, pa.ChunkedArray) else band.flatten().to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tile_x": np.repeat(tx, tt),
                "tile_y": np.repeat(ty, tt),
                "idx": np.tile(np.arange(tt, dtype=np.int64), b.num_rows),
                "n": flat,
            }
        )

    return raster_ds.map_batches(explode, batch_format="pyarrow")


def downsample_partial(batch: pa.Table, res: int, tile: int, factor: int) -> pa.Table:
    """Per-batch pyramid combine: dense res-r tiles -> combined partial
    pixel rows at res-(log2 factor) via an f x f block-sum (one reshape
    per batch, no Python per pixel).  Output rows feed the SAME
    groupby+densify tail as ``rasterize_partial``, so pyramid levels and
    direct coarse rasterization share one code path and one invariant:
    downsample(rasterize(res), f) == rasterize(res - log2 f)."""
    empty = pa.table(
        {
            "tile_x": pa.array([], pa.int64()),
            "tile_y": pa.array([], pa.int64()),
            "idx": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    if factor < 1 or factor & (factor - 1):
        raise ValueError(f"factor must be a power of two: {factor}")
    if tile % factor:
        raise ValueError(f"factor={factor} must divide tile={tile}")
    if batch.num_rows == 0:
        return empty
    t2 = tile // factor  # coarse pixels contributed per input tile side
    tx = batch.column("tile_x").to_numpy(zero_copy_only=False)
    ty = batch.column("tile_y").to_numpy(zero_copy_only=False)
    band = batch.column("band")
    if isinstance(band, pa.ChunkedArray):
        band = band.combine_chunks()
    flat = band.flatten().to_numpy(zero_copy_only=False)
    coarse = (
        flat.reshape(len(tx), t2, factor, t2, factor).sum(axis=(2, 4))
    )  # (rows, t2, t2) — band layout is idx = ly*tile + lx, so axis 1 is y
    # global coarse pixel coords per (row, ly', lx')
    gx = tx[:, None, None] * t2 + np.arange(t2, dtype=np.int64)[None, None, :]
    gy = ty[:, None, None] * t2 + np.arange(t2, dtype=np.int64)[None, :, None]
    gx = np.broadcast_to(gx, coarse.shape).reshape(-1)
    gy = np.broadcast_to(gy, coarse.shape).reshape(-1)
    n = coarse.reshape(-1)
    keep = n > 0
    if not keep.any():
        return empty
    gx, gy, n = gx[keep], gy[keep], n[keep]
    t = pa.table(
        {
            "tile_x": gx // tile,
            "tile_y": gy // tile,
            "idx": (gy % tile) * tile + (gx % tile),
            "n": n.astype(np.int64),
        }
    )
    # partial rows from one batch can still collide on a coarse pixel only
    # across DIFFERENT input tiles mapping into the same output tile — the
    # downstream _dense_tiles np.add.at sums them; no combine needed here
    return t


def downsample(raster_ds, res: int = 7, tile: int = 8, factor: int = 2):
    """Raster pyramid level: dense res-r raster -> dense res-(r - log2 f)
    raster by f x f block-sum.  Shuffles only combined coarse-pixel
    partials, keyed by output tile (same tail as ``rasterize``)."""
    partials = raster_ds.map_batches(
        lambda b: downsample_partial(b, res=res, tile=tile, factor=factor),
        batch_format="pyarrow",
    )
    return partials.groupby(["tile_x", "tile_y"]).map_groups(
        lambda g: _dense_tiles(g, tile), batch_format="pyarrow"
    )


def _dense_band(idx: np.ndarray, n: np.ndarray, tile: int) -> np.ndarray:
    band = np.zeros(tile * tile, dtype=np.int64)
    np.add.at(band, idx, n)
    return band


def _diff_tiles(group: pa.Table, tile: int) -> pa.Table:
    """Per-tile map-algebra kernel: tagged partial pixel rows from the
    two input rasters -> one aligned tile row with both dense bands and
    their elementwise difference."""
    tt = tile * tile
    tx = group.column("tile_x").to_numpy(zero_copy_only=False)
    ty = group.column("tile_y").to_numpy(zero_copy_only=False)
    if len(np.unique(tx)) != 1 or len(np.unique(ty)) != 1:
        raise ValueError("_diff_tiles received rows from multiple tiles")
    idx = group.column("idx").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    src = group.column("src").to_numpy(zero_copy_only=False)
    is_a = src == 0
    band_a = _dense_band(idx[is_a], n[is_a], tile)
    band_b = _dense_band(idx[~is_a], n[~is_a], tile)
    return pa.table(
        {
            "tile_x": np.asarray([tx[0]], dtype=np.int64),
            "tile_y": np.asarray([ty[0]], dtype=np.int64),
            "band_a": pa.FixedSizeListArray.from_arrays(pa.array(band_a, pa.int64()), tt),
            "band_b": pa.FixedSizeListArray.from_arrays(pa.array(band_b, pa.int64()), tt),
            "band_diff": pa.FixedSizeListArray.from_arrays(
                pa.array(band_a - band_b, pa.int64()), tt
            ),
        }
    )


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
    return tagged.groupby(["tile_x", "tile_y"]).map_groups(
        lambda g: _diff_tiles(g, tile), batch_format="pyarrow"
    )


def raster_diff_pixels(diff_ds, tile: int = 8):
    """Explode an aligned diff raster to per-pixel rows (zeros included):
    (tile_x, tile_y, idx, n_a, n_b, diff)."""
    tt = tile * tile

    def explode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "tile_x": pa.array([], pa.int64()),
                    "tile_y": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                    "diff": pa.array([], pa.int64()),
                }
            )
        tx = b.column("tile_x").to_numpy(zero_copy_only=False)
        ty = b.column("tile_y").to_numpy(zero_copy_only=False)

        def flat(name):
            col = b.column(name)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return col.flatten().to_numpy(zero_copy_only=False)

        return pa.table(
            {
                "tile_x": np.repeat(tx, tt),
                "tile_y": np.repeat(ty, tt),
                "idx": np.tile(np.arange(tt, dtype=np.int64), b.num_rows),
                "n_a": flat("band_a"),
                "n_b": flat("band_b"),
                "diff": flat("band_diff"),
            }
        )

    return diff_ds.map_batches(explode, batch_format="pyarrow")


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
    empty = pa.table(
        {
            "tile_x": pa.array([], pa.int64()),
            "tile_y": pa.array([], pa.int64()),
            "band": pa.array([], pa.list_(pa.int64(), tt)),
            "own": pa.array([], pa.bool_()),
        }
    )
    if batch.num_rows == 0:
        return empty
    tx = batch.column("tile_x").to_numpy(zero_copy_only=False)
    ty = batch.column("tile_y").to_numpy(zero_copy_only=False)
    band = batch.column("band")
    if isinstance(band, pa.ChunkedArray):
        band = band.combine_chunks()
    bands = band.flatten().to_numpy(zero_copy_only=False).reshape(len(tx), tile, tile)
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
    out_tx, out_ty, out_bands, out_own = [], [], [], []
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
            if not ok.any():
                continue
            dest = np.zeros((int(ok.sum()), tile, tile), dtype=np.int64)
            dest[:, dy0:dy1, dx0:dx1] = piece[ok]
            out_tx.append(ttx[ok])
            out_ty.append(tty[ok])
            out_bands.append(dest.reshape(-1, tt))
            out_own.append(np.full(int(ok.sum()), not (ox or oy), dtype=bool))
    ab = np.concatenate(out_bands)
    return pa.table(
        {
            "tile_x": np.concatenate(out_tx),
            "tile_y": np.concatenate(out_ty),
            "band": pa.FixedSizeListArray.from_arrays(
                pa.array(ab.reshape(-1), pa.int64()), tt
            ),
            "own": np.concatenate(out_own),
        }
    )


def _focal_merge(group: pa.Table, tile: int) -> pa.Table:
    """Per-tile merge of halo partials: sum bands; emit ONLY if the tile
    itself is occupied (an ``own`` partial is present)."""
    tt = tile * tile
    own = group.column("own").to_numpy(zero_copy_only=False)
    if not own.any():
        return pa.table(
            {
                "tile_x": pa.array([], pa.int64()),
                "tile_y": pa.array([], pa.int64()),
                "band": pa.array([], pa.list_(pa.int64(), tt)),
            }
        )
    tx = group.column("tile_x").to_numpy(zero_copy_only=False)
    ty = group.column("tile_y").to_numpy(zero_copy_only=False)
    band = group.column("band")
    if isinstance(band, pa.ChunkedArray):
        band = band.combine_chunks()
    total = band.flatten().to_numpy(zero_copy_only=False).reshape(len(tx), tt).sum(axis=0)
    return pa.table(
        {
            "tile_x": np.asarray([tx[0]], dtype=np.int64),
            "tile_y": np.asarray([ty[0]], dtype=np.int64),
            "band": pa.FixedSizeListArray.from_arrays(pa.array(total, pa.int64()), tt),
        }
    )


def raster_focal(raster_ds, res: int = 7, tile: int = 8):
    """3x3 focal (neighbourhood) sum over a dense tile raster via halo
    exchange: tiles never see the global raster; each emits <= 9 partial
    bands and ONE tile-keyed shuffle merges them.  Output covers exactly
    the occupied tiles of the input."""
    partials = raster_ds.map_batches(
        lambda b: focal_partial(b, res=res, tile=tile), batch_format="pyarrow"
    )
    return partials.groupby(["tile_x", "tile_y"]).map_groups(
        lambda g: _focal_merge(g, tile), batch_format="pyarrow"
    )


def focal_pixels(focal_ds, tile: int = 8):
    """Explode a focal raster to per-pixel rows (tile_x, tile_y, idx,
    focal), zeros included."""
    tt = tile * tile

    def explode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "tile_x": pa.array([], pa.int64()),
                    "tile_y": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "focal": pa.array([], pa.int64()),
                }
            )
        tx = b.column("tile_x").to_numpy(zero_copy_only=False)
        ty = b.column("tile_y").to_numpy(zero_copy_only=False)
        band = b.column("band")
        if isinstance(band, pa.ChunkedArray):
            band = band.combine_chunks()
        return pa.table(
            {
                "tile_x": np.repeat(tx, tt),
                "tile_y": np.repeat(ty, tt),
                "idx": np.tile(np.arange(tt, dtype=np.int64), b.num_rows),
                "focal": band.flatten().to_numpy(zero_copy_only=False),
            }
        )

    return focal_ds.map_batches(explode, batch_format="pyarrow")


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
        empty = pa.table(
            {
                "gx": pa.array([], pa.int64()),
                "gy": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "minlon": pa.array([], pa.float64()),
                "minlat": pa.array([], pa.float64()),
                "maxlon": pa.array([], pa.float64()),
                "maxlat": pa.array([], pa.float64()),
            }
        )
        if b.num_rows == 0:
            return empty
        tx = b.column("tile_x").to_numpy(zero_copy_only=False)
        ty = b.column("tile_y").to_numpy(zero_copy_only=False)
        band = b.column("band")
        if isinstance(band, pa.ChunkedArray):
            band = band.combine_chunks()
        flat = band.flatten().to_numpy(zero_copy_only=False)
        hit = np.nonzero(flat >= threshold)[0]
        if len(hit) == 0:
            return empty
        row = hit // tt
        idx = (hit % tt).astype(np.int64)
        gx = tx[row] * tile + idx % tile
        gy = ty[row] * tile + idx // tile
        minlon = -180.0 + gx.astype(np.float64) * w
        minlat = -90.0 + gy.astype(np.float64) * h
        return pa.table(
            {
                "gx": pa.array(gx, pa.int64()),
                "gy": pa.array(gy, pa.int64()),
                "n": pa.array(flat[hit], pa.int64()),
                "minlon": pa.array(minlon, pa.float64()),
                "minlat": pa.array(minlat, pa.float64()),
                "maxlon": pa.array(minlon + w, pa.float64()),
                "maxlat": pa.array(minlat + h, pa.float64()),
            }
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
    empty = pa.table(
        {
            "polygon_id": pa.array([], pa.string()),
            "n_px": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "max_n": pa.array([], pa.int64()),
        }
    )
    if batch.num_rows == 0:
        return empty
    tt = tile * tile
    tx = batch.column("tile_x").to_numpy(zero_copy_only=False)
    ty = batch.column("tile_y").to_numpy(zero_copy_only=False)
    band = batch.column("band")
    if isinstance(band, pa.ChunkedArray):
        band = band.combine_chunks()
    flat = band.flatten().to_numpy(zero_copy_only=False)
    occ = np.nonzero(flat > 0)[0]
    if len(occ) == 0:
        return empty
    row = occ // tt
    idx = (occ % tt).astype(np.int64)
    lon, lat = pixel_centers(tx[row], ty[row], idx, res=res, tile=tile)
    pt_i, poly_i = pset.join(lon, lat, "WITHIN")
    if len(pt_i) == 0:
        return empty
    g = combiner("pid", ZONAL_AGGS)(pa.table({"pid": poly_i, "v": flat[occ][pt_i]}))
    names = [pset.polygons[int(p)].polygon_id for p in g.column("pid").to_numpy(zero_copy_only=False)]
    return g.drop_columns(["pid"]).add_column(0, "polygon_id", pa.array(names, pa.string()))


#: associative+commutative merge of zonal partials (tree_merge leaf)
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
    raster.  Zones are broadcast once (ray.put payload), never shuffled;
    the raster streams through plain tasks; partials tree-merge."""
    partials = raster_ds.map_batches(
        cached_map(ZonalStats, polygons_ref, res=res, tile=tile), batch_format="pyarrow"
    )
    return tree_merge(partials, zonal_merge)
