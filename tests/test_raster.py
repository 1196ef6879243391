"""Raster <-> vector bridge (georay/raster.py).

Dense-tile rasterization must be the exact zero-filled inverse of the
per-pixel counts, and zonal stats over pixel CENTERS must agree with a
direct numpy/ray-cast computation on the same centers.
"""

import numpy as np
import pyarrow as pa
import pytest

from georay import cells as _cells
from georay.geom.polygon import Polygon, PolygonSet
from georay.raster import (
    _dense_tiles,
    pixel_centers,
    raster_diff,
    raster_pixels,
    rasterize,
    rasterize_partial,
    zonal_merge,
    zonal_partial,
)

RES, TILE = 7, 8
N = 1 << RES


def _points(n=4000, seed=7):
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-179.9, 179.9, n)
    lat = rng.uniform(-89.9, 89.9, n)
    return lon, lat


def _expected_pixel_counts(lon, lat):
    cell = _cells.latlng_to_cell(lat, lon, RES)
    ix = _cells.cell_ix(cell)
    iy = _cells.cell_iy(cell)
    out = {}
    for x, y in zip(ix, iy):
        k = (int(x) // TILE, int(y) // TILE, int(y % TILE) * TILE + int(x % TILE))
        out[k] = out.get(k, 0) + 1
    return out


class TestRasterizePartial:
    def test_counts_match_reference(self):
        lon, lat = _points(1000)
        t = rasterize_partial(pa.table({"lon": lon, "lat": lat}), res=RES, tile=TILE)
        want = _expected_pixel_counts(lon, lat)
        got = {
            (r["tile_x"], r["tile_y"], r["idx"]): r["n"] for r in t.to_pylist()
        }
        assert got == want

    def test_empty_batch_typed(self):
        t = rasterize_partial(pa.table({"lon": pa.array([], pa.float64()),
                                        "lat": pa.array([], pa.float64())}))
        assert t.num_rows == 0
        assert t.schema.field("n").type == pa.int64()

    def test_tile_must_divide_grid(self):
        with pytest.raises(ValueError):
            rasterize_partial(pa.table({"lon": [0.0], "lat": [0.0]}), res=7, tile=7)


class TestDenseTiles:
    def test_scatter_sums_cross_block_partials(self):
        # two partial rows for the SAME pixel (different blocks) must sum
        g = pa.table({
            "tile_x": [3, 3, 3], "tile_y": [5, 5, 5],
            "idx": [10, 10, 63], "n": [2, 5, 1],
        })
        t = _dense_tiles(g, TILE)
        band = np.asarray(t.column("band")[0].as_py())
        assert band[10] == 7 and band[63] == 1 and band.sum() == 8
        assert t.column("n_docs")[0].as_py() == 8
        assert t.column("n_px")[0].as_py() == 2

    def test_partition_of_three_tiles(self):
        # one hash partition holds whole tiles of three keys, out of order;
        # pixel 10 of tile (3, 5) is split across two partial rows
        g = pa.table({
            "tile_x": [3, 7, 3, 0, 3], "tile_y": [5, 1, 5, 5, 5],
            "idx": [10, 0, 10, 63, 63], "n": [2, 4, 5, 1, 1],
        })
        rows = {(r["tile_x"], r["tile_y"]): r for r in _dense_tiles(g, TILE).to_pylist()}
        assert set(rows) == {(3, 5), (7, 1), (0, 5)}
        want = {(3, 5): {10: 7, 63: 1}, (7, 1): {0: 4}, (0, 5): {63: 1}}
        for key, px in want.items():
            band = np.zeros(TILE * TILE, np.int64)
            band[list(px)] = list(px.values())
            assert rows[key]["band"] == band.tolist()
            assert rows[key]["n_docs"] == band.sum()
            assert rows[key]["n_px"] == len(px)


class TestRasterRoundTrip:
    def test_explode_is_exact_inverse(self, ray_session):
        import ray as _ray

        lon, lat = _points(4000)
        ds = _ray.data.from_arrow(pa.table({"lon": lon, "lat": lat})).repartition(4)
        raster = rasterize(ds, res=RES, tile=TILE)
        pix = raster_pixels(raster, tile=TILE, n="band").to_pandas()
        want = _expected_pixel_counts(lon, lat)
        # every nonzero pixel matches the reference count
        nz = pix[pix.n > 0]
        got = {(r.tile_x, r.tile_y, r.idx): r.n for r in nz.itertuples()}
        assert got == want
        # zeros are materialized: every occupied tile has exactly TILE*TILE rows
        per_tile = pix.groupby(["tile_x", "tile_y"]).size()
        assert (per_tile == TILE * TILE).all()
        assert pix.n.sum() == len(lon)


class TestTileExchange:
    def test_exchange_is_sized_by_the_input_rows(self, ray_session, monkeypatch):
        """The sizer gets the stage's input, whose row count a materialized
        or freshly read Dataset knows for free, not the lazy partials,
        whose count is unknown and would always give the floor: the
        points for ``rasterize``, both point sets for ``raster_diff``."""
        import ray as _ray

        import georay.raster as raster

        seen, real = [], raster.partitions

        def sizer(ds=None, **kwargs):
            seen.append(ds._meta_count())
            return real(ds, **kwargs)

        monkeypatch.setattr(raster, "partitions", sizer)

        def points(n, seed):
            lon, lat = _points(n, seed)
            blocks = [pa.table({"lon": lon[i::3], "lat": lat[i::3]}) for i in range(3)]
            return _ray.data.from_arrow(blocks).materialize(), lon, lat

        ds, lon, lat = points(1500, 1)
        pix = raster_pixels(rasterize(ds, res=RES, tile=TILE), tile=TILE, n="band").to_pandas()
        nz = pix[pix.n > 0]
        assert {(r.tile_x, r.tile_y, r.idx): r.n for r in nz.itertuples()} == _expected_pixel_counts(lon, lat)
        assert seen == [1500]
        (da, _, _), (db, _, _) = points(1500, 2), points(900, 3)
        diff = raster_pixels(raster_diff(da, db, res=RES, tile=TILE), tile=TILE, n_a="band_a", n_b="band_b")
        got = diff.to_pandas()
        assert (got.n_a.sum(), got.n_b.sum()) == (1500, 900)
        assert seen == [1500, 1500, 900]


class TestDownsample:
    def test_block_sum_matches_numpy(self):
        from georay.raster import downsample_partial

        rng = np.random.default_rng(3)
        band = rng.integers(0, 5, size=64).astype(np.int64)
        batch = pa.table({
            "tile_x": pa.array([5], pa.int64()),
            "tile_y": pa.array([9], pa.int64()),
            "band": pa.FixedSizeListArray.from_arrays(pa.array(band, pa.int64()), 64),
            "n_docs": pa.array([int(band.sum())], pa.int64()),
            "n_px": pa.array([int((band > 0).sum())], pa.int64()),
        })
        out = downsample_partial(batch, res=RES, tile=TILE, factor=4).to_pylist()
        want = band.reshape(2, 4, 2, 4).sum(axis=(1, 3))  # (y', x') blocks
        got = {}
        for r in out:
            gx = r["tile_x"] * TILE + r["idx"] % TILE
            gy = r["tile_y"] * TILE + r["idx"] // TILE
            got[(gy, gx)] = r["n"]
        for ly in range(2):
            for lx in range(2):
                gy, gx = 9 * 2 + ly, 5 * 2 + lx
                if want[ly, lx]:
                    assert got[(gy, gx)] == want[ly, lx]
                else:
                    assert (gy, gx) not in got
        # totals preserved
        assert sum(got.values()) == band.sum()

    def test_factor_validation(self):
        from georay.raster import downsample_partial

        b = pa.table({"tile_x": pa.array([], pa.int64())})
        with pytest.raises(ValueError):
            downsample_partial(b, res=RES, tile=TILE, factor=3)
        with pytest.raises(ValueError):
            downsample_partial(b, res=RES, tile=TILE, factor=16)

    def test_pyramid_equals_direct_coarse(self, ray_session):
        """downsample(rasterize(res), f) == rasterize(res - log2 f)."""
        import ray as _ray

        from georay.raster import downsample

        lon, lat = _points(5000, seed=23)
        t = pa.table({"lon": lon, "lat": lat})
        ds = _ray.data.from_arrow(t).repartition(4)
        fine = rasterize(ds, res=RES, tile=TILE)
        coarse = downsample(fine, res=RES, tile=TILE, factor=4)
        via_pyramid = raster_pixels(coarse, tile=TILE, n="band").to_pandas()
        direct = raster_pixels(
            rasterize(_ray.data.from_arrow(t).repartition(4), res=RES - 2, tile=TILE),
            tile=TILE, n="band",
        ).to_pandas()
        key = ["tile_x", "tile_y", "idx"]
        via_pyramid = via_pyramid.sort_values(key, ignore_index=True)
        direct = direct.sort_values(key, ignore_index=True)
        assert via_pyramid.equals(direct)


class TestRasterDiff:
    def test_align_kernel_outer_join(self):
        from georay.raster import _diff_tiles

        # tile occupied by A at idx 3 (n=2), by B at idx 3 (n=1) and idx 7
        g = pa.table({
            "tile_x": [4, 4, 4], "tile_y": [2, 2, 2],
            "idx": [3, 3, 7], "n": [2, 1, 5],
            "src": pa.array([0, 1, 1], pa.int8()),
        })
        t = _diff_tiles(g, TILE)
        a = np.asarray(t.column("band_a")[0].as_py())
        b = np.asarray(t.column("band_b")[0].as_py())
        d = np.asarray(t.column("band_diff")[0].as_py())
        assert a[3] == 2 and a.sum() == 2
        assert b[3] == 1 and b[7] == 5 and b.sum() == 6
        assert d[3] == 1 and d[7] == -5
        assert (d == a - b).all()

    def test_partition_of_three_tiles(self):
        from georay.raster import _diff_tiles

        # tile (4, 2): A and B, A's pixel 3 split across two rows;
        # tile (9, 9): A only; tile (0, 1): B only
        g = pa.table({
            "tile_x": [4, 9, 4, 0, 4], "tile_y": [2, 9, 2, 1, 2],
            "idx": [3, 5, 3, 8, 3], "n": [2, 6, 3, 4, 1],
            "src": pa.array([0, 0, 0, 1, 1], pa.int8()),
        })
        rows = {(r["tile_x"], r["tile_y"]): r for r in _diff_tiles(g, TILE).to_pylist()}
        assert set(rows) == {(4, 2), (9, 9), (0, 1)}

        def band(px):
            out = np.zeros(TILE * TILE, np.int64)
            out[list(px)] = list(px.values())
            return out

        for key, a, b in [((4, 2), {3: 5}, {3: 1}), ((9, 9), {5: 6}, {}), ((0, 1), {}, {8: 4})]:
            assert rows[key]["band_a"] == band(a).tolist()
            assert rows[key]["band_b"] == band(b).tolist()  # zero-filled when absent
            assert rows[key]["band_diff"] == (band(a) - band(b)).tolist()

    def test_end_to_end(self, ray_session):
        import ray as _ray

        from georay.raster import raster_diff

        lon_a, lat_a = _points(1500, seed=1)
        lon_b, lat_b = _points(2500, seed=2)
        da = _ray.data.from_arrow(pa.table({"lon": lon_a, "lat": lat_a})).repartition(3)
        db = _ray.data.from_arrow(pa.table({"lon": lon_b, "lat": lat_b})).repartition(3)
        diff = raster_diff(da, db, res=RES, tile=TILE)
        pix = raster_pixels(diff, tile=TILE, n_a="band_a", n_b="band_b", diff="band_diff").to_pandas()
        assert pix.n_a.sum() == 1500 and pix.n_b.sum() == 2500
        assert (pix["diff"] == pix.n_a - pix.n_b).all()
        want_a = _expected_pixel_counts(lon_a, lat_a)
        got_a = {(r.tile_x, r.tile_y, r.idx): r.n_a for r in pix[pix.n_a > 0].itertuples()}
        assert got_a == want_a


class TestRasterVectorize:
    def test_threshold_and_bounds(self):
        from georay.cells import cell_to_bbox, latlng_to_cell
        from georay.raster import raster_vectorize

        band = np.zeros(TILE * TILE, np.int64)
        band[0] = 1   # below threshold
        band[9] = 3   # idx 9 -> local (y=1, x=1)
        band[63] = 2  # local (7, 7)
        t = pa.table({
            "tile_x": pa.array([5], pa.int64()),
            "tile_y": pa.array([9], pa.int64()),
            "band": pa.FixedSizeListArray.from_arrays(pa.array(band, pa.int64()), TILE * TILE),
            "n_docs": pa.array([6], pa.int64()),
            "n_px": pa.array([3], pa.int64()),
        })

        class FakeDS:  # drive the batch kernel directly
            def map_batches(self, fn, **kw):
                return fn(t)

        out = raster_vectorize(FakeDS(), threshold=2, res=RES, tile=TILE).to_pandas()
        assert len(out) == 2
        r = out[out.gx == 5 * TILE + 1].iloc[0]
        assert (r.gy, r.n) == (9 * TILE + 1, 3)
        # bounds equal the shared cell arithmetic at pixel resolution
        cell = latlng_to_cell(np.array([r.minlat + 1e-9]), np.array([r.minlon + 1e-9]), RES)
        minlon, minlat, maxlon, maxlat = cell_to_bbox(cell)
        assert (r.minlon, r.minlat, r.maxlon, r.maxlat) == (
            minlon[0], minlat[0], maxlon[0], maxlat[0]
        )

    def test_empty(self):
        from georay.raster import raster_vectorize

        empty = pa.table({
            "tile_x": pa.array([], pa.int64()),
            "tile_y": pa.array([], pa.int64()),
            "band": pa.array([], pa.list_(pa.int64(), TILE * TILE)),
            "n_docs": pa.array([], pa.int64()),
            "n_px": pa.array([], pa.int64()),
        })

        class FakeDS:
            def map_batches(self, fn, **kw):
                return fn(empty)

        out = raster_vectorize(FakeDS(), threshold=1, res=RES, tile=TILE)
        assert out.num_rows == 0
        assert "maxlat" in out.column_names


class TestRasterFocal:
    def _raster_tables(self, lon, lat):
        part = rasterize_partial(pa.table({"lon": lon, "lat": lat}), res=RES, tile=TILE)
        return _dense_tiles(part, TILE)

    def test_halo_matches_global_reference(self):
        from georay.raster import _focal_merge, focal_partial

        rng = np.random.default_rng(5)
        # concentrate points around tile borders so halo pieces matter
        lon = rng.uniform(-180 + 4 * TILE * (360 / N), -180 + 6 * TILE * (360 / N) - 1e-9, 3000)
        lat = rng.uniform(-90 + 3 * TILE * (180 / N), -90 + 4 * TILE * (180 / N) - 1e-9, 3000)
        raster = self._raster_tables(lon, lat)
        # global-grid reference
        G = np.zeros((N, N), np.int64)
        for r in raster.to_pylist():
            G[r["tile_y"] * TILE:(r["tile_y"] + 1) * TILE,
              r["tile_x"] * TILE:(r["tile_x"] + 1) * TILE] = np.array(r["band"]).reshape(TILE, TILE)
        P = np.zeros((N + 2, N + 2), np.int64)
        P[1:-1, 1:-1] = G
        F = sum(P[1 + dy:N + 1 + dy, 1 + dx:N + 1 + dx]
                for dy in (-1, 0, 1) for dx in (-1, 0, 1))
        # engine: every partial in one partition, merged
        merged = _focal_merge(focal_partial(raster, res=RES, tile=TILE), TILE)
        occupied = {(r["tile_x"], r["tile_y"]) for r in raster.to_pylist()}
        got = {
            (r["tile_x"], r["tile_y"]): np.array(r["band"]).reshape(TILE, TILE)
            for r in merged.to_pylist()
        }
        assert len(got) == merged.num_rows
        assert set(got) == occupied  # neighbour-shine tiles are dropped
        for (tx, ty), band in got.items():
            want = F[ty * TILE:(ty + 1) * TILE, tx * TILE:(tx + 1) * TILE]
            assert np.array_equal(band, want)

    def test_merge_partition_of_three_tiles(self):
        from georay.raster import _focal_merge

        # tile (2, 2) is occupied and gets a neighbour piece; tile (5, 5)
        # is occupied, its own piece split across two rows; tile (3, 2) is
        # only shone into by a neighbour
        def band(px):
            out = np.zeros(TILE * TILE, np.int64)
            out[list(px)] = list(px.values())
            return out

        parts = [((2, 2), {0: 3}, True), ((3, 2), {7: 1}, False), ((5, 5), {9: 2}, True),
                 ((2, 2), {8: 5}, False), ((5, 5), {9: 4, 1: 1}, True)]
        g = pa.table({
            "tile_x": pa.array([k[0] for k, _, _ in parts], pa.int64()),
            "tile_y": pa.array([k[1] for k, _, _ in parts], pa.int64()),
            "band": pa.FixedSizeListArray.from_arrays(
                pa.array(np.concatenate([band(px) for _, px, _ in parts]), pa.int64()), TILE * TILE),
            "own": [own for _, _, own in parts],
        })
        rows = {(r["tile_x"], r["tile_y"]): r["band"] for r in _focal_merge(g, TILE).to_pylist()}
        assert set(rows) == {(2, 2), (5, 5)}  # the neighbour-only tile is dropped
        assert rows[(2, 2)] == band({0: 3, 8: 5}).tolist()
        assert rows[(5, 5)] == band({9: 6, 1: 1}).tolist()

    def test_grid_corner_no_wrap(self):
        from georay.raster import focal_partial

        # a tile at the global grid corner must not emit out-of-grid pieces
        band = np.ones(TILE * TILE, np.int64)
        t = pa.table({
            "tile_x": pa.array([0], pa.int64()),
            "tile_y": pa.array([0], pa.int64()),
            "band": pa.FixedSizeListArray.from_arrays(pa.array(band, pa.int64()), TILE * TILE),
            "n_docs": pa.array([64], pa.int64()),
            "n_px": pa.array([64], pa.int64()),
        })
        parts = focal_partial(t, res=RES, tile=TILE).to_pandas()
        assert (parts.tile_x >= 0).all() and (parts.tile_y >= 0).all()
        # pieces: own + right + down + down-right
        assert set(zip(parts.tile_x, parts.tile_y)) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_end_to_end(self, ray_session):
        import ray as _ray

        from georay.raster import raster_focal

        lon, lat = _points(4000, seed=9)
        ds = _ray.data.from_arrow(pa.table({"lon": lon, "lat": lat})).repartition(4)
        raster = rasterize(ds, res=RES, tile=TILE)
        pix = raster_pixels(raster_focal(raster, res=RES, tile=TILE), tile=TILE, focal="band").to_pandas()
        # focal sums >= the center pixel's own count; totals are 9x-ish
        base = raster_pixels(rasterize(
            _ray.data.from_arrow(pa.table({"lon": lon, "lat": lat})).repartition(4),
            res=RES, tile=TILE), tile=TILE, n="band").to_pandas()
        key = ["tile_x", "tile_y", "idx"]
        j = pix.merge(base, on=key)
        assert (j.focal >= j.n).all()
        assert j.focal.sum() >= j.n.sum()


def _square(polygon_id, minlon, minlat, maxlon, maxlat):
    ring = np.array([
        [minlon, minlat], [maxlon, minlat], [maxlon, maxlat],
        [minlon, maxlat], [minlon, minlat],
    ])
    return Polygon(ring, epsg=4326, polygon_id=polygon_id)


class TestZonalStats:
    def _pset(self):
        return PolygonSet([
            _square("z-a", -30.0, -20.0, 40.0, 35.0),
            _square("z-b", 100.0, 10.0, 160.0, 70.0),
        ])

    def test_partial_matches_direct(self):
        lon, lat = _points(3000, seed=11)
        part = rasterize_partial(pa.table({"lon": lon, "lat": lat}), res=RES, tile=TILE)
        batch = _dense_tiles(part, TILE)
        pset = self._pset()
        got = zonal_merge(zonal_partial(batch, pset, res=RES, tile=TILE)).to_pylist()
        got = {r["polygon_id"]: r for r in got}

        # direct: all occupied pixel centers, numpy PIP via the same kernel
        want = {}
        counts = _expected_pixel_counts(lon, lat)
        keys = list(counts)
        tx = np.array([k[0] for k in keys], dtype=np.int64)
        ty = np.array([k[1] for k in keys], dtype=np.int64)
        idx = np.array([k[2] for k in keys], dtype=np.int64)
        nn = np.array([counts[k] for k in keys], dtype=np.int64)
        cx, cy = pixel_centers(tx, ty, idx, res=RES, tile=TILE)
        for pid, poly in enumerate(pset.polygons):
            inside = poly.relate_points(cx, cy, "WITHIN")
            if inside.any():
                want[poly.polygon_id] = {
                    "n_px": int(inside.sum()),
                    "n_docs": int(nn[inside].sum()),
                    "max_n": int(nn[inside].max()),
                }
        assert set(got) == set(want)
        for k, w in want.items():
            assert got[k]["n_px"] == w["n_px"]
            assert got[k]["n_docs"] == w["n_docs"]
            assert got[k]["max_n"] == w["max_n"]

    def test_empty_batch(self):
        empty = pa.table({
            "tile_x": pa.array([], pa.int64()),
            "tile_y": pa.array([], pa.int64()),
            "band": pa.array([], pa.list_(pa.int64())),
            "n_docs": pa.array([], pa.int64()),
            "n_px": pa.array([], pa.int64()),
        })
        t = zonal_partial(empty, self._pset(), res=RES, tile=TILE)
        assert t.num_rows == 0
        assert t.column_names == ["polygon_id", "n_px", "n_docs", "max_n"]

    def test_end_to_end_dataset(self, ray_session):
        import ray as _ray

        lon, lat = _points(3000, seed=11)
        ds = _ray.data.from_arrow(pa.table({"lon": lon, "lat": lat})).repartition(3)
        raster = rasterize(ds, res=RES, tile=TILE)
        from georay.raster import zonal_stats

        payload = [
            {"polygon_id": "z-a", "exterior": np.array(
                [[-30.0, -20.0], [40.0, -20.0], [40.0, 35.0], [-30.0, 35.0], [-30.0, -20.0]]),
             "holes": [], "epsg": 4326},
            {"polygon_id": "z-b", "exterior": np.array(
                [[100.0, 10.0], [160.0, 10.0], [160.0, 70.0], [100.0, 70.0], [100.0, 10.0]]),
             "holes": [], "epsg": 4326},
        ]
        ref = _ray.put(payload)
        out = zonal_stats(raster, ref, res=RES, tile=TILE).to_pandas()
        assert set(out.polygon_id) == {"z-a", "z-b"}
        # pixel-count sanity: zone areas are large, both must catch pixels
        assert (out.n_px > 0).all()
        assert (out.n_docs >= out.n_px).all()
