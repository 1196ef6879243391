"""Broadcast spatial-join / DWithin / kNN stages (P-01..P-05).

The small (polygon / reference-point) side is broadcast once via
``ray.put`` and indexed where the big (page) side streams through it
(STRtree-analog PolygonSet / sorted cell arrays), so nothing but the batch
crosses the wire per call — SURVEY.md §2.1 P-01 and §2.8: the join
shuffles NOTHING.  Each stage is a class that takes the resolved payload
and indexes it in ``__init__``; pipelines map it with
``georay.partition.cached_map(cls, ray.put(payload), ...)``, which builds
it once per worker and runs it as plain tasks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import cells
from georay.crs.geodesy import haversine_m, orthodromic_distance
from georay.pipelines.polygons import build_polygon_set


def _join_batch(pset, poly_ids, predicate: str, keep_cols, batch: pa.Table) -> pa.Table:
    """The point-in-polygon join of one batch against an index and its
    ``polygon_id`` array (:class:`SpatialJoin`'s body)."""
    px = batch.column("lon").to_numpy()
    py = batch.column("lat").to_numpy()
    pt_idx, poly_idx = pset.join(px, py, predicate)
    arrs = {}
    take = pa.array(pt_idx, pa.int64())
    for col in keep_cols:
        arrs[col] = batch.column(col).take(take)
    arrs["polygon_id"] = poly_ids.take(pa.array(poly_idx, pa.int64()))
    arrs["predicate"] = pa.repeat(pa.scalar(predicate, pa.string()), len(pt_idx))
    return pa.table(arrs)


def polygon_id_array(pset) -> pa.Array:
    """The ``polygon_id`` of every polygon in ``pset``, by polygon index:
    built once per index, so a batch's ids are one ``take``."""
    return pa.array([p.polygon_id for p in pset.polygons], pa.string())


class SpatialJoin:
    """Callable: point batch x broadcast polygons -> join rows.

    predicate ∈ SpatialOperator vocabulary (SpatialOperator.java:16-20):
    INTERSECTS / DISJOINT / WITHIN / CONTAINS / TOUCHES / BBOX / EQUALS /
    CROSSES / OVERLAPS.  Emits one output row per matching (doc, polygon)
    pair, carrying the requested passthrough columns.
    """

    def __init__(self, polygons, predicate: str = "INTERSECTS", keep_cols=("doc_id", "url")):
        self.pset = build_polygon_set(polygons)
        self.predicate = predicate.upper()
        self.keep_cols = list(keep_cols)
        self.poly_ids = polygon_id_array(self.pset)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _join_batch(self.pset, self.poly_ids, self.predicate, self.keep_cols, batch)


#: the benchmark's Ray-free reference pass (``perfbench/kernels.py``)
#: imports the join under this old name
SpatialJoinActor = SpatialJoin


class DWithinJoin:
    """P-04/P-05: orthodromic DWithin / Beyond join against broadcast polygons.

    Two-step kernel exactly as TopologicalRelationships.java:149-179:
    (1) planar nearest point on the polygon (DistanceOp analog) in the
    common CRS, (2) *orthodromic* Vincenty distance between the point and
    that nearest point, compared against the uom-normalized threshold.
    ``beyond=True`` negates (P-05).  A bbox pre-filter expanded by the
    degree-equivalent of the threshold bounds the candidate set.
    """

    def __init__(
        self,
        polygons,
        distance_m: float,
        beyond: bool = False,
        keep_cols=("doc_id", "url"),
        exact: bool = True,
    ):
        self.pset = build_polygon_set(polygons)
        self.distance_m = float(distance_m)
        self.beyond = bool(beyond)
        self.keep_cols = list(keep_cols)
        # exact=True: Vincenty orthodromic (reference P-04 semantics);
        # exact=False: great-circle haversine (SQL-oracle-mirrorable)
        self.exact = bool(exact)
        self.poly_ids = polygon_id_array(self.pset)
        # 1 deg latitude >= ~110.57 km everywhere; pad bboxes conservatively
        self.pad_deg = self.distance_m / 110_570.0 * 1.05

    def _within(self, px, py):
        """(point_idx, poly_idx) pairs with orthodromic distance < threshold."""
        out_pt, out_poly, out_dist = [], [], []
        for pid, poly in enumerate(self.pset.polygons):
            minx, miny, maxx, maxy = poly.bbox
            # longitude pad must use the WORST (highest-|lat|) cosine the
            # padded box can reach, x1.6 for great-circle flattening of
            # large spans — a mid-latitude cosine under-pads near the
            # polygon's poleward edge and silently drops true matches.
            # Beyond the polar threshold longitude separation gives no
            # distance guarantee at all: disable the lon prefilter there
            # (lat band alone bounds the candidates) like the kNN stage's
            # exhaustive polar fallback.
            lat_reach = max(abs(miny - self.pad_deg), abs(maxy + self.pad_deg))
            if lat_reach >= 80.0:
                pad_lon = 360.0
            else:
                pad_lon = 1.6 * self.pad_deg / np.cos(np.radians(lat_reach))
            cand = np.nonzero(
                (px >= minx - pad_lon)
                & (px <= maxx + pad_lon)
                & (py >= miny - self.pad_deg)
                & (py <= maxy + self.pad_deg)
            )[0]
            if len(cand) == 0:
                continue
            interior, boundary = poly.locate(px[cand], py[cand])
            nx, ny, _ = poly.nearest_on_boundary(px[cand], py[cand])
            dfun = orthodromic_distance if self.exact else haversine_m
            dist = dfun(py[cand], px[cand], ny, nx)
            dist = np.where(interior | boundary, 0.0, dist)
            ok = dist < self.distance_m
            out_pt.append(cand[ok])
            out_poly.append(np.full(int(ok.sum()), pid, dtype=np.int64))
            out_dist.append(dist[ok])
        if not out_pt:
            z = np.empty(0, dtype=np.int64)
            return z, z, np.empty(0)
        return np.concatenate(out_pt), np.concatenate(out_poly), np.concatenate(out_dist)

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch.column("lon").to_numpy()
        py = batch.column("lat").to_numpy()
        pt_idx, poly_idx, dist = self._within(px, py)
        if self.beyond:
            # Beyond = NOT DWithin for every (point, polygon) pair (P-05)
            hit = np.zeros((len(px), len(self.pset.polygons)), dtype=bool)
            hit[pt_idx, poly_idx] = True
            pt_idx, poly_idx = np.nonzero(~hit)
            dist = np.full(len(pt_idx), np.nan)
        arrs = {}
        take = pa.array(pt_idx, pa.int64())
        for col in self.keep_cols:
            arrs[col] = batch.column(col).take(take)
        arrs["polygon_id"] = self.poly_ids.take(pa.array(poly_idx, pa.int64()))
        arrs["distance_m"] = pa.array(dist, pa.float64())
        return pa.table(arrs)


class KNNJoin:
    """kNN join: each page point -> its k nearest broadcast reference points,
    via cell-neighbourhood expansion (north_star: ``grid_disk`` rings until
    >= k candidates, then exact distances + per-row top-k).

    The broadcast side is a small table of reference points
    ``(ref_id, lon, lat)`` put once via ``ray.put``; per-worker state is the
    cell-sorted candidate arrays at an index resolution sized so one ring
    step covers a sensible distance.  Distances are great-circle
    (haversine) by default or orthodromic (Vincenty) when ``exact=True``
    — the P-04 distance semantic.
    """

    #: below this many reference points the cell index buys nothing —
    #: a dense vectorized distance matrix is both faster and exactly
    #: order-deterministic (ties broken by ref_id, matching the oracle)
    BRUTE_FORCE_THRESHOLD = 4096

    def __init__(self, ref_points, k: int = 3, index_res: int = 5, exact: bool = True, keep_cols=("doc_id",)):
        self.ref_ids = np.asarray(ref_points["ref_id"])
        self.ref_lon = np.asarray(ref_points["lon"], dtype=np.float64)
        self.ref_lat = np.asarray(ref_points["lat"], dtype=np.float64)
        rid_order = np.argsort(self.ref_ids, kind="stable")
        self.ref_ids = self.ref_ids[rid_order]
        self.ref_lon = self.ref_lon[rid_order]
        self.ref_lat = self.ref_lat[rid_order]
        self.k = int(k)
        self.exact = bool(exact)
        self.index_res = int(index_res)
        self.keep_cols = list(keep_cols)
        self.brute = len(self.ref_ids) <= self.BRUTE_FORCE_THRESHOLD
        ref_cells = cells.latlng_to_cell(self.ref_lat, self.ref_lon, self.index_res)
        order = np.argsort(ref_cells, kind="stable")
        self._cells_sorted = ref_cells[order]
        self._order = order
        n = 1 << self.index_res
        self._grid_n = n

    def _candidates_for_cell(self, cell: int, k_ring: int) -> np.ndarray:
        disk = cells.grid_disk(int(cell), k_ring)
        lo = np.searchsorted(self._cells_sorted, disk, side="left")
        hi = np.searchsorted(self._cells_sorted, disk, side="right")
        if (hi - lo).sum() == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self._order[a:b] for a, b in zip(lo, hi) if b > a])

    def _brute_force(self, px, py):
        """Dense top-k: (n, K) distance matrix, rank by (distance, ref_id)."""
        dfun = orthodromic_distance if self.exact else haversine_m
        d = dfun(py[:, None], px[:, None], self.ref_lat[None, :], self.ref_lon[None, :])
        kk = min(self.k, d.shape[1])
        # stable sort by distance; ref arrays are kept in ref_id order so
        # equal distances resolve to the smaller ref_id (oracle tie-break)
        topk = np.argsort(d, axis=1, kind="stable")[:, :kk]
        rows = np.arange(d.shape[0])[:, None]
        dk = d[rows, topk]
        pt_idx = np.repeat(np.arange(len(px), dtype=np.int64), kk)
        return pt_idx, topk.ravel(), dk.ravel(), np.tile(np.arange(1, kk + 1), len(px))

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch.column("lon").to_numpy()
        py = batch.column("lat").to_numpy()
        if self.brute:
            pt_idx, ref_idx, dist, rank = self._brute_force(px, py)
            arrs = {}
            take = pa.array(pt_idx, pa.int64())
            for col in self.keep_cols:
                arrs[col] = batch.column(col).take(take)
            arrs["ref_id"] = pa.array(self.ref_ids[ref_idx])
            arrs["rank"] = pa.array(np.asarray(rank, dtype=np.int64), pa.int64())
            arrs["distance_m"] = pa.array(dist, pa.float64())
            return pa.table(arrs)
        pcell = cells.latlng_to_cell(py, px, self.index_res)

        out_pt = []
        out_ref = []
        out_dist = []
        out_rank = []
        dfun = orthodromic_distance if self.exact else haversine_m
        n_grid = self._grid_n
        cell_h_deg = 180.0 / n_grid
        cell_w_deg = 360.0 / n_grid
        # conservative meters-per-degree lower bounds: latitude separation
        # of d deg implies central angle >= d deg (~111.19 km/deg; use
        # 110 km with ellipsoid margin); longitude separation of d deg at
        # |lat| <= phi implies distance >= (2/pi) * d * cos(phi) * 111.32 km
        # (asin flattening for large spans) — use 70 km/deg * cos(phi).
        M_LAT = 110_000.0
        M_LON = 70_000.0
        POLAR_LAT = 80.0

        def topk_of(grp, cand):
            d = dfun(
                py[grp][:, None], px[grp][:, None], self.ref_lat[cand][None, :], self.ref_lon[cand][None, :]
            )
            kk = min(self.k, d.shape[1])
            rows = np.arange(d.shape[0])[:, None]
            # full (distance, ref_id) ordering — argpartition would leave
            # equal-distance ties at the k-boundary in candidate (cell)
            # order, diverging from the brute path/oracle tie-break;
            # candidate counts per group are small, full lexsort is cheap
            tie_ids = np.broadcast_to(self.ref_ids[cand], d.shape)
            srt = np.lexsort((tie_ids, d), axis=1)[:, :kk]
            return srt, d[rows, srt], kk

        def emit(grp, cand, topk, dk, kk):
            out_pt.append(np.repeat(grp, kk))
            out_ref.append(cand[topk].ravel())
            out_dist.append(dk.ravel())
            out_rank.append(np.tile(np.arange(1, kk + 1), len(grp)))

        # group points by cell: one candidate lookup per distinct cell
        order = np.argsort(pcell, kind="stable")
        bounds = np.nonzero(np.diff(pcell[order]))[0] + 1
        groups = np.split(order, bounds)
        all_refs = np.arange(len(self.ref_ids), dtype=np.int64)
        for grp in groups:
            if len(grp) == 0:
                continue
            cell = int(pcell[grp[0]])
            band_lat = np.abs(py[grp]).max()
            if band_lat >= POLAR_LAT:
                # near the poles longitude separation gives no distance
                # guarantee — fall back to exhaustive for these few points
                topk, dk, kk = topk_of(grp, all_refs)
                emit(grp, all_refs, topk, dk, kk)
                continue
            ring = 1
            while True:
                cand = self._candidates_for_cell(cell, ring)
                exhausted = ring >= n_grid
                if len(cand) >= self.k or exhausted:
                    if len(cand) == 0:
                        break
                    topk, dk, kk = topk_of(grp, cand)
                    if exhausted:
                        emit(grp, cand, topk, dk, kk)
                        break
                    # guarantee: any ref OUTSIDE disk(ring) is at least
                    # `bound` meters from every point in this cell —
                    # min of the latitude-only and longitude-only bounds
                    # (longitude bound uses the widest |lat| the disk spans)
                    disk_max_lat = min(89.9, band_lat + (ring + 1) * cell_h_deg)
                    bound = min(
                        (ring - 1) * cell_h_deg * M_LAT,
                        (ring - 1) * cell_w_deg * M_LON * np.cos(np.radians(disk_max_lat)),
                    )
                    if dk[:, -1].max() <= bound:
                        emit(grp, cand, topk, dk, kk)
                        break
                ring *= 2

        if out_pt:
            pt_idx = np.concatenate(out_pt)
            ref_idx = np.concatenate(out_ref)
            dist = np.concatenate(out_dist)
            rank = np.concatenate(out_rank)
        else:
            pt_idx = np.empty(0, dtype=np.int64)
            ref_idx = np.empty(0, dtype=np.int64)
            dist = np.empty(0)
            rank = np.empty(0, dtype=np.int64)
        arrs = {}
        take = pa.array(pt_idx, pa.int64())
        for col in self.keep_cols:
            arrs[col] = batch.column(col).take(take)
        arrs["ref_id"] = pa.array(self.ref_ids[ref_idx])
        arrs["rank"] = pa.array(rank.astype(np.int64), pa.int64())
        arrs["distance_m"] = pa.array(dist, pa.float64())
        return pa.table(arrs)
