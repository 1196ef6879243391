"""Polygon kernels: ray-casting point-in-polygon, boundary tests, nearest
points, DE-9IM point-vs-polygon predicates (TopologicalRelationships.java).

The reference hands each geometry pair to JTS (TopologicalRelationships.java:57-96);
here the big side is always a batch of page-derived POINTS and the small
side is a broadcast set of polygons (SURVEY.md §2.1 P-01 mapping), so the
kernels are written as *vectorized points-vs-one-polygon* numpy ops:

- interior test: even-odd ray casting over all rings (exterior + holes
  together, so holes fall out of the crossing parity automatically);
- boundary test: point-to-segment distance <= eps (JTS boundary semantics
  at fixture tolerance);
- nearest point on boundary: the planar ``DistanceOp.nearestPoints`` step
  of the DWithin kernel (TopologicalRelationships.java:156), after which
  the caller applies the *orthodromic* distance (geodesy.orthodromic_distance)
  exactly as the reference pairs them.

All coordinates here are right-handed (x=lon/easting) in ONE common CRS —
CRS harmonization happens upstream (R-01), mirroring ``setCRS``.
"""

from __future__ import annotations

import numpy as np

#: planar tolerance for "on boundary" in degrees (~0.1 mm at the equator);
#: JTS uses exact arithmetic — for conformance-fixture purposes this is
#: indistinguishable, and join semantics at engine scale key off intersects.
BOUNDARY_EPS = 1e-9


def _close_ring(ring: np.ndarray) -> np.ndarray:
    ring = np.asarray(ring, dtype=np.float64)
    if len(ring) == 0:
        return ring.reshape(0, 2)
    if not np.array_equal(ring[0], ring[-1]):
        ring = np.vstack([ring, ring[0]])
    return ring


#: (point, edge) elements one numpy pass may expand to: bounds the
#: temporaries of the location kernels
_CHUNK_ELEMS = 4_000_000


def _edges(ex1: np.ndarray, ex2: np.ndarray):
    """Ring edges ex1[i] -> ex2[i] -> (x1, y1, y2, dx, dy, seg_len2), the
    edge-only terms of :func:`_edge_hits`."""
    x1, y1 = ex1[:, 0], ex1[:, 1]
    x2, y2 = ex2[:, 0], ex2[:, 1]
    dx = x2 - x1
    dy = y2 - y1
    seg_len2 = dx * dx + dy * dy
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    return x1, y1, y2, dx, dy, seg_len2


def _edge_hits(cpx, cpy, x1, y1, y2, dx, dy, seg_len2, eps2):
    """Elementwise over (point, edge): (the point's +x ray crosses the
    edge, the point lies within ``sqrt(eps2)`` of the edge).

    The crossing formula keeps the exact (cpy-y1)*dx/dy op order — the
    SQL oracles mirror it term for term, so factoring dx/dy into one
    constant would change last-ulp results."""
    cond = (y1 > cpy) != (y2 > cpy)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = x1 + (cpy - y1) * dx / dy
    # boundary: squared distance point->segment <= eps^2
    t = np.clip(((cpx - x1) * dx + (cpy - y1) * dy) / seg_len2, 0.0, 1.0)
    ddx = cpx - (x1 + t * dx)
    ddy = cpy - (y1 + t * dy)
    return cond & (cpx < xin), ddx * ddx + ddy * ddy <= eps2


def _relate(pred: str, interior: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Point/polygon DE-9IM reduction of a location to one predicate."""
    if pred == "INTERSECTS":
        return interior | boundary
    if pred == "DISJOINT":
        return ~(interior | boundary)
    if pred in ("WITHIN", "CONTAINS"):
        return interior
    if pred == "TOUCHES":
        return boundary
    if pred in ("EQUALS", "CROSSES", "OVERLAPS"):
        return np.zeros(interior.shape[0], dtype=bool)
    raise ValueError(f"Unknown spatial predicate: {pred}")


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the per-range loop: each element's position in its run, plus
    its run's start."""
    run_start = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(run_start - starts, counts)


class Polygon:
    """One polygon: exterior ring + holes, coords (N,2) right-handed."""

    __slots__ = ("exterior", "holes", "epsg", "polygon_id", "bbox", "_ex1", "_ex2")

    def __init__(self, exterior, holes=(), epsg: int = 4326, polygon_id=None):
        self.exterior = _close_ring(exterior)
        self.holes = [_close_ring(h) for h in holes]
        self.epsg = int(epsg)
        self.polygon_id = polygon_id
        allx = self.exterior[:, 0]
        ally = self.exterior[:, 1]
        self.bbox = (float(allx.min()), float(ally.min()), float(allx.max()), float(ally.max()))
        edges = [(self.exterior[:-1], self.exterior[1:])]
        for h in self.holes:
            if len(h) > 1:
                edges.append((h[:-1], h[1:]))
        self._ex1 = np.concatenate([a for a, _ in edges])
        self._ex2 = np.concatenate([b for _, b in edges])

    # ------------------------------------------------------------------
    def locate(self, px, py, eps: float = BOUNDARY_EPS):
        """Vectorized point location -> (interior: bool[n], boundary: bool[n]).

        Even-odd ray casting over all rings; boundary via segment distance.
        O(E) numpy passes over the point batch (E = total edges).
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        edges = _edges(self._ex1, self._ex2)

        # broadcast (n_points, n_edges); chunk points if enormous
        n = px.shape[0]
        interior = np.zeros(n, dtype=bool)
        boundary = np.zeros(n, dtype=bool)
        chunk = max(1, _CHUNK_ELEMS // max(1, len(self._ex1)))
        for s in range(0, n, chunk):
            cross, on_edge = _edge_hits(px[s : s + chunk, None], py[s : s + chunk, None], *edges, eps * eps)
            interior[s : s + chunk] = (np.count_nonzero(cross, axis=1) & 1).astype(bool)
            boundary[s : s + chunk] = on_edge.any(axis=1)

        # a point flagged on the boundary is not in the open interior
        return interior & ~boundary, boundary

    # ------------------------------------------------------------------
    def nearest_on_boundary(self, px, py):
        """Planar nearest point on the polygon boundary for each input point
        -> (nx, ny, planar_dist).  The DistanceOp.nearestPoints analog; for
        interior points the nearest *polygon* point is the point itself —
        callers use :meth:`locate` to zero those out (distance 0)."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        x1, y1 = self._ex1[:, 0], self._ex1[:, 1]
        x2, y2 = self._ex2[:, 0], self._ex2[:, 1]
        dx = x2 - x1
        dy = y2 - y1
        seg_len2 = dx * dx + dy * dy
        seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)

        n = px.shape[0]
        nx = np.empty(n)
        ny = np.empty(n)
        nd = np.empty(n)
        chunk = max(1, int(4_000_000 // max(1, len(x1))))
        for s in range(0, n, chunk):
            cpx = px[s : s + chunk, None]
            cpy = py[s : s + chunk, None]
            t = np.clip(((cpx - x1) * dx + (cpy - y1) * dy) / seg_len2, 0.0, 1.0)
            qx = x1 + t * dx
            qy = y1 + t * dy
            d2 = (cpx - qx) ** 2 + (cpy - qy) ** 2
            j = np.argmin(d2, axis=1)
            rows = np.arange(len(j))
            nx[s : s + chunk] = qx[rows, j]
            ny[s : s + chunk] = qy[rows, j]
            nd[s : s + chunk] = np.sqrt(d2[rows, j])
        return nx, ny, nd

    # -- DE-9IM point-vs-polygon predicate table (P-01..P-03, P-06) ----
    def relate_points(self, px, py, predicate: str):
        """Evaluate a SpatialOperator (SpatialOperator.java:16-20) between
        this polygon (g2) and a batch of points (g1): returns bool[n].

        Point/polygon DE-9IM reduction:
          INTERSECTS  = interior | boundary
          DISJOINT    = ~INTERSECTS          (TopologicalRelationships.java:71-73)
          WITHIN      = point in interior    (point within polygon)
          CONTAINS    = polygon contains point = interior (for the polygon side)
          TOUCHES     = boundary only
          EQUALS / CROSSES / OVERLAPS = never true for point-vs-area (dim mismatch)
          BBOX        = envelope intersects (fast path, P-06/A-01)
        """
        pred = predicate.upper()
        if pred == "BBOX":
            px = np.asarray(px, dtype=np.float64)
            py = np.asarray(py, dtype=np.float64)
            minx, miny, maxx, maxy = self.bbox
            return (px >= minx) & (px <= maxx) & (py >= miny) & (py <= maxy)
        return _relate(pred, *self.locate(px, py))


class PolygonSet:
    """Broadcast-side container: K polygons + bbox arrays + cell index.

    Built ONCE per join actor from a ``ray.put`` payload (STRtree analog,
    SURVEY.md §2.1 P-01); query -> candidate (point, polygon) pairs via
    bbox-overlap on a tile-cell inverted index, then exact kernels.
    """

    def __init__(self, polygons: list[Polygon], index_res: int | None = None):
        from georay import cells as _cells

        self.polygons = list(polygons)
        k = len(self.polygons)
        self.bboxes = np.array(
            [p.bbox for p in self.polygons], dtype=np.float64
        ).reshape(k, 4)
        # pick an index resolution where a median polygon spans ~1-4 cells
        if index_res is None:
            if k:
                widths = np.maximum(
                    self.bboxes[:, 2] - self.bboxes[:, 0], self.bboxes[:, 3] - self.bboxes[:, 1]
                )
                med = float(np.median(widths)) or 1.0
                index_res = int(np.clip(np.floor(np.log2(360.0 / med)), 0, 14))
            else:
                index_res = 4
        self.index_res = index_res
        # inverted index: cell -> polygon ids (cells covering each bbox).
        # A polygon whose bbox would cover more than MAX_COVER_CELLS at
        # this resolution (one continent-scale outlier among fine-grained
        # polygons would otherwise enumerate 2^28 cells) goes on the
        # always-candidate list instead — checked per point by bbox test.
        MAX_COVER_CELLS = 4096
        cell_keys = []
        cell_vals = []
        big_pids = []
        for pid, (minx, miny, maxx, maxy) in enumerate(self.bboxes):
            c_lo = _cells.latlng_to_cell(np.array([miny]), np.array([minx]), index_res)[0]
            c_hi = _cells.latlng_to_cell(np.array([maxy]), np.array([maxx]), index_res)[0]
            ix0, ix1 = int(_cells.cell_ix(c_lo)), int(_cells.cell_ix(c_hi))
            iy0, iy1 = int(_cells.cell_iy(c_lo)), int(_cells.cell_iy(c_hi))
            if (ix1 - ix0 + 1) * (iy1 - iy0 + 1) > MAX_COVER_CELLS:
                big_pids.append(pid)
                continue
            for iy in range(iy0, iy1 + 1):
                for ix in range(ix0, ix1 + 1):
                    cell_keys.append(
                        (index_res << 58) | (iy << 29) | ix
                    )
                    cell_vals.append(pid)
        self._big_pids = np.asarray(big_pids, dtype=np.int64)
        order = np.argsort(np.asarray(cell_keys, dtype=np.int64), kind="stable") if cell_keys else np.array([], dtype=np.int64)
        self._idx_cells = np.asarray(cell_keys, dtype=np.int64)[order] if cell_keys else np.array([], dtype=np.int64)
        self._idx_pids = np.asarray(cell_vals, dtype=np.int64)[order] if cell_vals else np.array([], dtype=np.int64)
        # every polygon's edges end to end, for the per-pair location kernel
        self._edge_count = np.array([len(p._ex1) for p in self.polygons], dtype=np.int64)
        self._edge_start = np.cumsum(self._edge_count) - self._edge_count
        self._edges = _edges(
            np.concatenate([p._ex1 for p in self.polygons]) if k else np.empty((0, 2)),
            np.concatenate([p._ex2 for p in self.polygons]) if k else np.empty((0, 2)),
        )

    def candidates(self, px, py):
        """Point batch -> (point_idx, polygon_idx) candidate pairs whose
        bboxes contain the point (the BBOX prefilter, P-07)."""
        from georay import cells as _cells

        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if len(px) == 0 or (len(self._idx_cells) == 0 and len(self._big_pids) == 0):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if len(self._idx_cells):
            pc = _cells.latlng_to_cell(py, px, self.index_res)
            lo = np.searchsorted(self._idx_cells, pc, side="left")
            hi = np.searchsorted(self._idx_cells, pc, side="right")
            counts = hi - lo
            pt_idx = np.repeat(np.arange(len(px), dtype=np.int64), counts)
            poly_idx = self._idx_pids[_expand_ranges(lo, counts)]
        else:
            pt_idx = np.empty(0, dtype=np.int64)
            poly_idx = np.empty(0, dtype=np.int64)
        # over-large polygons bypass the cell index: every point is a
        # candidate for them (bbox test below still filters)
        if len(self._big_pids):
            all_pts = np.repeat(np.arange(len(px), dtype=np.int64), len(self._big_pids))
            all_pids = np.tile(self._big_pids, len(px))
            pt_idx = np.concatenate([pt_idx, all_pts])
            poly_idx = np.concatenate([poly_idx, all_pids])
        # exact bbox containment filter
        bb = self.bboxes[poly_idx]
        keep = (
            (px[pt_idx] >= bb[:, 0])
            & (px[pt_idx] <= bb[:, 2])
            & (py[pt_idx] >= bb[:, 1])
            & (py[pt_idx] <= bb[:, 3])
        )
        return pt_idx[keep], poly_idx[keep]

    def locate_pairs(self, px, py, pt_idx, poly_idx, eps: float = BOUNDARY_EPS):
        """:meth:`Polygon.locate` of point ``pt_idx[i]`` in polygon
        ``poly_idx[i]`` for every pair at once -> (interior, boundary) per
        pair: each pair expands to its polygon's edges, so there is no
        Python loop over polygons."""
        n_edges = self._edge_count[poly_idx]
        interior = np.zeros(len(pt_idx), dtype=bool)
        boundary = np.zeros(len(pt_idx), dtype=bool)
        ends = np.cumsum(n_edges)
        s = 0
        while s < len(pt_idx):
            # the pairs s..e-1 expand to at most _CHUNK_ELEMS (point, edge)
            # elements, or to one pair's edges
            e = int(np.searchsorted(ends, ends[s] - n_edges[s] + _CHUNK_ELEMS, side="right"))
            e = max(e, s + 1)
            counts = n_edges[s:e]
            pair = np.repeat(np.arange(e - s), counts)
            edge = _expand_ranges(self._edge_start[poly_idx[s:e]], counts)
            pts = pt_idx[s:e][pair]
            cross, on_edge = _edge_hits(px[pts], py[pts], *(a[edge] for a in self._edges), eps * eps)
            interior[s:e] = np.bincount(pair[cross], minlength=e - s) & 1
            boundary[s:e] = np.bincount(pair[on_edge], minlength=e - s) > 0
            s = e
        # a point flagged on the boundary is not in the open interior
        return interior & ~boundary, boundary

    def join(self, px, py, predicate: str = "INTERSECTS"):
        """Full broadcast spatial join for a point batch -> matching
        (point_idx, polygon_idx) pairs under ``predicate``, ordered by
        polygon, then by point.

        DISJOINT joins every (point, polygon) pair that fails INTERSECTS;
        candidate generation therefore inverts (anti-join semantics,
        SURVEY.md §2.8 set ops) — only sensible for small K.
        """
        pred = predicate.upper()
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        pt_idx, poly_idx = self.candidates(px, py)
        if pred == "DISJOINT":
            hit = np.zeros((len(px), len(self.polygons)), dtype=bool)
            ok = _relate("INTERSECTS", *self.locate_pairs(px, py, pt_idx, poly_idx))
            hit[pt_idx[ok], poly_idx[ok]] = True
            miss_pt, miss_poly = np.nonzero(~hit)
            return miss_pt.astype(np.int64), miss_poly.astype(np.int64)
        if pred != "BBOX":  # the candidates are exactly the bbox hits
            ok = _relate(pred, *self.locate_pairs(px, py, pt_idx, poly_idx))
            pt_idx, poly_idx = pt_idx[ok], poly_idx[ok]
        order = np.argsort(poly_idx, kind="stable")
        return pt_idx[order], poly_idx[order]
