"""Deterministic broadcast-side polygon synthesis.

The reference's conformance corpus supplies polygons as GML fixtures; the
engine's broadcast join side is synthesized deterministically (no RNG, no
external data) so the DuckDB oracles can reproduce it:

- ``rects``: 24 axis-aligned rectangles on a 6x4 grid with margins —
  pure integer arithmetic, SQL-mirrorable as a bbox test.
- ``stars``: 12 non-convex 10-vertex star polygons centered on the first
  12 rect centers — exercises real ray-casting; oracle SQL gets the edge
  list inlined as VALUES (georay's synthesis is the single source).

The payload shape is a plain list of dicts (pickles small, ``ray.put``
once, STRtree-analog built once per worker — SURVEY.md §2.1 P-01 mapping).
"""

from __future__ import annotations

import math

import numpy as np

from georay.geom.polygon import Polygon, PolygonSet

N_RECT_COLS, N_RECT_ROWS = 6, 4
RECT_MARGIN_LON, RECT_MARGIN_LAT = 6.0, 4.0
N_STARS = 12
STAR_OUTER, STAR_INNER = 15.0, 6.0
STAR_VERTICES = 10


def rect_bounds(rect_id: int):
    """rect_id -> (minlon, minlat, maxlon, maxlat); integer-degree values."""
    col = rect_id % N_RECT_COLS
    row = rect_id // N_RECT_COLS
    minlon = -180.0 + col * 60.0 + RECT_MARGIN_LON
    maxlon = -180.0 + (col + 1) * 60.0 - RECT_MARGIN_LON
    minlat = -80.0 + row * 40.0 + RECT_MARGIN_LAT
    maxlat = -80.0 + (row + 1) * 40.0 - RECT_MARGIN_LAT
    return minlon, minlat, maxlon, maxlat


def star_ring(star_id: int) -> np.ndarray:
    """Non-convex star ring centered on rect ``star_id``'s center."""
    minlon, minlat, maxlon, maxlat = rect_bounds(star_id)
    clon = (minlon + maxlon) / 2.0
    clat = (minlat + maxlat) / 2.0
    pts = []
    for j in range(STAR_VERTICES):
        ang = 2.0 * math.pi * j / STAR_VERTICES
        r = STAR_OUTER if j % 2 == 0 else STAR_INNER
        pts.append((clon + r * math.cos(ang), clat + r * math.sin(ang)))
    pts.append(pts[0])
    return np.asarray(pts, dtype=np.float64)


def polygon_payload():
    """Broadcast payload: list of {polygon_id, exterior, holes, epsg}."""
    out = []
    for rid in range(N_RECT_COLS * N_RECT_ROWS):
        minlon, minlat, maxlon, maxlat = rect_bounds(rid)
        ring = np.array(
            [
                [minlon, minlat],
                [maxlon, minlat],
                [maxlon, maxlat],
                [minlon, maxlat],
                [minlon, minlat],
            ]
        )
        out.append({"polygon_id": f"rect-{rid}", "exterior": ring, "holes": [], "epsg": 4326})
    for sid in range(N_STARS):
        out.append(
            {"polygon_id": f"star-{sid}", "exterior": star_ring(sid), "holes": [], "epsg": 4326}
        )
    return out


def build_polygon_set(payload, ids=None) -> PolygonSet:
    """Payload -> PolygonSet (done once per join stage in ``__init__``)."""
    polys = [
        Polygon(p["exterior"], p["holes"], p["epsg"], p["polygon_id"])
        for p in payload
        if ids is None or p["polygon_id"] in ids
    ]
    return PolygonSet(polys)


def star_edges_sql_values(with_idx: bool = False) -> str:
    """Star edges as a SQL VALUES list for the PIP / DWithin oracles;
    floats rendered with repr so DuckDB parses bit-identical doubles.
    ``with_idx`` adds the per-polygon edge index (the argmin tie-break
    the nearest-point kernel uses)."""
    rows = []
    for sid in range(N_STARS):
        ring = star_ring(sid)
        for eidx, ((x1, y1), (x2, y2)) in enumerate(zip(ring[:-1], ring[1:])):
            if with_idx:
                rows.append(f"('star-{sid}',{eidx},{x1!r},{y1!r},{x2!r},{y2!r})")
            else:
                rows.append(f"('star-{sid}',{x1!r},{y1!r},{x2!r},{y2!r})")
    return ",\n    ".join(rows)
