"""Point-vs-polygon predicates (VerifyTopologicalRelationships.java) + PolygonSet."""

import numpy as np

from georay.crs.projections import transformer
from georay.geom.hull import convex_hull
from georay.geom.polygon import Polygon, PolygonSet

# gml/Polygon.xml exterior (EPSG:4258, lat lon in source -> lon lat here)
_RING_LATLON = """52.266657 6.932919 52.266749 6.931853 52.267056 6.928073 52.267144 6.926986
52.267412 6.927115 52.267771 6.927283 52.268067 6.927014 52.268291 6.926723 52.268542 6.926403
52.270135 6.927449 52.270171 6.927303 52.270260 6.927343 52.270862 6.927612 52.271038 6.927691
52.271116 6.927470 52.271214 6.927192 52.271319 6.927262 52.271635 6.927474 52.271585 6.928170
52.271524 6.928807 52.271514 6.928913 52.271482 6.929246 52.271355 6.930484 52.271355 6.930499
52.271487 6.930543 52.272250 6.930778 52.272739 6.930936 52.273093 6.931046 52.273315 6.931114
52.273825 6.931278 52.273881 6.931291 52.273704 6.932439 52.273553 6.933403 52.273411 6.934301
52.271825 6.933974 52.270937 6.933783 52.270107 6.933611 52.269130 6.933415 52.268728 6.933338
52.267354 6.933061 52.267292 6.933048 52.266657 6.932919"""
RING = np.fromstring(_RING_LATLON.replace("\n", " "), sep=" ").reshape(-1, 2)[:, ::-1]

_HOLE_LATLON = """52.269790 6.928702 52.269797 6.928698 52.269804 6.928682 52.269806 6.928665
52.269800 6.928655 52.269786 6.928662 52.269780 6.928676 52.269781 6.928692 52.269790 6.928702"""
HOLE = np.fromstring(_HOLE_LATLON.replace("\n", " "), sep=" ").reshape(-1, 2)[:, ::-1]

POLY = Polygon(RING, holes=[HOLE], epsg=4258, polygon_id="Polygon-1")


class TestPredicates:
    def test_point2_within_polygon(self):
        # polygonContainsPoint / pointWithinPolygon: Point-2 (52.27316, 6.93263)
        assert POLY.relate_points([6.93263], [52.27316], "WITHIN")[0]
        assert POLY.relate_points([6.93263], [52.27316], "CONTAINS")[0]
        assert POLY.relate_points([6.93263], [52.27316], "INTERSECTS")[0]
        assert not POLY.relate_points([6.93263], [52.27316], "DISJOINT")[0]

    def test_utm32n_point_intersects_after_reprojection(self):
        # pointIntersectsPolygon: Point-UTM32N (358626, 5793259 / EPSG:32632)
        lon, lat = transformer(32632, 4258).transform(np.array([358626.0]), np.array([5793259.0]))
        assert POLY.relate_points(lon, lat, "INTERSECTS")[0]

    def test_point_in_hole_not_within(self):
        # center of the tiny interior ring: inside exterior, inside hole
        c = HOLE[:-1].mean(axis=0)
        assert not POLY.relate_points([c[0]], [c[1]], "WITHIN")[0]
        # but inside the exterior ring alone
        no_hole = Polygon(RING)
        assert no_hole.relate_points([c[0]], [c[1]], "WITHIN")[0]

    def test_outside_point_disjoint(self):
        assert POLY.relate_points([6.90], [52.20], "DISJOINT")[0]

    def test_vertex_touches_not_within(self):
        v = RING[0]
        assert POLY.relate_points([v[0]], [v[1]], "TOUCHES")[0]
        assert not POLY.relate_points([v[0]], [v[1]], "WITHIN")[0]
        assert POLY.relate_points([v[0]], [v[1]], "INTERSECTS")[0]

    def test_point_vs_area_never_equals_crosses_overlaps(self):
        for pred in ("EQUALS", "CROSSES", "OVERLAPS"):
            assert not POLY.relate_points([6.93263], [52.27316], pred)[0]

    def test_bbox_fast_path(self):
        assert POLY.relate_points([6.93], [52.27], "BBOX")[0]
        assert not POLY.relate_points([7.5], [52.27], "BBOX")[0]


class TestNearest:
    def test_interior_point_zero_distance_pattern(self):
        interior, boundary = POLY.locate([6.93263], [52.27316])
        assert interior[0] and not boundary[0]

    def test_nearest_on_boundary_outside_point(self):
        nx, ny, nd = POLY.nearest_on_boundary([6.90], [52.27])
        assert nd[0] > 0
        # nearest point must lie on the polygon boundary (bbox sanity)
        assert POLY.bbox[0] <= nx[0] <= POLY.bbox[2]
        assert POLY.bbox[1] <= ny[0] <= POLY.bbox[3]


class TestConvexHull:
    def test_hull_contains_centroid(self):
        # computeConvexHullForCurveWithArcSegment analog: hull of ring
        # contains interior point
        hull = convex_hull(RING)
        hp = Polygon(hull)
        assert hp.relate_points([6.93], [52.27], "INTERSECTS")[0]
        assert len(hull) >= 4

    def test_hull_of_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert len(convex_hull(pts)) == 3  # degenerate passthrough


class TestPolygonSet:
    def test_candidates_and_join(self):
        squares = [
            Polygon(np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float), polygon_id="a"),
            Polygon(np.array([[20, 20], [30, 20], [30, 30], [20, 30], [20, 20]], float), polygon_id="b"),
        ]
        pset = PolygonSet(squares)
        px = np.array([5.0, 25.0, 50.0])
        py = np.array([5.0, 25.0, 50.0])
        pt, poly = pset.join(px, py, "INTERSECTS")
        got = sorted(zip(pt.tolist(), poly.tolist()))
        assert got == [(0, 0), (1, 1)]

    def test_disjoint_join_is_complement(self):
        squares = [
            Polygon(np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float), polygon_id="a"),
            Polygon(np.array([[20, 20], [30, 20], [30, 30], [20, 30], [20, 20]], float), polygon_id="b"),
        ]
        pset = PolygonSet(squares)
        px = np.array([5.0, 25.0])
        py = np.array([5.0, 25.0])
        pt, poly = pset.join(px, py, "DISJOINT")
        got = sorted(zip(pt.tolist(), poly.tolist()))
        assert got == [(0, 1), (1, 0)]


class TestBigPolygonIndexCap:
    def test_world_polygon_among_tiny_ones(self):
        # one world-spanning polygon with many tiny ones must not blow up
        # the inverted index; it joins via the always-candidate path
        tiny = [
            Polygon(
                np.array([[i * 0.001, 0.0], [i * 0.001 + 0.0005, 0.0],
                          [i * 0.001 + 0.0005, 0.0005], [i * 0.001, 0.0005], [i * 0.001, 0.0]]),
                polygon_id=f"t{i}",
            )
            for i in range(20)
        ]
        world = Polygon(
            np.array([[-179.0, -85.0], [179.0, -85.0], [179.0, 85.0], [-179.0, 85.0], [-179.0, -85.0]]),
            polygon_id="world",
        )
        pset = PolygonSet(tiny + [world])
        assert len(pset._big_pids) == 1
        pt, poly = pset.join(np.array([0.0001, 50.0]), np.array([0.0001, 50.0]), "INTERSECTS")
        pairs = set(zip(pt.tolist(), poly.tolist()))
        assert (0, 0) in pairs      # tiny polygon t0 via the cell index
        assert (0, 20) in pairs     # world polygon via the big-pid path
        assert (1, 20) in pairs     # far point only matches the world polygon


def _mixed_polygon_set():
    """Rectangles of many sizes, a holed polygon, stars and one polygon too
    big for the cell index (the ``_big_pids`` path)."""
    rng = np.random.default_rng(7)
    polys = []
    for i in range(40):
        x, y = rng.uniform(-170, 160), rng.uniform(-80, 70)
        w, h = rng.uniform(0.01, 1), rng.uniform(0.01, 1)
        ring = np.array([[x, y], [x + w, y], [x + w, y + h], [x, y + h], [x, y]])
        polys.append(Polygon(ring, polygon_id=f"r{i}"))
    polys.append(Polygon(RING, holes=[HOLE], polygon_id="holed"))
    for i in range(3):
        ang = np.linspace(0, 2 * np.pi, 11)[:-1]
        rad = np.where(np.arange(10) % 2 == 0, 3.0, 1.2)
        star = np.c_[10 * i + rad * np.cos(ang), 5 + rad * np.sin(ang)]
        polys.append(Polygon(np.vstack([star, star[:1]]), polygon_id=f"star{i}"))
    polys.append(Polygon(np.array([[-150.0, -60.0], [150.0, -60.0], [150.0, 60.0], [-150.0, 60.0]]), polygon_id="big"))
    return PolygonSet(polys)


def _points(pset, n=3000):
    rng = np.random.default_rng(11)
    px, py = rng.uniform(-180, 180, n), rng.uniform(-89, 89, n)
    # points on vertices and edges exercise the boundary test
    verts = np.concatenate([p.exterior for p in pset.polygons[40:44]])
    mids = (verts[:-1] + verts[1:]) / 2
    return np.r_[px, verts[:, 0], mids[:, 0]], np.r_[py, verts[:, 1], mids[:, 1]]


class TestCandidates:
    def test_equal_brute_force_bbox_scan(self):
        pset = _mixed_polygon_set()
        assert len(pset._big_pids) == 1
        px, py = _points(pset)
        pt, poly = pset.candidates(px, py)
        b = pset.bboxes
        inside = (px[:, None] >= b[:, 0]) & (px[:, None] <= b[:, 2]) & (py[:, None] >= b[:, 1]) & (py[:, None] <= b[:, 3])
        want_pt, want_poly = np.nonzero(inside)
        assert sorted(zip(pt.tolist(), poly.tolist())) == sorted(zip(want_pt.tolist(), want_poly.tolist()))
        # some points have no candidate at all
        assert not inside.any(axis=1).all()

    def test_points_without_candidates(self):
        pset = PolygonSet([Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float), polygon_id="a")])
        pt, poly = pset.candidates(np.array([50.0, -50.0]), np.array([50.0, -50.0]))
        assert len(pt) == 0 and len(poly) == 0

    def test_empty_batch(self):
        pt, poly = _mixed_polygon_set().candidates(np.empty(0), np.empty(0))
        assert len(pt) == 0 and len(poly) == 0
        pt, poly = _mixed_polygon_set().join(np.empty(0), np.empty(0))
        assert len(pt) == 0 and len(poly) == 0


class TestJoinMatchesPerPolygonPredicates:
    """``PolygonSet.join`` locates all (point, polygon) pairs in one pass;
    it must return exactly what ``Polygon.relate_points`` gives polygon by
    polygon, in polygon-then-point order."""

    @staticmethod
    def _per_polygon(pset, px, py, pred):
        pt_idx, poly_idx = pset.candidates(px, py)
        out_pt, out_poly = [], []
        for pid in np.unique(poly_idx):
            pts = pt_idx[poly_idx == pid]
            ok = pset.polygons[pid].relate_points(px[pts], py[pts], pred)
            out_pt += pts[ok].tolist()
            out_poly += [int(pid)] * int(ok.sum())
        return out_pt, out_poly

    def test_every_predicate(self):
        pset = _mixed_polygon_set()
        px, py = _points(pset)
        for pred in ("INTERSECTS", "WITHIN", "CONTAINS", "TOUCHES", "BBOX", "EQUALS"):
            pt, poly = pset.join(px, py, pred)
            assert (pt.tolist(), poly.tolist()) == self._per_polygon(pset, px, py, pred), pred
        pt, _ = pset.join(px, py, "TOUCHES")
        assert len(pt) > 0  # the vertex/edge points hit the boundary

    def test_chunked_pairs(self, monkeypatch):
        import georay.geom.polygon as polygon_mod

        pset = _mixed_polygon_set()
        px, py = _points(pset)
        want = pset.join(px, py, "INTERSECTS")
        monkeypatch.setattr(polygon_mod, "_CHUNK_ELEMS", 7)  # many chunks, some one pair wide
        got = pset.join(px, py, "INTERSECTS")
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


class TestJoinBatchSchema:
    def test_zero_matches_keep_the_schema(self):
        import pyarrow as pa

        from georay.pipelines.polygons import build_polygon_set, polygon_payload
        from georay.stages.join import _join_batch, polygon_id_array

        pset = build_polygon_set(polygon_payload())
        ids = polygon_id_array(pset)
        pts = pset.polygons[0].exterior.mean(axis=0)

        def batch(lon, lat):
            return pa.table({"doc_id": [1], "url": ["u"], "lon": [lon], "lat": [lat]})

        hit = _join_batch(pset, ids, "INTERSECTS", ["doc_id", "url"], batch(pts[0], pts[1]))
        miss = _join_batch(pset, ids, "INTERSECTS", ["doc_id", "url"], batch(0.0, 89.9))
        assert hit.num_rows > 0 and miss.num_rows == 0
        assert miss.schema == hit.schema
        assert hit.column("predicate").to_pylist() == ["INTERSECTS"] * hit.num_rows
