"""Property-based invariants (hypothesis) over the core kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georay import cells
from georay.crs.geodesy import geodesic_destination, geodesic_inverse, haversine_m, orthodromic_distance
from georay.crs.projections import transformer
from georay.geom.envelope import envelope_merge, envelope_partial
from georay.geom.hull import convex_hull
from georay.geom.polygon import Polygon
from georay.geom.rings import remove_consecutive_duplicates
from georay.temporal import relative_position

lat_st = st.floats(-84.9, 84.9, allow_nan=False)
lon_st = st.floats(-179.9, 179.9, allow_nan=False)
res_st = st.integers(0, 14)

SET = settings(max_examples=60, deadline=None)


class TestCells:
    @SET
    @given(lat_st, lon_st, res_st)
    def test_point_in_own_cell_bbox(self, lat, lon, res):
        # eps: a value within 1 ulp of a cell edge legitimately rounds onto
        # the edge ((lon+180) absorbs tiny lons); engine and SQL mirror
        # agree bit-for-bit either way, so this is a property tolerance,
        # not an engine/oracle divergence.
        eps = 1e-9
        c = cells.latlng_to_cell(np.array([lat]), np.array([lon]), res)
        minlon, minlat, maxlon, maxlat = cells.cell_to_bbox(c)
        assert minlon[0] - eps <= lon < maxlon[0] + eps or res == 0
        assert minlat[0] - eps <= lat < maxlat[0] + eps or res == 0

    @SET
    @given(lat_st, lon_st, st.integers(1, 14), st.integers(0, 13))
    def test_parent_equals_direct_encoding(self, lat, lon, res, parent_res):
        if parent_res > res:
            res, parent_res = parent_res, res
        c = cells.latlng_to_cell(np.array([lat]), np.array([lon]), res)
        p = cells.cell_parent(c, parent_res)
        direct = cells.latlng_to_cell(np.array([lat]), np.array([lon]), parent_res)
        assert p[0] == direct[0]

    @SET
    @given(lat_st, lon_st, st.integers(2, 10), st.integers(0, 3))
    def test_disk_contains_center_and_is_unique(self, lat, lon, res, k):
        c = int(cells.latlng_to_cell(np.array([lat]), np.array([lon]), res)[0])
        disk = cells.grid_disk(c, k)
        assert c in disk
        assert len(np.unique(disk)) == len(disk)


class TestGeodesy:
    @SET
    @given(lat_st, lon_st, st.floats(0, 359.99), st.floats(1.0, 2_000_000.0))
    def test_destination_inverse_roundtrip(self, lat, lon, az, dist):
        lat2, lon2 = geodesic_destination(lat, lon, az, dist)
        d, _, _ = geodesic_inverse(lat, lon, float(lat2), float(lon2))
        assert abs(d - dist) < max(0.05, dist * 1e-6)

    @SET
    @given(lat_st, lon_st, lat_st, lon_st)
    def test_distance_symmetry_and_nonnegativity(self, lat1, lon1, lat2, lon2):
        d1 = orthodromic_distance(lat1, lon1, lat2, lon2)
        d2 = orthodromic_distance(lat2, lon2, lat1, lon1)
        assert d1 >= 0
        assert abs(d1 - d2) < 1e-6 * max(1.0, d1)

    @SET
    @given(lat_st, lon_st, lat_st, lon_st)
    def test_haversine_close_to_ellipsoidal(self, lat1, lon1, lat2, lon2):
        dv = float(orthodromic_distance(lat1, lon1, lat2, lon2))
        dh = float(haversine_m(lat1, lon1, lat2, lon2))
        assert abs(dv - dh) <= 0.01 * max(1000.0, dv)  # sphere vs ellipsoid < 1%


class TestProjections:
    @SET
    @given(st.floats(0.5, 83.5), st.floats(-2.9, 2.9), st.integers(1, 60))
    def test_utm_roundtrip_in_zone(self, lat, dlon, zone):
        epsg = 32600 + zone
        lon0 = -183.0 + 6.0 * zone
        lon = lon0 + dlon
        x, y = transformer(4326, epsg).transform(lon, lat)
        lon2, lat2 = transformer(epsg, 4326).transform(float(x), float(y))
        assert abs(lon2 - lon) < 1e-8
        assert abs(lat2 - lat) < 1e-8


class TestRings:
    @SET
    @given(
        st.lists(
            st.tuples(st.floats(1.0, 100.0), st.floats(1.0, 100.0)), min_size=2, max_size=30
        ),
        st.floats(0.1, 10.0),
    )
    def test_dedup_shrinks_and_stabilizes(self, pts, ppm):
        coords = np.asarray(pts, dtype=np.float64)
        once = remove_consecutive_duplicates(coords, ppm)
        assert len(once) <= len(coords)
        twice = remove_consecutive_duplicates(once, ppm)
        assert len(twice) <= len(once)
        # no interior adjacent duplicates remain after convergence
        tol = ppm * 1e-6
        if len(twice) > 2:
            rel = np.abs(twice[1:-1] / twice[:-2] - 1.0)
            assert not np.all(rel <= tol, axis=1).any()


class TestHull:
    @SET
    @given(
        st.lists(
            st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)), min_size=4, max_size=40
        )
    )
    def test_hull_contains_all_points(self, pts):
        coords = np.asarray(pts, dtype=np.float64)
        hull = convex_hull(coords)
        if len(hull) < 4:  # degenerate (collinear)
            return
        poly = Polygon(hull)
        inside = poly.relate_points(coords[:, 0], coords[:, 1], "INTERSECTS")
        # tolerance: points exactly on the hull boundary count as intersecting
        assert inside.all()


class TestTemporal:
    @SET
    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_exactly_one_relation(self, a, b, c, d):
        b1, e1 = sorted((a, b))
        b2, e2 = sorted((c, d))
        rel = relative_position(b1, e1, b2, e2)
        assert 0 <= int(rel) <= 12  # always classified

    @SET
    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_converse_pairs(self, a, b, c, d):
        from georay import temporal as T

        b1, e1 = sorted((a, b))
        b2, e2 = sorted((c, d))
        r = int(relative_position(b1, e1, b2, e2))
        rc = int(relative_position(b2, e2, b1, e1))
        converse = {
            T.BEFORE: T.AFTER, T.AFTER: T.BEFORE, T.MEETS: T.MET_BY, T.MET_BY: T.MEETS,
            T.DURING: T.CONTAINS, T.CONTAINS: T.DURING, T.BEGINS: T.BEGUN_BY,
            T.BEGUN_BY: T.BEGINS, T.ENDS: T.ENDED_BY, T.ENDED_BY: T.ENDS,
            T.OVERLAPS: T.OVERLAPPED_BY, T.OVERLAPPED_BY: T.OVERLAPS, T.EQUALS: T.EQUALS,
        }
        assert rc == converse[r]


class TestEnvelopeAlgebra:
    @SET
    @given(
        st.lists(st.tuples(lon_st, lat_st), min_size=1, max_size=10),
        st.lists(st.tuples(lon_st, lat_st), min_size=1, max_size=10),
    )
    def test_merge_commutative_and_covers(self, pts_a, pts_b):
        a = np.asarray(pts_a)
        b = np.asarray(pts_b)
        pa_ = envelope_partial(a[:, 0], a[:, 1])
        pb = envelope_partial(b[:, 0], b[:, 1])
        m1 = envelope_merge(pa_, pb)
        m2 = envelope_merge(pb, pa_)
        assert m1 == m2
        allpts = np.vstack([a, b])
        assert m1[0] <= allpts[:, 0].min() and m1[2] >= allpts[:, 0].max()
        assert m1[1] <= allpts[:, 1].min() and m1[3] >= allpts[:, 1].max()


class TestVectorizedKernelsMatchNaive:
    """The round-2 vectorized shingle/winnow rewrites must agree with a
    straightforward per-document implementation on arbitrary inputs."""

    @given(
        st.lists(
            st.one_of(st.none(), st.text(alphabet=" \tabcdé", min_size=0, max_size=24)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_shingle_hashes_match_naive(self, texts):
        """Both shingle kernels, on a sliced input with null docs, equal
        each document's tokens hashed one by one (pandas' default key for
        :func:`_shingle_hashes`, ``_KEY_A`` and ``_KEY_B`` for
        :func:`_shingle_hashes2`) and rolled."""
        import re

        import pandas as pd
        import pyarrow as pa

        from georay.dedup import _KEY_A, _KEY_B, _shingle_hashes, _shingle_hashes2

        arr = pa.array([None] + texts + ["x"], pa.string()).slice(1, len(texts))
        sh, offsets = _shingle_hashes(arr, k=3)
        h1, h2, offsets2 = _shingle_hashes2(arr, k=3)
        np.testing.assert_array_equal(offsets2, offsets)
        # naive: per doc, tokenized, hashed, rolled
        C1, C2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0x85EBCA77C2B2AE63)
        for got_all, key in ((sh, {}), (h1, {"hash_key": _KEY_A}), (h2, {"hash_key": _KEY_B})):
            for i, t in enumerate(texts):
                toks = [x for x in re.split(r"\s+", t or "") if x]
                if toks:
                    th = pd.util.hash_array(np.asarray(toks, dtype=object), **key).astype(np.uint64)
                else:
                    th = np.empty(0, np.uint64)
                if len(th) >= 3:
                    want = th[:-2] * C1
                    want = want + th[1:-1] * C2
                    want = want + th[2:] * (C1 ^ C2)
                else:
                    want = th
                np.testing.assert_array_equal(got_all[offsets[i] : offsets[i + 1]], want)

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["", "  "]), st.text(alphabet=" \tabc", max_size=30)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_minhash_signatures_match_naive(self, texts):
        """Every signature equals the per-document minimum of
        ``(a * sh + b) mod 2^64 mod P`` over that document's own shingle
        hashes; empty and null docs, anywhere in the batch, get all-max."""
        import pyarrow as pa

        from georay.dedup import MERSENNE_P, _perm_params, _shingle_hashes, minhash_signatures

        sig = minhash_signatures(pa.array(texts, pa.string()))
        a, b = _perm_params(128)
        assert sig.shape == (len(texts), 128) and sig.dtype == np.uint64
        for i, t in enumerate(texts):
            sh, _ = _shingle_hashes(pa.array([t], pa.string()))
            if len(sh) == 0:
                want = np.full(128, np.iinfo(np.uint64).max, np.uint64)
            else:  # uint64 arrays wrap mod 2^64
                want = ((sh[:, None] * a[None, :] + b[None, :]) % MERSENNE_P).min(axis=0)
            np.testing.assert_array_equal(sig[i], want)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=40),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_winnow_matches_naive(self, values, seg_sizes):
        from georay.dedup import winnow_minima

        total = sum(seg_sizes)
        vals = np.asarray((values * 40)[:total], dtype=np.uint64)
        offsets = np.zeros(len(seg_sizes) + 1, np.int64)
        np.cumsum(seg_sizes, out=offsets[1:])
        counts, digests = winnow_minima(vals, offsets, window=4)
        for i, size in enumerate(seg_sizes):
            seg = vals[offsets[i] : offsets[i + 1]]
            if len(seg) == 0:
                assert counts[i] == 0 and digests[i] == 0
                continue
            if len(seg) >= 4:
                mins = [seg[j : j + 4].min() for j in range(len(seg) - 3)]
            else:
                mins = [seg.min()]
            fp = np.unique(np.asarray(mins, dtype=np.uint64))
            assert counts[i] == len(fp)
            assert digests[i] == np.bitwise_xor.reduce(fp)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_union_area_bounds(self, dx_raw, dy_raw):
        from georay.geom.union import _signed_area, union_overlapping_rings

        # two unit squares offset by a sub-unit vector: union area must be
        # area_a + area_b - overlap, where the axis-aligned overlap is exact
        dx = (dx_raw % 1000) / 1001.0 + 1e-4
        dy = (dy_raw % 1000) / 1001.0 + 1e-4
        A = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
        B = A + np.array([dx, dy])
        u = union_overlapping_rings(A, B)
        overlap = (1 - dx) * (1 - dy)
        assert _signed_area(u) == pytest.approx(2.0 - overlap, rel=1e-9)

    @given(
        st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_union_integer_rects_inclusion_exclusion(self, x0, y0, w0, h0, x1, y1, w1, h1):
        """Random INTEGER-coordinate rectangle pairs hit every degenerate
        contact class (shared edges, vertex-on-edge, collinear partial
        overlap, point-touch, containment, identity) — the overlay must
        satisfy exact inclusion-exclusion whenever the union is a single
        polygon, and be argument-order independent."""
        from georay.geom.union import _signed_area, union_overlapping_rings

        def rect(x, y, w, h):
            return np.array(
                [[x, y], [x + w, y], [x + w, y + h], [x, y + h], [x, y]], float
            )

        A = rect(x0, y0, w0, h0)
        B = rect(x1, y1, w1, h1)
        ox = max(0, min(x0 + w0, x1 + w1) - max(x0, x1))
        oy = max(0, min(y0 + h0, y1 + h1) - max(y0, y1))
        want = w0 * h0 + w1 * h1 - ox * oy
        try:
            u1 = union_overlapping_rings(A, B)
        except ValueError as ex:
            # genuinely disjoint rectangles (no bbox contact) must raise;
            # anything touching must not
            assert "disjoint" in str(ex)
            assert (
                max(x0, x1) > min(x0 + w0, x1 + w1)
                or max(y0, y1) > min(y0 + h0, y1 + h1)
            )
            return
        u2 = union_overlapping_rings(B, A)
        assert _signed_area(u1) == pytest.approx(want, rel=1e-12)
        assert _signed_area(u2) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(u1, u2)  # canonicalized

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=8, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_relate_line_line_symmetry_and_consistency(self, v):
        """DE-9IM invariants on random integer polyline pairs:
        INTERSECTS/DISJOINT complement, symmetric predicates symmetric,
        CONTAINS/WITHIN transpose, EQUALS <=> CONTAINS both ways,
        TOUCHES excludes interior contact."""
        from georay.geom.linestring import LineString
        from georay.geom.relate import relate_line_line

        a = [(v[0], v[1]), (v[2], v[3])]
        b = [(v[4], v[5]), (v[6], v[7])]
        if a[0] == a[1] or b[0] == b[1]:
            return  # degenerate zero-length segments out of scope
        r = relate_line_line(LineString(a), LineString(b))
        t = relate_line_line(LineString(b), LineString(a))
        assert r["DISJOINT"] == (not r["INTERSECTS"])
        for sym in ("INTERSECTS", "DISJOINT", "EQUALS", "TOUCHES", "OVERLAPS", "CROSSES"):
            assert r[sym] == t[sym], sym
        assert r["CONTAINS"] == t["WITHIN"]
        assert r["WITHIN"] == t["CONTAINS"]
        assert r["EQUALS"] == (r["CONTAINS"] and r["WITHIN"])
        if r["TOUCHES"]:
            assert not (r["CROSSES"] or r["OVERLAPS"] or r["EQUALS"])


class TestMixtureSample:
    def test_rates_math(self):
        from georay.sample import mixture_rates_bp

        counts = {"en": 200, "de": 20, "fr": 0}
        rates = mixture_rates_bp(counts, {"en": 5000, "de": 5000}, total_rows=100)
        # en: desired 50 of 200 -> 2500 bp; de: desired 50 of 20 -> saturate
        assert rates == {"en": 2500, "de": 10000}

    def test_mixture_steers_shares(self, ray_session):
        import ray as _ray
        import numpy as np
        import pandas as pd
        from georay.sample import mixture_sample

        rng = np.random.default_rng(5)
        langs = np.where(rng.random(4000) < 0.9, "en", "de")  # 90/10 corpus
        df = pd.DataFrame({"doc_id": np.arange(4000, dtype=np.int64),
                           "lang": langs})
        out = mixture_sample(
            _ray.data.from_pandas(df), {"en": 5000, "de": 5000},
            total_rows=400,
        ).to_pandas()
        share_de = (out.lang == "de").mean()
        # rebalanced toward 50/50 from 90/10 (hash noise tolerated)
        assert 0.35 < share_de < 0.65
        assert 250 < len(out) < 550

    def test_unweighted_stratum_dropped(self, ray_session):
        import ray as _ray
        import numpy as np
        import pandas as pd
        from georay.sample import mixture_sample

        df = pd.DataFrame({"doc_id": np.arange(100, dtype=np.int64),
                           "lang": ["en"] * 50 + ["zz"] * 50})
        out = mixture_sample(
            _ray.data.from_pandas(df), {"en": 10000}, total_rows=50
        ).to_pandas()
        assert set(out.lang) <= {"en"}
