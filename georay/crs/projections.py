"""Map projections + the Transformer cache (R-01 reprojection semantics).

Replaces the reference's delegation to Apache SIS ``CRS.findOperation`` /
``MathTransform`` (TopologicalRelationships.java:261-271 ``setCRS``;
GeodesyUtils.java:144-209 right-handed transforms).  No pyproj here, so the
projections are implemented directly:

- **Transverse Mercator** (UTM zones, EPSG:326xx / 327xx) via the 6th-order
  Krüger flattening series (Karney, *J. Geodesy* 2011; public formulae).
  Round-trip accuracy is sub-millimeter inside a zone — far inside the
  ~1e-4 deg (~10 m) tolerance the reference fixtures assert
  (VerifyGeodesyUtils.java:85-86; Point-Atkinson-32610.xml vs -4326.xml).
- **Web Mercator** (EPSG:3857, spherical).
- **Geographic** CRSs (EPSG:4326, 4258, 4269, CRS84): identity on lon/lat.
  ETRS89/NAD83 are treated as coincident with WGS84 (datum shifts << the
  fixture tolerances, same convention the conformance suites rely on).

Axis order: Transformer follows pyproj's ``always_xy=True`` convention —
inputs/outputs are always (x=lon/easting, y=lat/northing) regardless of the
authority's axis order.  GML's lat-first EPSG:4326 axis order is handled at
the extraction edge (georay.crs.identifiers.axis_order_latlon, R-05).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from georay.crs.geodesy import WGS84_A, WGS84_F

# ---------------------------------------------------------------------------
# 6th-order Krüger series coefficients for WGS84 (n = f / (2 - f))
# ---------------------------------------------------------------------------
_N = WGS84_F / (2.0 - WGS84_F)
_n = _N
# rectifying radius
_A_RECT = WGS84_A / (1.0 + _n) * (1.0 + _n**2 / 4.0 + _n**4 / 64.0 + _n**6 / 256.0)

_ALPHA = np.array(
    [
        _n / 2 - 2 * _n**2 / 3 + 5 * _n**3 / 16 + 41 * _n**4 / 180 - 127 * _n**5 / 288 + 7891 * _n**6 / 37800,
        13 * _n**2 / 48 - 3 * _n**3 / 5 + 557 * _n**4 / 1440 + 281 * _n**5 / 630 - 1983433 * _n**6 / 1935360,
        61 * _n**3 / 240 - 103 * _n**4 / 140 + 15061 * _n**5 / 26880 + 167603 * _n**6 / 181440,
        49561 * _n**4 / 161280 - 179 * _n**5 / 168 + 6601661 * _n**6 / 7257600,
        34729 * _n**5 / 80640 - 3418889 * _n**6 / 1995840,
        212378941 * _n**6 / 319334400,
    ]
)
_BETA = np.array(
    [
        _n / 2 - 2 * _n**2 / 3 + 37 * _n**3 / 96 - _n**4 / 360 - 81 * _n**5 / 512 + 96199 * _n**6 / 604800,
        _n**2 / 48 + _n**3 / 15 - 437 * _n**4 / 1440 + 46 * _n**5 / 105 - 1118711 * _n**6 / 3870720,
        17 * _n**3 / 480 - 37 * _n**4 / 840 - 209 * _n**5 / 4480 + 5569 * _n**6 / 90720,
        4397 * _n**4 / 161280 - 11 * _n**5 / 504 - 830251 * _n**6 / 7257600,
        4583 * _n**5 / 161280 - 108847 * _n**6 / 3991680,
        20648693 * _n**6 / 638668800,
    ]
)
_DELTA = np.array(
    [
        2 * _n - 2 * _n**2 / 3 - 2 * _n**3 + 116 * _n**4 / 45 + 26 * _n**5 / 45 - 2854 * _n**6 / 675,
        7 * _n**2 / 3 - 8 * _n**3 / 5 - 227 * _n**4 / 45 + 2704 * _n**5 / 315 + 2323 * _n**6 / 945,
        56 * _n**3 / 15 - 136 * _n**4 / 35 - 1262 * _n**5 / 105 + 73814 * _n**6 / 2835,
        4279 * _n**4 / 630 - 332 * _n**5 / 35 - 399572 * _n**6 / 14175,
        4174 * _n**5 / 315 - 144838 * _n**6 / 6237,
        601676 * _n**6 / 22275,
    ]
)

_E2SQRT = 2.0 * math.sqrt(_n) / (1.0 + _n)  # 2*sqrt(n)/(1+n)


def _tm_forward(lon, lat, lon0_deg: float, k0: float, fe: float, fn: float):
    """Geographic (deg) -> transverse-mercator easting/northing (m)."""
    lam = np.radians(np.asarray(lon, dtype=np.float64) - lon0_deg)
    phi = np.radians(np.asarray(lat, dtype=np.float64))
    sin_phi = np.sin(phi)
    t = np.sinh(np.arctanh(sin_phi) - _E2SQRT * np.arctanh(_E2SQRT * sin_phi))
    xi_p = np.arctan2(t, np.cos(lam))
    eta_p = np.arctanh(np.sin(lam) / np.sqrt(1.0 + t * t))
    xi = xi_p.copy()
    eta = eta_p.copy()
    for j in range(6):
        k = 2.0 * (j + 1)
        xi += _ALPHA[j] * np.sin(k * xi_p) * np.cosh(k * eta_p)
        eta += _ALPHA[j] * np.cos(k * xi_p) * np.sinh(k * eta_p)
    return fe + k0 * _A_RECT * eta, fn + k0 * _A_RECT * xi


def _tm_inverse(x, y, lon0_deg: float, k0: float, fe: float, fn: float):
    """Transverse-mercator easting/northing (m) -> geographic lon/lat (deg)."""
    xi = (np.asarray(y, dtype=np.float64) - fn) / (k0 * _A_RECT)
    eta = (np.asarray(x, dtype=np.float64) - fe) / (k0 * _A_RECT)
    xi_p = xi.copy()
    eta_p = eta.copy()
    for j in range(6):
        k = 2.0 * (j + 1)
        xi_p -= _BETA[j] * np.sin(k * xi) * np.cosh(k * eta)
        eta_p -= _BETA[j] * np.cos(k * xi) * np.sinh(k * eta)
    chi = np.arcsin(np.clip(np.sin(xi_p) / np.cosh(eta_p), -1.0, 1.0))
    phi = chi.copy()
    for j in range(6):
        phi += _DELTA[j] * np.sin(2.0 * (j + 1) * chi)
    lam = np.arctan2(np.sinh(eta_p), np.cos(xi_p))
    return np.degrees(lam) + lon0_deg, np.degrees(phi)


def _webmerc_forward(lon, lat):
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.clip(np.asarray(lat, dtype=np.float64), -85.051128779806604, 85.051128779806604)
    x = WGS84_A * np.radians(lon)
    y = WGS84_A * np.log(np.tan(np.pi / 4.0 + np.radians(lat) / 2.0))
    return x, y


def _webmerc_inverse(x, y):
    lon = np.degrees(np.asarray(x, dtype=np.float64) / WGS84_A)
    lat = np.degrees(2.0 * np.arctan(np.exp(np.asarray(y, dtype=np.float64) / WGS84_A)) - np.pi / 2.0)
    return lon, lat


# ---------------------------------------------------------------------------
# CRS registry
# ---------------------------------------------------------------------------

#: geographic CRSs treated as lon/lat identity (datum ~ WGS84 at our tolerances)
GEOGRAPHIC_EPSG = {4326, 4258, 4269, 4019, 4979}
WEB_MERCATOR_EPSG = 3857
#: sentinel EPSG code for OGC CRS84 (WGS84 lon/lat axis order)
CRS84_EPSG = 4326


def crs_kind(epsg: int):
    """Classify an EPSG code -> ('geographic',) | ('utm', lon0, north) | ('webmerc',)."""
    epsg = int(epsg)
    if epsg in GEOGRAPHIC_EPSG:
        return ("geographic",)
    if epsg == WEB_MERCATOR_EPSG:
        return ("webmerc",)
    if 32601 <= epsg <= 32660:  # WGS84 / UTM north
        zone = epsg - 32600
        return ("utm", -183.0 + 6.0 * zone, True)
    if 32701 <= epsg <= 32760:  # WGS84 / UTM south
        zone = epsg - 32700
        return ("utm", -183.0 + 6.0 * zone, False)
    if 25828 <= epsg <= 25838:  # ETRS89 / UTM north (datum ~WGS84 here)
        zone = epsg - 25800
        return ("utm", -183.0 + 6.0 * zone, True)
    if 26901 <= epsg <= 26923:  # NAD83 / UTM north
        zone = epsg - 26900
        return ("utm", -183.0 + 6.0 * zone, True)
    raise ValueError(f"Unsupported EPSG code: {epsg}")


def _to_geographic(epsg: int, x, y):
    kind = crs_kind(epsg)
    if kind[0] == "geographic":
        return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if kind[0] == "webmerc":
        return _webmerc_inverse(x, y)
    _, lon0, north = kind
    return _tm_inverse(x, y, lon0, 0.9996, 500000.0, 0.0 if north else 10000000.0)


def _from_geographic(epsg: int, lon, lat):
    kind = crs_kind(epsg)
    if kind[0] == "geographic":
        return np.asarray(lon, dtype=np.float64), np.asarray(lat, dtype=np.float64)
    if kind[0] == "webmerc":
        return _webmerc_forward(lon, lat)
    _, lon0, north = kind
    return _tm_forward(lon, lat, lon0, 0.9996, 500000.0, 0.0 if north else 10000000.0)


class Transformer:
    """Coordinate-operation analog of SIS ``CRS.findOperation`` + ``MathTransform``
    (TopologicalRelationships.java:261-271), pyproj ``always_xy`` convention.

    One instance per (src, dst) EPSG pair; cheap, stateless, and cached via
    :func:`transformer` — stage classes warm it once in ``__init__`` per
    SURVEY.md §3 EP-1 state note.
    """

    def __init__(self, src_epsg: int, dst_epsg: int):
        self.src = int(src_epsg)
        self.dst = int(dst_epsg)
        crs_kind(self.src)  # validate eagerly
        crs_kind(self.dst)

    def transform(self, x, y):
        if self.src == self.dst:
            return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        lon, lat = _to_geographic(self.src, x, y)
        return _from_geographic(self.dst, lon, lat)


@functools.lru_cache(maxsize=256)
def transformer(src_epsg: int, dst_epsg: int) -> Transformer:
    """Per-process transformer cache (the engine's EPSG-database analog)."""
    return Transformer(src_epsg, dst_epsg)
