"""Deterministic Common-Crawl-style page synthesis (BASELINE.json input_hint).

The driver test tables carry no web pages, so the engine synthesizes its
input table ``(url, warc_ts, html, text, lang)`` deterministically from
``documents.parquet`` — pure integer arithmetic on ``doc_id`` that the
DuckDB oracles reproduce verbatim (no external data, no RNG):

    lon = CAST(printf('%.2f', ((doc_id*7919)  % 36000)/100.0 - 180.0) AS DOUBLE)
    lat = CAST(printf('%.2f', ((doc_id*104729)% 17000)/100.0 -  85.0) AS DOUBLE)
    has_geo   : doc_id % 10 <> 7
    embed mode: doc_id % 3  -> 0: <meta geo.position>  1: <meta ICBM>
                              2: plain-text "geo: LAT, LON" in the body
    warc_ts   = TIMESTAMP '2024-01-01' + (doc_id*1337 % 31536000) seconds
    url       = 'https://' || lang || '.example.org/doc/' || doc_id

The printf round-trip makes the float the ENGINE parses out of the page
bit-identical to the float the ORACLE computes arithmetically, so value
hashes match exactly.  The page ``text`` is the documents row's text,
byte-identical (the per-url invariant).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BASE_TS_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in epoch microseconds
YEAR_SECONDS = 31_536_000

# Page layout, by embed mode (``doc_id % 3`` on geo pages):
#   0: <meta geo.position "LAT;LON"> + URN srsName in the head
#   1: <meta ICBM "LAT, LON"> + http-URI srsName in the head (exercises
#      the R-07/R-08 identifier kernels; resolves to the same EPSG:4326)
#   2: plain-text "\ngeo: LAT, LON" at the end of the body
# Non-geo pages carry the text only.  Every 7th geo page also gets a
# second "\ngeo: LAT2, LON2" before every "</body>" (multi-geometry pages:
# the explode/flat_map path, G-07 analog), so the single-coordinate
# precedence chain is unaffected.
_POS_HEAD = '<html><head><meta name="geo.position" content="'
_POS_TAIL = (
    '"><meta name="geo.srsName" content="urn:ogc:def:crs:EPSG::4326">'
    "</head><body>"
)
_ICBM_HEAD = '<html><head><meta name="ICBM" content="'
_ICBM_TAIL = (
    '"><meta name="geo.srsName" content="http://www.opengis.net/def/crs/EPSG/0/4326">'
    "</head><body>"
)
_PLAIN_HEAD = "<html><head></head><body>"
_END = "</body></html>"

_SIGN = pa.array(["", "-"])
_TWO_DIGITS = pa.array([f"{i:02d}" for i in range(100)])


def _fmt_hundredths(h: np.ndarray) -> pa.Array:
    """Signed integer hundredths -> their ``%.2f`` decimal strings, the
    same text ``f"{h / 100:.2f}"`` gives for the printf-rounded floats
    (``-0.05``, ``0.00``, ``179.99``)."""
    a = np.abs(h)
    return pc.binary_join_element_wise(
        _SIGN.take(pa.array((h < 0).view(np.int8))),
        pc.cast(pa.array(a // 100), pa.string()),
        ".",
        _TWO_DIGITS.take(pa.array(a % 100)),
        "",
    )


#: every coordinate string the synthesis can print, indexed by the
#: modulus it is computed from: ``_LON_TEXT[m]`` prints ``m/100 - 180``
_LON_TEXT = _fmt_hundredths(np.arange(36000) - 18000)
_LAT_TEXT = _fmt_hundredths(np.arange(17000) - 8500)


def _concat(*parts) -> pa.Array:
    # str.format renders a null text / lang as "None": keep those bytes
    return pc.binary_join_element_wise(*parts, "", null_handling="replace", null_replacement="None")


def synthesize_pages_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: documents batch -> PAGES-schema batch."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").cast(pa.string()).combine_chunks()

    lat = _LAT_TEXT.take(pa.array((doc_id * 104729) % 17000))
    lon = _LON_TEXT.take(pa.array((doc_id * 7919) % 36000))
    mode = doc_id % 3
    has_geo = (doc_id % 10) != 7
    second = has_geo & ((doc_id % 7) == 0)

    is_pos = pa.array(has_geo & (mode == 0))
    is_icbm = pa.array(has_geo & (mode == 1))
    is_text = pa.array(has_geo & (mode == 2))
    head = pc.case_when(
        pc.make_struct(is_pos, is_icbm),
        _concat(_POS_HEAD, lat, ";", lon, _POS_TAIL),
        _concat(_ICBM_HEAD, lat, ", ", lon, _ICBM_TAIL),
        _PLAIN_HEAD,
    )
    tail = pc.if_else(is_text, _concat("\ngeo: ", lat, ", ", lon), "")
    second_tail = pc.if_else(
        pa.array(second),
        _concat(
            "\ngeo: ",
            _LAT_TEXT.take(pa.array((doc_id * 31337) % 17000)),
            ", ",
            _LON_TEXT.take(pa.array((doc_id * 27644437) % 36000)),
        ),
        "",
    )
    html = _concat(head, text, tail, second_tail, _END)

    # the second coordinate goes before EVERY "</body>", also those inside
    # the text: those rare rows are rebuilt in Python
    sec = np.nonzero(second)[0]
    fix = sec[pc.fill_null(pc.match_substring(text.take(sec), "</body>"), False).to_numpy(zero_copy_only=False)]
    if len(fix):
        rows = pa.array(fix)
        fixed = [
            h + t.replace("</body>", t2 + "</body>") + t1 + t2 + _END
            for h, t, t1, t2 in zip(
                *(a.take(rows).to_pylist() for a in (head, text, tail, second_tail))
            )
        ]
        mask = np.zeros(len(doc_id), dtype=bool)
        mask[fix] = True
        html = pc.replace_with_mask(html, pa.array(mask), pa.array(fixed, pa.string()))

    url = _concat(
        "https://",
        batch.column("lang").cast(pa.string()),
        ".example.org/doc/",
        pc.cast(batch.column("doc_id"), pa.string()),
    )
    ts = BASE_TS_US + (doc_id * 1337 % YEAR_SECONDS) * 1_000_000

    return pa.table(
        {
            "url": url,
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": html.cast(pa.binary()),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
            "doc_id": batch.column("doc_id"),
        }
    )


def read_pages(sf_dir: str, sink: bool = False):
    """Dataset of synthetic pages for a testdata scale-factor directory,
    read by the one read rule (:func:`georay.sources.read_parquet_grouped`:
    whole files per task, at least one block per CPU slot, about
    ``TASK_ROWS`` documents per task past that).  ``sink=True`` for the
    flagship's ``out_dir`` run: its sink fuses into the read, so each read
    task writes one file set, and the read is not split to fill the
    slots."""
    from georay.sources import read_parquet_grouped

    # prune at the read: synthesis needs only these three columns —
    # `source`/`n_chars` would be decoded and dropped
    ds = read_parquet_grouped(f"{sf_dir}/documents.parquet", ["doc_id", "text", "lang"], sink)
    return ds.map_batches(synthesize_pages_batch, batch_format="pyarrow")


#: SQL fragment the DuckDB oracles prepend to mirror this synthesis.
PAGES_SQL_CTE = """
pages AS (
  SELECT doc_id,
         'https://' || lang || '.example.org/doc/' || doc_id AS url,
         TIMESTAMP '2024-01-01 00:00:00'
           + to_seconds((doc_id*1337) % 31536000) AS warc_ts,
         text,
         lang,
         CAST(printf('%.2f', ((doc_id*7919)  % 36000)/100.0 - 180.0) AS DOUBLE) AS lon,
         CAST(printf('%.2f', ((doc_id*104729)% 17000)/100.0 -  85.0) AS DOUBLE) AS lat,
         CAST(printf('%.2f', ((doc_id*27644437) % 36000)/100.0 - 180.0) AS DOUBLE) AS lon2,
         CAST(printf('%.2f', ((doc_id*31337)    % 17000)/100.0 -  85.0) AS DOUBLE) AS lat2,
         (doc_id % 10) <> 7 AS has_geo,
         (doc_id % 7) = 0 AS has_second
  FROM documents
)
""".strip()
