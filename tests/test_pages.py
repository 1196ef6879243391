"""Golden tests for the page synthesis kernel.

``synthesize_pages_batch`` builds every page with Arrow string kernels;
these tests hold it byte-equal to the per-row Python formulation it
replaced, frozen below as ``_per_row_pages``.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from __ray_entry__ import SF001
from georay.pipelines.pages import _fmt_hundredths, synthesize_pages_batch

_TEMPLATES = {
    0: (
        '<html><head><meta name="geo.position" content="{lat};{lon}">'
        '<meta name="geo.srsName" content="urn:ogc:def:crs:EPSG::4326">'
        "</head><body>{text}</body></html>"
    ),
    1: (
        '<html><head><meta name="ICBM" content="{lat}, {lon}">'
        '<meta name="geo.srsName" content="http://www.opengis.net/def/crs/EPSG/0/4326">'
        "</head><body>{text}</body></html>"
    ),
    2: "<html><head></head><body>{text}\ngeo: {lat}, {lon}</body></html>",
}
_NOGEO = "<html><head></head><body>{text}</body></html>"


def _per_row_pages(batch: pa.Table) -> pa.Table:
    """The synthesis as one Python format call per row (frozen reference)."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text").to_pylist()
    lang = batch.column("lang").to_pylist()
    lon_raw = (doc_id * 7919) % 36000 / 100.0 - 180.0
    lat_raw = (doc_id * 104729) % 17000 / 100.0 - 85.0
    lon2_raw = (doc_id * 27644437) % 36000 / 100.0 - 180.0
    lat2_raw = (doc_id * 31337) % 17000 / 100.0 - 85.0
    has_second = (doc_id % 7) == 0
    mode = doc_id % 3
    has_geo = (doc_id % 10) != 7
    htmls = []
    for i in range(len(doc_id)):
        if not has_geo[i]:
            htmls.append(_NOGEO.format(text=text[i]))
            continue
        h = _TEMPLATES[int(mode[i])].format(lat=f"{lat_raw[i]:.2f}", lon=f"{lon_raw[i]:.2f}", text=text[i])
        if has_second[i]:
            h = h.replace("</body>", f"\ngeo: {lat2_raw[i]:.2f}, {lon2_raw[i]:.2f}</body>")
        htmls.append(h)
    urls = [f"https://{lg}.example.org/doc/{d}" for lg, d in zip(lang, doc_id)]
    ts = 1_704_067_200_000_000 + (doc_id * 1337 % 31_536_000) * 1_000_000
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array([h.encode() for h in htmls], pa.binary()),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
            "doc_id": batch.column("doc_id"),
        }
    )


def _assert_byte_equal(batch: pa.Table):
    got = synthesize_pages_batch(batch)
    want = _per_row_pages(batch)
    assert got.schema == want.schema
    for name in want.column_names:
        assert got.column(name).to_pylist() == want.column(name).to_pylist(), name


class TestCoordinateFormat:
    def test_every_longitude(self):
        m = np.arange(36000)
        assert _fmt_hundredths(m - 18000).to_pylist() == [f"{v / 100.0 - 180.0:.2f}" for v in m]

    def test_every_latitude(self):
        m = np.arange(17000)
        assert _fmt_hundredths(m - 8500).to_pylist() == [f"{v / 100.0 - 85.0:.2f}" for v in m]


class TestSynthesisIsByteEqual:
    def test_sf0001_documents(self):
        try:
            docs = pq.read_table(f"{SF001}/documents.parquet", columns=["doc_id", "text", "lang"])
        except FileNotFoundError:
            pytest.skip("sf0.001 test data absent")
        _assert_byte_equal(docs)

    def test_every_mode_geo_and_second_combination(self):
        # doc_id mod 210 = lcm(3, 10, 7) walks every (mode, has_geo, has_second)
        ids = np.arange(210, dtype=np.int64)
        combos = {(int(i % 3), bool(i % 10 != 7), bool(i % 7 == 0)) for i in ids}
        assert len(combos) == 12
        _assert_byte_equal(pa.table({"doc_id": ids, "text": [f"t{i}" for i in ids], "lang": ["en"] * 210}))

    def test_adversarial_batch(self):
        ids = np.arange(-105, 105, dtype=np.int64)  # negative ids too
        texts = [
            ["a</body>b</body>", "", "plain", "</body>", "x</body", "é中</body>"][i % 6] for i in range(len(ids))
        ]
        texts[3] = None  # str.format prints a null text as "None"
        batch = pa.table(
            {
                "doc_id": ids,
                "text": pa.array(texts, pa.large_string()),
                "lang": pa.array(["en", "de", None] * 70, pa.string()),
            }
        )
        # the "</body>" rows include rows carrying a second coordinate
        assert any(t and "</body>" in t and i % 7 == 0 and i % 10 != 7 for i, t in zip(ids, texts))
        _assert_byte_equal(batch)
        # chunked input: one table, several record batches
        _assert_byte_equal(pa.concat_tables([batch.slice(0, 50), batch.slice(50, 1), batch.slice(51)]))

    def test_empty_batch(self):
        _assert_byte_equal(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                }
            )
        )

    def test_schema(self):
        out = synthesize_pages_batch(pa.table({"doc_id": [1, 2], "text": ["a", "b"], "lang": ["en", "fr"]}))
        assert out.schema.field("url").type == pa.string()
        assert out.schema.field("warc_ts").type == pa.timestamp("us")
        assert out.schema.field("html").type == pa.binary()
