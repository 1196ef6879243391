"""End-to-end pipeline over a synthetic mini pages table with MIXED CRS
pages (UTM srsName meta) — the R-01 harmonization path exercised through
the full Ray pipeline, not just the stage kernel."""

import pyarrow as pa
import pytest

from georay.geom.envelope import envelope_from_kvp, envelope_to_string, Envelope
from georay.multimodal import AudioFeatureStage, synth_media_batch


def make_pages():
    """3 pages: 4326 meta, UTM-32610 meta with srsName, no-geo."""
    # Atkinson in UTM 10N: (480775, 5464220) -> (-123.2646, 49.3304)
    rows = [
        (
            1,
            '<html><head><meta name="geo.position" content="49.2756;-123.2015"></head>'
            "<body>a</body></html>",
        ),
        (
            2,
            '<html><head><meta name="geo.position" content="5464220;480775">'
            '<meta name="geo.srsName" content="urn:ogc:def:crs:EPSG::32610"></head>'
            "<body>b</body></html>",
        ),
        (3, "<html><body>no geo</body></html>"),
    ]
    return pa.table(
        {
            "url": pa.array([f"u{i}" for i, _ in rows], pa.string()),
            "warc_ts": pa.array([0, 1, 2], pa.timestamp("us")),
            "html": pa.array([h.encode() for _, h in rows], pa.binary()),
            "text": pa.array(["a", "b", "c"], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
            "doc_id": pa.array([1, 2, 3], pa.int64()),
        }
    )


class TestMixedCrsPipeline:
    def test_utm_meta_page_lands_at_atkinson(self, ray_session):
        import ray.data

        from georay.pipelines.flagship import geo_dataset

        out = geo_dataset(ray.data.from_arrow(make_pages()), 7).to_pandas().set_index("doc_id")
        assert len(out) == 2  # no-geo page filtered
        # UTM page reprojected onto Atkinson within fixture tolerance
        assert out.loc[2, "lon"] == pytest.approx(-123.2646, abs=1e-4)
        assert out.loc[2, "lat"] == pytest.approx(49.3304, abs=1e-4)
        assert out.loc[2, "epsg"] == 4326
        # both Vancouver-area pages share the res-7 cell
        assert out.loc[1, "cell"] == out.loc[2, "cell"]
        # axis order canonicalized: lat-first sources became lon/lat columns
        assert out.loc[1, "lon"] == -123.2015 and out.loc[1, "lat"] == 49.2756


class TestEnvelopeKvpRoundTrip:
    def test_roundtrip_with_crs(self):
        env = Envelope(32.0, -117.6, 33.5, -116.2, 4326)
        back = envelope_from_kvp(envelope_to_string(env))
        assert (back.min0, back.min1, back.max0, back.max1, back.epsg) == (
            32.0, -117.6, 33.5, -116.2, 4326,
        )

    def test_default_geographic_when_no_crs(self):
        e = envelope_from_kvp("-116.0,32.6,-115.0,34.0")
        assert e.crs84 and e.epsg == 4326

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            envelope_from_kvp("1,2,3")


class TestAudioStage:
    def test_fake_features_flat_map_and_deterministic(self):
        media = synth_media_batch(pa.table({"doc_id": pa.array([1, 2], pa.int64())}))
        stage = AudioFeatureStage(fake=True, n_mels=4)
        out1 = stage(media)
        out2 = stage(media)
        assert out1.equals(out2)
        assert out1.column_names == ["media_id", "frame_idx", "feature"]
        assert out1.num_rows >= 2
        assert len(out1.column("feature").to_pylist()[0]) == 4

    def test_real_codec_rejects_non_wav_payloads(self):
        # fake=False is a real PCM-16 WAV decoder now (georay/codecs.py);
        # non-WAV payloads fail loudly, not silently
        media = synth_media_batch(pa.table({"doc_id": pa.array([1], pa.int64())}))
        with pytest.raises(ValueError, match="RIFF"):
            AudioFeatureStage(fake=False)(media)
