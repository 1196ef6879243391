"""Multimodal (image/audio/video) column plumbing.

Media travel as opaque ``binary`` columns with typed metadata columns
(mime, width/height/duration when known).  Decode / feature-extraction /
resize / frame-sampling are stage classes, mapped as plain tasks with
``georay.partition.cached_map(Stage, **kwargs)`` so each worker builds a
stage once:

- ``fake=True``  -> deterministic fake decode derived from the payload
  bytes (stable across runs; exercises the full pipeline shape and the
  DuckDB oracle).
- ``fake=False`` -> REAL pure-numpy codecs (georay/codecs.py) for the
  uncompressed formats this container can support without image/audio
  libraries: PPM/PGM and 24-bit BMP images, PCM-16 WAV audio, and
  concatenated-PPM streams as the frame-sampling "video" container.
  Compressed formats (JPEG/PNG/MP4/...) raise ``ValueError`` naming the
  payload — install a codec library and extend ``_decode_real`` for
  those.

Batch-size guidance: media rows are large — size ``batch_size`` so
batch_bytes x the CPUs of a node stays under the worker heap budget
(SURVEY.md §4 memory row); callers pass ``batch_size`` explicitly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("mime", pa.string()),
        ("payload", pa.binary()),
    ]
)

DECODED_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_channels", pa.int32()),
        ("mean_luma", pa.float64()),
        ("feature", pa.list_(pa.float32())),
    ]
)


def _stable_u64(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _stable_u64_md5(payload: bytes) -> int:
    """DuckDB-mirrorable payload hash: md5_number_lower of the payload's
    lowercase hex encoding (DuckDB's md5 functions are VARCHAR-only, and
    hex(digest*8) == hex(digest)*8, so the oracle reconstructs the exact
    same string without blob functions)."""
    return int.from_bytes(hashlib.md5(payload.hex().encode()).digest()[8:16], "little")


class ImageDecodeStage:
    """Stage: binary payload -> (dims, stats, feature vector).

    Real deployment would load the codec/model once here in ``__init__``
    (the expensive state, kept per worker by ``cached_map``); `fake` mode derives deterministic outputs from
    a payload digest so the pipeline is testable end-to-end.
    """

    def __init__(self, fake: bool = True, feature_dim: int = 8, hash_impl: str = "blake2b"):
        self.fake = fake
        self.feature_dim = int(feature_dim)
        self.hash_impl = hash_impl
        # compressed-format decoder (PIL/imageio) resolved ONCE per instance
        # — None in this container; real deployments get JPEG/PNG free
        self._ext = None
        if not fake:
            from georay import codecs

            self._ext = codecs.optional_image_decoder()

    def _decode_fake(self, payload: bytes):
        h = _stable_u64_md5(payload) if self.hash_impl == "md5" else _stable_u64(payload)
        w = 64 + (h & 0x3FF)
        ht = 64 + ((h >> 10) & 0x3FF)
        rng = np.random.default_rng(h & 0xFFFFFFFF)
        feat = rng.standard_normal(self.feature_dim).astype(np.float32)
        return w, ht, 3, float((h >> 20) & 0xFF) / 255.0, feat

    def _decode_real(self, payload: bytes):
        """Real decode of an uncompressed image payload (magic-sniffed):
        PPM/PGM or 24-bit BMP -> (w, h, channels, mean Rec.601 luma,
        strip-thumbnail feature)."""
        from georay import codecs

        if payload[:1] == b"P":
            img = codecs.decode_pnm(payload)
        elif payload[:2] == b"BM":
            img = codecs.decode_bmp(payload)
        elif self._ext is not None:
            img = np.asarray(self._ext(payload))
            if img.dtype != np.uint8 or img.ndim not in (2, 3):
                raise ValueError(
                    f"external decoder returned {img.dtype}/{img.ndim}d; "
                    "want uint8 (h,w[,3])"
                )
        else:
            raise ValueError(
                f"undecodable image payload (magic {payload[:4]!r}): fake=False "
                "decodes uncompressed PPM/PGM/BMP natively; install pillow or "
                "imageio for compressed formats"
            )
        ch = 1 if img.ndim == 2 else img.shape[2]
        lm = codecs.luma(img)
        feat = codecs.strip_feature(img, self.feature_dim)
        return img.shape[1], img.shape[0], ch, float(lm.mean()), feat

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        decode = self._decode_fake if self.fake else self._decode_real
        rows = [decode(p or b"") for p in payloads]
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "width": pa.array([r[0] for r in rows], pa.int32()),
                "height": pa.array([r[1] for r in rows], pa.int32()),
                "n_channels": pa.array([r[2] for r in rows], pa.int32()),
                "mean_luma": pa.array([r[3] for r in rows], pa.float64()),
                "feature": pa.array([r[4] for r in rows], pa.list_(pa.float32())),
            }
        )


class ResizeStage:
    """Resize stage with two input layouts:

    - ``fake=True`` (metadata mode): recomputes the width/height columns
      to fit ``max_side``; payload untouched.
    - ``fake=False`` (pixel mode): input is MEDIA_SCHEMA batches; each
      PPM/PGM/BMP payload is decoded, nearest-neighbour resampled to fit
      ``max_side``, and re-encoded as PPM/PGM, emitting
      (media_id, mime, payload, width, height).
    """

    def __init__(self, max_side: int = 256, fake: bool = True):
        self.max_side = int(max_side)
        self.fake = fake

    def _resize_real(self, batch: pa.Table) -> pa.Table:
        from georay import codecs

        out_payload, out_w, out_h, out_mime = [], [], [], []
        for p in batch.column("payload").to_pylist():
            p = p or b""
            if p[:1] == b"P":
                img = codecs.decode_pnm(p)
            elif p[:2] == b"BM":
                img = codecs.decode_bmp(p)
            else:
                raise ValueError(
                    f"undecodable image payload (magic {p[:4]!r}) in real resize"
                )
            h, w = img.shape[:2]
            scale = min(1.0, self.max_side / max(w, h))
            nw, nh = max(1, int(w * scale)), max(1, int(h * scale))
            resized = codecs.resize_nn(img, nw, nh) if scale < 1.0 else img
            out_payload.append(codecs.encode_ppm(resized))
            out_w.append(nw)
            out_h.append(nh)
            out_mime.append(
                "image/x-portable-graymap" if img.ndim == 2 else "image/x-portable-pixmap"
            )
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "mime": pa.array(out_mime, pa.string()),
                "payload": pa.array(out_payload, pa.binary()),
                "width": pa.array(out_w, pa.int32()),
                "height": pa.array(out_h, pa.int32()),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            return self._resize_real(batch)
        w = batch.column("width").to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch.column("height").to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore"):
            scale = np.minimum(1.0, self.max_side / np.maximum(w, h))
        # unknown dims stay null (NaN would cast to INT32_MIN garbage)
        nulls = np.isnan(w) | np.isnan(h)
        new_w = pa.array(np.where(nulls, 0, w * scale).astype(np.int32), mask=nulls)
        new_h = pa.array(np.where(nulls, 0, h * scale).astype(np.int32), mask=nulls)
        out = batch.set_column(batch.schema.get_field_index("width"), "width", new_w)
        out = out.set_column(out.schema.get_field_index("height"), "height", new_h)
        return out


class FrameSampleStage:
    """Video frame sampler: emits up to ``n_frames`` child rows per media
    row (flat_map layout: media_id, frame_idx, frame_payload).

    ``fake=False`` treats the payload as a concatenated-PPM stream (the
    ``ffmpeg -f image2pipe -vcodec ppm`` byte layout): frames are located
    by header parsing and ``n_frames`` evenly-spaced ones are emitted as
    standalone PPM payloads; ``frame_idx`` is the index IN THE STREAM."""

    def __init__(self, n_frames: int = 4, fake: bool = True):
        self.n_frames = int(n_frames)
        self.fake = fake

    def _sample_real(self, mid, p: bytes, out_ids, out_idx, out_payload):
        from georay import codecs

        offsets = codecs.pnm_frame_offsets(p)
        n = len(offsets)
        take = min(self.n_frames, n)
        # evenly spaced over the stream, always including the first frame
        picks = np.unique((np.arange(take) * (n / take)).astype(np.int64))
        for f in picks:
            start, length = offsets[int(f)]
            out_ids.append(mid)
            out_idx.append(int(f))
            out_payload.append(p[start : start + length])

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_numpy()
        payloads = batch.column("payload").to_pylist()
        out_ids, out_idx, out_payload = [], [], []
        for mid, p in zip(ids, payloads):
            p = p or b""
            if not self.fake:
                self._sample_real(mid, p, out_ids, out_idx, out_payload)
                continue
            for f in range(self.n_frames):
                out_ids.append(mid)
                out_idx.append(f)
                # deterministic fake frame: digest-derived slice
                out_payload.append(hashlib.blake2b(p + bytes([f]), digest_size=16).digest())
        return pa.table(
            {
                "media_id": pa.array(out_ids, pa.int64()),
                "frame_idx": pa.array(out_idx, pa.int32()),
                "frame_payload": pa.array(out_payload, pa.binary()),
            }
        )


class AudioFeatureStage:
    """Stage: audio payload -> per-frame spectral features
    (flat_map layout: media_id, frame_idx, feature).

    ``fake=False`` decodes PCM-16 WAV (pure-numpy RIFF parser,
    georay/codecs.py), downmixes to mono, and computes real log
    band-energy features per fixed-hop frame via rfft; fake mode derives
    a deterministic frame-feature matrix from the payload digest."""

    def __init__(self, fake: bool = True, n_mels: int = 8, hop_ms: int = 1000):
        self.fake = fake
        self.n_mels = int(n_mels)
        self.hop_ms = int(hop_ms)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_numpy()
        payloads = batch.column("payload").to_pylist()
        out_id, out_frame, out_feat = [], [], []
        for mid, p in zip(ids, payloads):
            if not self.fake:
                from georay import codecs

                rate, samples = codecs.decode_wav(p or b"")
                feats = codecs.band_energies(
                    samples.mean(axis=1), rate, self.hop_ms, self.n_mels
                )
                for f in range(len(feats)):
                    out_id.append(mid)
                    out_frame.append(f)
                    out_feat.append(feats[f])
                continue
            h = _stable_u64(p or b"")
            dur_ms = 1000 + (h & 0x3FFF)  # 1-17 s fake duration
            n_frames = max(1, dur_ms // self.hop_ms)
            rng = np.random.default_rng(h & 0xFFFFFFFF)
            feats = rng.standard_normal((n_frames, self.n_mels)).astype(np.float32)
            for f in range(n_frames):
                out_id.append(mid)
                out_frame.append(f)
                out_feat.append(feats[f])
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "frame_idx": pa.array(out_frame, pa.int32()),
                "feature": pa.array([f for f in out_feat], pa.list_(pa.float32())),
            }
        )


def synth_media_batch(batch: pa.Table, id_col: str = "doc_id",
                      hash_impl: str = "blake2b") -> pa.Table:
    """Deterministic fake media table derived from any id column (for
    tests/benches: payload bytes are a digest-expanded blob).  The
    ``md5`` variant is oracle-mirrorable: payload = md5(str(id)) * 8."""
    ids = batch.column(id_col).to_numpy()
    if hash_impl == "md5":
        payloads = [hashlib.md5(str(int(i)).encode()).digest() * 8 for i in ids]
    else:
        payloads = [
            hashlib.blake2b(str(int(i)).encode(), digest_size=32).digest() * 8 for i in ids
        ]
    return pa.table(
        {
            "media_id": pa.array(ids.astype(np.int64), pa.int64()),
            "mime": pa.array(["image/fake"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
