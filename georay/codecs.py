"""Pure-numpy codecs for uncompressed media formats.

The multimodal stages (multimodal.py) keep their deterministic fake mode
for oracle checks, but ``fake=False`` is REAL for the formats below — no
image/audio libraries exist in this container, so the codecs are written
against the public format specs directly:

- PPM (P6) / PGM (P5) binary Netpbm images — the format ffmpeg's
  image2pipe emits; header is ASCII, pixels are raw bytes.
- BMP, 24-bit uncompressed BITMAPINFOHEADER (the Windows DIB baseline).
- WAV, PCM 16-bit (RIFF/WAVE chunks).
- Concatenated-PPM streams as the "video" container for frame sampling
  (ffmpeg -f image2pipe -vcodec ppm emits exactly this byte stream).

All decoders take ``bytes`` and return numpy arrays; all raise
``ValueError`` with the offending structure named, never a silent wrong
answer.  Everything after the header parse is ``np.frombuffer`` +
reshape — zero-copy views over the payload where alignment allows.
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# Netpbm (PPM P6 / PGM P5)
# ---------------------------------------------------------------------------


def _pnm_header(buf: bytes):
    """Parse a binary Netpbm header: magic, whitespace/comment-separated
    width, height, maxval; returns (magic, w, h, maxval, pixel_offset)."""
    if len(buf) < 2 or buf[0:1] != b"P" or buf[1:2] not in b"56":
        raise ValueError("not a binary Netpbm payload (want P5/P6 magic)")
    magic = buf[:2].decode()
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comments (spec: comments run to newline)
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise ValueError("unterminated Netpbm comment")
            pos = nl + 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated Netpbm header")
        fields.append(int(buf[start:pos]))
    pos += 1  # single whitespace after maxval, then raster
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval=255 Netpbm supported, got {maxval}")
    if w <= 0 or h <= 0:
        raise ValueError(f"bad Netpbm dims {w}x{h}")
    return magic, w, h, maxval, pos


def decode_pnm(buf: bytes) -> np.ndarray:
    """P6 -> (h, w, 3) uint8; P5 -> (h, w) uint8."""
    magic, w, h, _maxval, off = _pnm_header(buf)
    ch = 3 if magic == "P6" else 1
    need = w * h * ch
    raster = buf[off : off + need]
    if len(raster) < need:
        raise ValueError(f"Netpbm raster truncated: want {need}, have {len(raster)}")
    arr = np.frombuffer(raster, np.uint8)
    return arr.reshape(h, w, 3) if ch == 3 else arr.reshape(h, w)


def pnm_frame_offsets(buf: bytes):
    """Offsets+lengths of each frame in a concatenated-PPM stream (the
    image2pipe layout: frames are butted end to end, no container)."""
    frames = []
    pos = 0
    while pos < len(buf):
        magic, w, h, _m, off = _pnm_header(buf[pos:])
        ch = 3 if magic == "P6" else 1
        end = off + w * h * ch
        if pos + end > len(buf):
            raise ValueError("trailing truncated frame in PPM stream")
        frames.append((pos, end))
        pos += end
    return frames


def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) or (h, w) uint8 -> binary PPM/PGM bytes."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    elif img.ndim == 2:
        magic = b"P5"
    else:
        raise ValueError(f"encode_ppm wants (h,w,3) or (h,w), got {img.shape}")
    h, w = img.shape[:2]
    return b"%s\n%d %d\n255\n" % (magic, w, h) + img.tobytes()


# ---------------------------------------------------------------------------
# BMP (24-bit uncompressed, BITMAPINFOHEADER)
# ---------------------------------------------------------------------------


def decode_bmp(buf: bytes) -> np.ndarray:
    """24-bit uncompressed BMP -> (h, w, 3) uint8 RGB.

    Handles bottom-up (positive height, the default) and top-down rows,
    and the 4-byte row padding the format requires."""
    if buf[:2] != b"BM" or len(buf) < 54:
        raise ValueError("not a BMP payload")
    pix_off = struct.unpack_from("<I", buf, 10)[0]
    hdr_size = struct.unpack_from("<I", buf, 14)[0]
    if hdr_size < 40:
        raise ValueError(f"unsupported BMP header size {hdr_size}")
    w, h = struct.unpack_from("<ii", buf, 18)
    planes, bpp = struct.unpack_from("<HH", buf, 26)
    compression = struct.unpack_from("<I", buf, 30)[0]
    if bpp != 24 or compression != 0:
        raise ValueError(f"only 24-bit uncompressed BMP supported (bpp={bpp}, comp={compression})")
    top_down = h < 0
    h = abs(h)
    stride = (w * 3 + 3) & ~3
    need = stride * h
    raster = buf[pix_off : pix_off + need]
    if len(raster) < need:
        raise ValueError(f"BMP raster truncated: want {need}, have {len(raster)}")
    rows = np.frombuffer(raster, np.uint8).reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
    if not top_down:
        rows = rows[::-1]
    return rows[..., ::-1].copy()  # BGR -> RGB


# ---------------------------------------------------------------------------
# WAV (RIFF, PCM 16-bit)
# ---------------------------------------------------------------------------


def decode_wav(buf: bytes):
    """PCM-16 WAV -> (sample_rate, (n_samples, n_channels) float32 in [-1, 1])."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(buf):
        cid = buf[pos : pos + 4]
        size = struct.unpack_from("<I", buf, pos + 4)[0]
        body = buf[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    audio_format, n_ch, rate = struct.unpack_from("<HHI", fmt, 0)
    bits = struct.unpack_from("<H", fmt, 14)[0]
    if audio_format != 1 or bits != 16:
        raise ValueError(f"only PCM-16 WAV supported (format={audio_format}, bits={bits})")
    if n_ch < 1:
        raise ValueError("WAV with zero channels")
    samples = np.frombuffer(data[: (len(data) // (2 * n_ch)) * 2 * n_ch], "<i2")
    return rate, (samples.reshape(-1, n_ch).astype(np.float32) / 32768.0)


def encode_wav(rate: int, samples: np.ndarray) -> bytes:
    """(n, ch) float32 in [-1, 1] -> PCM-16 WAV bytes (test fixtures)."""
    if samples.ndim == 1:
        samples = samples[:, None]
    pcm = np.clip(samples * 32767.0, -32768, 32767).astype("<i2").tobytes()
    n_ch = samples.shape[1]
    byte_rate = rate * n_ch * 2
    hdr = (
        b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, n_ch, rate, byte_rate, n_ch * 2, 16)
        + b"data" + struct.pack("<I", len(pcm))
    )
    return hdr + pcm


# ---------------------------------------------------------------------------
# Optional compressed-format hook (PIL / imageio when importable)
# ---------------------------------------------------------------------------


def optional_image_decoder():
    """Return a ``bytes -> (h, w[, 3]) uint8 ndarray`` decoder for
    COMPRESSED formats (JPEG/PNG/WebP/...) backed by Pillow or imageio
    when one is importable, else ``None``.

    This container ships neither library, so the numpy codecs above stay
    the only always-available path; in a deployment with Pillow
    installed the multimodal stages pick this up automatically (resolved
    once per stage in ``__init__``, never per batch)."""
    try:
        import io

        from PIL import Image  # type: ignore[import-not-found]

        def _pil(buf: bytes) -> np.ndarray:
            with Image.open(io.BytesIO(buf)) as im:
                if im.mode not in ("L", "RGB"):
                    im = im.convert("RGB")
                return np.asarray(im)

        return _pil
    except ImportError:
        pass
    try:
        import imageio.v3 as iio  # type: ignore[import-not-found]

        def _iio(buf: bytes) -> np.ndarray:
            a = np.asarray(iio.imread(buf))
            if a.ndim == 3 and a.shape[2] == 4:  # drop alpha for luma math
                a = a[..., :3]
            return a

        return _iio
    except ImportError:
        return None


# ---------------------------------------------------------------------------
# Shared kernels over decoded pixels/samples
# ---------------------------------------------------------------------------


def luma(img: np.ndarray) -> np.ndarray:
    """(h, w[, 3]) uint8 -> (h, w) float64 Rec.601 luma in [0, 1]."""
    if img.ndim == 2:
        return img.astype(np.float64) / 255.0
    f = img.astype(np.float64)
    return (0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]) / 255.0


def strip_feature(img: np.ndarray, dim: int) -> np.ndarray:
    """Real, deterministic image feature: mean luma of ``dim`` vertical
    strips (a 1-D thumbnail) — enough signal for near-dup grouping of
    uncompressed fixtures without any model dependency."""
    lm = luma(img)
    h, w = lm.shape
    edges = np.linspace(0, w, dim + 1).astype(np.int64)
    out = np.empty(dim, np.float32)
    for i in range(dim):
        lo, hi = edges[i], max(edges[i] + 1, edges[i + 1])
        out[i] = lm[:, lo:hi].mean()
    return out


def resize_nn(img: np.ndarray, new_w: int, new_h: int) -> np.ndarray:
    """Nearest-neighbour resample via integer index gather."""
    h, w = img.shape[:2]
    yi = (np.arange(new_h) * (h / new_h)).astype(np.int64).clip(0, h - 1)
    xi = (np.arange(new_w) * (w / new_w)).astype(np.int64).clip(0, w - 1)
    return img[yi][:, xi]


def band_energies(mono: np.ndarray, rate: int, hop_ms: int, n_bands: int) -> np.ndarray:
    """(n_samples,) mono -> (n_frames, n_bands) float32 log band energies:
    per fixed-hop frame, |rfft|^2 averaged over ``n_bands`` equal
    frequency bands, log1p-compressed.  Real spectral features, no
    windowing refinements — the point is a genuine signal path."""
    hop = max(1, int(rate * hop_ms / 1000))
    n_frames = max(1, len(mono) // hop)
    frames = mono[: n_frames * hop].reshape(n_frames, hop)
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    edges = np.linspace(0, spec.shape[1], n_bands + 1).astype(np.int64)
    out = np.empty((n_frames, n_bands), np.float32)
    for b in range(n_bands):
        lo, hi = edges[b], max(edges[b] + 1, edges[b + 1])
        out[:, b] = np.log1p(spec[:, lo:hi].mean(axis=1))
    return out
