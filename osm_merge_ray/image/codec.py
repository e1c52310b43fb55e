"""Deterministic image codecs + procedural image synthesis.

This container ships no PIL / libjpeg / libpng, so — per the build
brief — the *codec* is a clearly-marked deterministic stand-in while
every Ray-side concern (binary columns, batch sizing, actor-pool
decode, PSNR verification per BASELINE.json's "decoded-pixel
allclose / PSNR >= 40 dB for lossy") is real and tested:

* ``fmt="png"``  → FPNG: zlib-compressed raw RGB — **lossless**.
* ``fmt="jpeg"`` → FJPG: round-to-nearest quantization (step 4) then
  zlib — **lossy**, PSNR ≈ 48 dB ≥ the 40 dB gate, and re-encoding is
  idempotent (quantized pixels re-quantize to themselves), which gives
  the "re-encoded near-duplicate" fixtures stable pixels.

A real deployment swaps ``encode``/``decode`` for libjpeg-turbo /
libvips calls inside the same actor-pool stage; nothing else changes.
"""

from __future__ import annotations

import zlib

import numpy as np

from osm_merge_ray.util import splitmix64

_MAGIC_PNG = b"FPNG"
_MAGIC_JPG = b"FJPG"
_Q_STEP = 4  # lossy quantization step → max abs error 2, PSNR ~48 dB


def synth_pixels(seed: int, w: int, h: int) -> np.ndarray:
    """Deterministic procedural RGB image (h, w, 3) uint8.

    Smooth gradients + two sinusoid fields keyed on splitmix64(seed) —
    smooth content so the perceptual hash is stable under the lossy
    re-encode, with enough variation that distinct seeds get distant
    hashes.
    """
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    xn, yn = x / max(w - 1, 1), y / max(h - 1, 1)
    img = np.full((h, w, 3), 127.5)
    s = int(seed)
    # 6 octaves of oriented sinusoids per channel: a filled spectrum, so
    # the perceptual hash's DCT bits are content-driven, not noise-driven
    for ch in range(3):
        for o in range(6):
            hsh = splitmix64((s << 8) ^ (ch << 4) ^ o)
            theta = (hsh & 0xFFFF) / 65536.0 * np.pi
            freq = (1.0 + ((hsh >> 16) & 0x3) ) * (1 << o) * 0.45
            phase = ((hsh >> 24) & 0xFFFF) / 65536.0 * 2 * np.pi
            amp = 70.0 / (1.35 ** o)
            u = np.cos(theta) * xn + np.sin(theta) * yn
            img[..., ch] += amp * np.sin(2 * np.pi * freq * u + phase)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    h, w = pixels.shape[0], pixels.shape[1]
    if fmt == "png":
        payload = zlib.compress(np.ascontiguousarray(pixels).tobytes(), 6)
        magic = _MAGIC_PNG
    elif fmt == "jpeg":
        payload = zlib.compress(np.ascontiguousarray(quantize(pixels)).tobytes(), 6)
        magic = _MAGIC_JPG
    else:
        raise NotImplementedError(
            f"fmt={fmt!r}: real codecs (libjpeg/libpng/libvips) are not in this "
            "container; only the deterministic stand-in formats png/jpeg exist"
        )
    header = magic + w.to_bytes(4, "little") + h.to_bytes(4, "little")
    return header + payload


#: deflate cannot expand a stream by more than ~1032:1, so a header
#: claiming more pixels than that is not honest; decode then lets zlib
#: grow its buffer instead of preallocating what the header claims
_MAX_DEFLATE_RATIO = 1032


def decode(buf) -> np.ndarray:
    """Pixels (h, w, 3) uint8 of one encoded image. Slices the header
    through a memoryview (no copy of the payload) and preallocates
    zlib's output at the header's w*h*3. Raises NotImplementedError on an
    unknown magic, ValueError when the payload is not w*h*3 bytes, and
    ``zlib.error`` on a corrupt stream."""
    mv = memoryview(buf)
    magic = bytes(mv[:4])
    if magic not in (_MAGIC_PNG, _MAGIC_JPG):
        raise NotImplementedError(f"unknown image magic {magic!r}")
    w = int.from_bytes(mv[4:8], "little")
    h = int.from_bytes(mv[8:12], "little")
    payload = mv[12:]
    size = w * h * 3
    if size > len(payload) * _MAX_DEFLATE_RATIO:
        size = zlib.DEF_BUF_SIZE
    raw = zlib.decompress(payload, bufsize=size)
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def is_lossy(fmt: str) -> bool:
    return fmt == "jpeg"


def quantize(pixels: np.ndarray) -> np.ndarray:
    """The lossy codec's quantizer (round-to-nearest, step 4) applied
    directly — equal to decode(encode(pixels, "jpeg")) without the zlib
    round trip."""
    return np.clip(
        (pixels.astype(np.int32) + _Q_STEP // 2) // _Q_STEP * _Q_STEP, 0, 255
    ).astype(np.uint8)


def on_quant_grid(stack: np.ndarray) -> np.ndarray:
    """Per image of a (k, ...) uint8 stack: ``px == quantize(px)``
    everywhere, as one array op. A byte re-quantizes to itself exactly
    when it is a multiple of the step (a power of two) or the clipped
    top value 255 (checked over all 256 values in tests)."""
    f = stack.reshape(len(stack), -1)
    return (((f & (_Q_STEP - 1)) == 0) | (f == 255)).all(axis=1)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)


def resize_box(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Box-filter resize (area average), pure numpy — real, not a stub.

    Used by the thumbnailing / feature-extraction stages and by the
    perceptual hash front-end.
    """
    h, w = pixels.shape[:2]
    ys = (np.arange(out_h + 1) * h) // out_h
    xs = (np.arange(out_w + 1) * w) // out_w
    # integral image for O(1) box sums
    ii = np.zeros((h + 1, w + 1, pixels.shape[2]), dtype=np.float64)
    ii[1:, 1:] = np.cumsum(np.cumsum(pixels.astype(np.float64), axis=0), axis=1)
    y0, y1 = ys[:-1], ys[1:]
    x0, x1 = xs[:-1], xs[1:]
    area = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    s = (
        ii[y1][:, x1] - ii[y0][:, x1] - ii[y1][:, x0] + ii[y0][:, x0]
    )
    return np.clip(np.rint(s / area[..., None]), 0, 255).astype(np.uint8)
