"""64-bit DCT perceptual hash (the public pHash algorithm), pure numpy.

Algorithm (Zauner 2010, "Implementation and Benchmarking of Perceptual
Image Hash Functions"; same scheme as the ``imagehash`` library):
grayscale → box-resize to 32x32 → 2D DCT-II → keep the top-left 8x8
low-frequency block → threshold against the median (excluding the DC
term) → 64 bits.

Role in the engine: the graft analog of the reference's
"geometry identical → match regardless of tags" early exit
(``conflator.py:229-234``): two rows whose decoded pixels hash within
``phash_hamming_max`` count a hit in the decision table.
"""

from __future__ import annotations

import numpy as np

from osm_merge_ray.image.codec import resize_box

_DCT32 = None


def _dct_matrix(n: int = 32) -> np.ndarray:
    global _DCT32
    if _DCT32 is None:
        k = np.arange(n)[:, None]
        i = np.arange(n)[None, :]
        m = np.cos(np.pi / n * (i + 0.5) * k)
        m[0] *= 1.0 / np.sqrt(2.0)
        _DCT32 = m * np.sqrt(2.0 / n)
    return _DCT32


#: pixels per stacked piece: keeps the float64 grayscale temporaries
#: cache-sized
_CHUNK_PX = 1 << 17


def _box32(g8: np.ndarray) -> np.ndarray:
    """(k, h, w) uint8 with h, w multiples of 32 → (k, 32, 32) block
    means, rounded. Strided integer adds give exact block sums, so
    ``rint(sum / area)`` equals the float64 ``blocks.mean`` in any
    summation order."""
    _, h, w = g8.shape
    bh, bw = h // 32, w // 32
    acc = np.uint16 if bh * bw * 255 <= np.iinfo(np.uint16).max else np.uint32
    cols = g8[:, :, 0::bw].astype(acc)
    for j in range(1, bw):
        cols += g8[:, :, j::bw]
    sums = cols[:, 0::bh].copy()
    for i in range(1, bh):
        sums += cols[:, i::bh]
    return np.rint(sums / (bh * bw))


def gray32(stack: np.ndarray) -> np.ndarray:
    """The pHash front-end for a (k, h, w, 3) stack of one raster shape:
    grayscale (``0.299 R + 0.587 G + 0.114 B`` → uint8) box-resized to
    (k, 32, 32) float64. Shapes divisible by 32 take the strided box
    sums; any other shape goes through ``resize_box`` image by image."""
    h, w = stack.shape[1:3]
    g8 = (0.299 * stack[..., 0] + 0.587 * stack[..., 1]
          + 0.114 * stack[..., 2]).astype(np.uint8)
    if h > 0 and w > 0 and h % 32 == 0 and w % 32 == 0:
        return _box32(g8)
    return np.stack([resize_box(g[..., None], 32, 32)[..., 0] for g in g8]).astype(np.float64)


_POW2 = (np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64))


def hash_gray32(g32: np.ndarray) -> np.ndarray:
    """int64 pHash of each (32, 32) gray image of an (n, 32, 32) stack.
    Only the 8x8 low-frequency block the hash reads is transformed:
    ``m[:8] @ g @ m[:8].T`` (bit-equal to the full 32x32 DCT's corner,
    pinned in tests)."""
    n = len(g32)
    m8 = _dct_matrix(32)[:8]
    flat = (m8 @ g32 @ m8.T).reshape(n, 64)
    med = np.median(flat[:, 1:], axis=1)
    bits = flat > med[:, None]
    return (bits.astype(np.uint64) @ _POW2).view(np.int64)


def shape_stacks(images: list[np.ndarray]):
    """Yield ``(positions, stack)``: the images grouped by shape, each
    class stacked in pieces of about ``_CHUNK_PX`` pixels, so a piece is
    still in cache for every array op run on it."""
    groups: dict[tuple, list[int]] = {}
    for i, px in enumerate(images):
        groups.setdefault(px.shape, []).append(i)
    for shape, pos in groups.items():
        step = max(1, _CHUNK_PX // max(shape[0] * shape[1], 1))
        for a in range(0, len(pos), step):
            piece = pos[a:a + step]
            yield piece, np.stack([images[i] for i in piece])


def phash64_batch(images: list[np.ndarray]) -> np.ndarray:
    """Batched pHash: the images are stacked per shape (``shape_stacks``)
    for ``gray32``, then one DCT covers every image."""
    g32 = np.empty((len(images), 32, 32))
    for pos, stack in shape_stacks(images):
        g32[pos] = gray32(stack)
    return hash_gray32(g32)


def phash64(pixels: np.ndarray) -> int:
    return int(np.uint64(phash64_batch([pixels]).view(np.uint64)[0]))


def hamming64(a, b) -> np.ndarray:
    """Vectorized popcount of XOR over int64/uint64 arrays (SWAR)."""
    x = np.asarray(a).astype(np.int64).view(np.uint64) ^ np.asarray(b).astype(np.int64).view(np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & m1)
        x = (x & m2) + ((x >> np.uint64(2)) & m2)
        x = (x + (x >> np.uint64(4))) & m4
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
