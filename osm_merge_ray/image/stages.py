"""Actor-pool image stages: decode / verify / thumbnail / embed.

Multimodal columns are opaque ``large_binary`` payloads with typed
metadata (w, h, fmt) — the stage contract BASELINE.json's input_hint
fixes. Each stage is a callable CLASS for ``map_batches(Cls,
concurrency=N, batch_size=B)``: one-time setup in ``__init__`` (the
reference instead rebuilt its pyproj Transformer per call —
conflator.py:477-480), per-batch vectorized work in ``__call__``.
Batch sizes stay small (default 256) because rows carry kilobytes of
pixels: batch_size × concurrency bounds heap per worker.

The codec itself is the deterministic stand-in from ``image/codec.py``
(no libjpeg in this container); a real deployment swaps only the
``decode``/``encode`` calls. Audio/video decode is stubbed explicitly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from osm_merge_ray.image.codec import (decode, encode, is_lossy, on_quant_grid,
                                       psnr, quantize, resize_box)
from osm_merge_ray.image.phash import gray32, hamming64, hash_gray32, shape_stacks


class DecodeVerify:
    """Decode every image; verify dims + phash against the metadata
    columns; per-row PSNR gate for lossy rows (BASELINE.json: "decoded-
    pixel allclose (PSNR>=40dB for lossy)").

    Each row is decoded once (``codec.decode``); the decoded rows are
    then stacked per raster shape (``phash.shape_stacks``), so the
    lossy-grid check and the pHash front-end (grayscale, box sums) run
    as array ops per stack and one 8x8 DCT covers the block.

    Emits the input columns minus ``bytes`` plus
    ``decode_ok / dims_ok / phash_dist / psnr_db``.
    """

    def __init__(self, psnr_min: float = 40.0, phash_max_dist: int = 0):
        self.psnr_min = psnr_min
        self.phash_max_dist = phash_max_dist

    def __call__(self, t: pa.Table) -> pa.Table:
        blobs = t.column("bytes").to_pylist()
        w = t.column("w").to_numpy()
        h = t.column("h").to_numpy()
        lossy = np.array([is_lossy(f) for f in t.column("fmt").to_pylist()], dtype=bool)
        stored = t.column("phash").to_numpy()
        n = len(blobs)
        pxs: list[np.ndarray] = []
        rows: list[int] = []
        for i, buf in enumerate(blobs):
            if buf is None:
                continue
            try:
                pxs.append(decode(buf))
            except (NotImplementedError, ValueError):
                continue
            rows.append(i)
        rows = np.asarray(rows, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        ok[rows] = True
        dims_ok = np.zeros(n, dtype=bool)
        pdist = np.full(n, 64, dtype=np.int64)
        psnr_db = np.where(ok, 99.0, 0.0)
        g32 = np.empty((len(pxs), 32, 32))
        for pos, stack in shape_stacks(pxs):
            at = rows[pos]
            g32[pos] = gray32(stack)
            dims_ok[at] = (h[at] == stack.shape[1]) & (w[at] == stack.shape[2])
            # re-encode round trip == the quantizer (idempotent lossy
            # stand-in): stored lossy pixels sit on its grid, so PSNR is
            # computed only for lossy rows off the grid
            for j in np.flatnonzero(lossy[at] & ~on_quant_grid(stack)):
                psnr_db[at[j]] = min(psnr(stack[j], quantize(stack[j])), 99.0)
        pdist[rows] = hamming64(hash_gray32(g32), stored[rows])
        out = t.drop_columns(["bytes"])
        out = out.append_column("decode_ok", pa.array(ok))
        out = out.append_column("dims_ok", pa.array(dims_ok))
        out = out.append_column("phash_dist", pa.array(pdist, pa.int64()))
        out = out.append_column("psnr_db", pa.array(psnr_db, pa.float64()))
        return out


class VerifiedDecode(DecodeVerify):
    """``DecodeVerify`` that refuses a block holding a row that fails a
    check: it raises a ValueError naming up to 3 ``image_id``s and the
    first check each failed, in the order decode, dims, phash
    (``phash_dist > phash_max_dist``), psnr (``psnr_db < psnr_min``).
    The conflation pipelines decode through it, so a corrupt or
    mismatched image is never conflated silently; ``DecodeVerify`` itself
    only flags (``image_decode_stats`` counts the flags)."""

    def __call__(self, t: pa.Table) -> pa.Table:
        out = super().__call__(t)
        checks = {
            "decode": ~out.column("decode_ok").to_numpy(zero_copy_only=False),
            "dims": ~out.column("dims_ok").to_numpy(zero_copy_only=False),
            "phash": out.column("phash_dist").to_numpy() > self.phash_max_dist,
            "psnr": out.column("psnr_db").to_numpy() < self.psnr_min,
        }
        first = np.select(list(checks.values()), list(checks), default="")
        bad = np.flatnonzero(first != "")
        if len(bad):
            ids = out.column("image_id").to_pylist()
            named = ", ".join(f"{ids[i]} ({first[i]})" for i in bad[:3])
            raise ValueError(
                f"image decode-verify failed on {len(bad)} row(s): {named}")
        return out


class Thumbnail:
    """Box-filter thumbnail (real, numpy) → re-encoded binary column."""

    def __init__(self, size: int = 16):
        self.size = size

    def __call__(self, t: pa.Table) -> pa.Table:
        blobs = t.column("bytes").to_pylist()
        out = []
        for buf in blobs:
            if buf is None:
                out.append(None)
                continue
            px = decode(buf)
            out.append(encode(resize_box(px, self.size, self.size), "png"))
        return t.append_column("thumb", pa.array(out, pa.large_binary()))


class PixelEmbed:
    """Cheap deterministic visual embedding: 4x4 box means per channel,
    L2-normalized (48-dim). The engine's stand-in for a model encoder;
    a real deployment loads the model here in ``__init__``."""

    def __init__(self, grid: int = 4):
        self.grid = grid

    def __call__(self, t: pa.Table) -> pa.Table:
        vecs = []
        for buf in t.column("bytes").to_pylist():
            if buf is None:
                vecs.append(None)
                continue
            px = decode(buf)
            small = resize_box(px, self.grid, self.grid).astype(np.float64).reshape(-1)
            nrm = np.linalg.norm(small)
            vecs.append((small / (nrm or 1.0)).astype(np.float32))
        return t.append_column(
            "pixel_embedding", pa.array([v.tolist() if v is not None else None for v in vecs],
                                        pa.list_(pa.float32())),
        )


class FrameSample:
    """Video frame sampling as an actor-pool stage.

    Contract (the real part): a video is an opaque ``binary`` column
    with typed metadata (``n_frames:int32, fps:float, w, h``); the
    stage emits ``k`` uniformly-sampled frame indices and a per-frame
    perceptual hash — one output row per sampled frame. The *decoder*
    is the deterministic stand-in (a real deployment wires
    PyAV/ffmpeg into ``_decode_frame``); the schema, fan-out shape,
    batch sizing and actor signature are production-real.
    """

    def __init__(self, k: int = 4):
        self.k = k

    def _decode_frame(self, buf: bytes, frame_idx: int, w: int, h: int) -> np.ndarray:
        # deterministic fake: frame i of a "video" is the procedural
        # image seeded by hash(bytes header, i) — stands in for a real
        # codec seek+decode (NotImplemented for real containers)
        from osm_merge_ray.image.codec import synth_pixels
        from osm_merge_ray.util import splitmix64

        seed = splitmix64(int.from_bytes(buf[:8].ljust(8, b"\0"), "little") ^ frame_idx)
        return synth_pixels(int(seed), w, h)

    def __call__(self, t: pa.Table) -> pa.Table:
        from osm_merge_ray.image.phash import phash64_batch

        vids = t.column("bytes").to_pylist()
        n_frames = t.column("n_frames").to_numpy()
        w = t.column("w").to_numpy()
        h = t.column("h").to_numpy()
        ids = t.column("video_id").to_pylist()
        out_id, out_frame, frames = [], [], []
        for i, buf in enumerate(vids):
            if buf is None or n_frames[i] <= 0:
                continue
            # integer uniform sampling (j*(n-1))//(k-1): exact in int64
            # and mirrorable in SQL (floats in linspace round differently)
            if self.k == 1:
                idxs = np.array([0], dtype=np.int64)
            else:
                idxs = np.unique((np.arange(self.k, dtype=np.int64)
                                  * (int(n_frames[i]) - 1)) // (self.k - 1))
            for fi in idxs:
                out_id.append(ids[i])
                out_frame.append(int(fi))
                frames.append(self._decode_frame(buf, int(fi), int(w[i]), int(h[i])))
        hashes = phash64_batch(frames)
        return pa.table({
            "video_id": pa.array(out_id, pa.string()),
            "frame_idx": pa.array(out_frame, pa.int64()),
            "frame_phash": pa.array(hashes, pa.int64()),
        })


class AudioDecode:
    """Audio decode + spectral-feature actor stage.

    The container FORMAT is the deterministic stand-in from
    ``audio/codec.py`` (no libsndfile/ffmpeg here — real wav/mp3
    payloads raise NotImplementedError with an honest message, and a
    deployment swaps only the codec call); the FEATURE DSP is real
    numpy (framed RFFT → log-spaced band energies). Emits
    ``decode_ok, n_samples, sample_rate, rms_e6, audio_embedding`` and
    drops the bytes before anything reaches a shuffle."""

    def __init__(self, n_bands: int = 16):
        from osm_merge_ray.audio.codec import (audio_fingerprint,
                                               band_energies, decode)

        self.n_bands = n_bands
        self._decode = decode
        self._bands = band_energies
        self._fp = audio_fingerprint

    def __call__(self, t: pa.Table) -> pa.Table:
        blobs = t.column("bytes").to_pylist()
        n = len(blobs)
        ok = np.zeros(n, dtype=bool)
        n_samples = np.zeros(n, dtype=np.int64)
        sr = np.zeros(n, dtype=np.int64)
        rms = np.zeros(n, dtype=np.int64)
        afp = np.zeros(n, dtype=np.int64)
        feats: list = [None] * n
        for i, buf in enumerate(blobs):
            if buf is None:
                continue
            try:
                pcm, rate = self._decode(buf)
            except (NotImplementedError, ValueError):
                continue
            ok[i] = True
            n_samples[i] = len(pcm)
            sr[i] = rate
            x = pcm.astype(np.float64) / 32768.0
            rms[i] = int(round(float(np.sqrt((x * x).mean())) * 1e6)) if len(x) else 0
            feats[i] = self._bands(pcm, rate, self.n_bands).tolist()
            afp[i] = self._fp(pcm, rate, self.n_bands)
        out = t.drop_columns(["bytes"])
        out = out.append_column("decode_ok", pa.array(ok))
        out = out.append_column("n_samples", pa.array(n_samples, pa.int64()))
        out = out.append_column("sample_rate", pa.array(sr, pa.int64()))
        out = out.append_column("rms_e6", pa.array(rms, pa.int64()))
        out = out.append_column("audio_fp", pa.array(afp, pa.int64()))
        out = out.append_column("audio_embedding",
                                pa.array(feats, pa.list_(pa.float32())))
        return out
