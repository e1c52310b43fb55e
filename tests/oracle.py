"""Brute-force conflation oracle: a literal O(N*M) reimplementation of
the decision semantics (conflator.py:86-330 restated in
stages/conflate.py's docstring), written independently of the engine's
vectorized/cell-sharded path — scalar loops, scalar fuzz, full pairwise
distances. Tests assert engine output == oracle output row for row.

``decode_verify_oracle`` is the same kind of reference for the image
decode-verify stage: the per-row loop the shape-batched stage replaced.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.geo.distance import haversine_m
from osm_merge_ray.stages.conflate import _ref_token
from osm_merge_ray.text.fuzz import indel_ratio


def _popcount(x: int) -> int:
    return bin(x & 0xFFFFFFFFFFFFFFFF).count("1")


def conflate_oracle(primary: pd.DataFrame, secondary: pd.DataFrame,
                    cfg: ConflationConfig) -> pd.DataFrame:
    rows = []
    s_lon = secondary["lon"].to_numpy()
    s_lat = secondary["lat"].to_numpy()
    for _, p in primary.iterrows():
        d = haversine_m(p["lon"], p["lat"], s_lon, s_lat)
        cand = np.where(d <= cfg.distance_m)[0]
        # nearest max_candidates; exact-distance ties break by secondary
        # image_id (input-order independent), matching the engine's cap
        s_ids = secondary["image_id"].to_numpy()
        cand = cand[np.lexsort((s_ids[cand], d[cand]))][: cfg.max_candidates]
        best = None
        for j in cand:
            s = secondary.iloc[j]
            ratio = indel_ratio(p["caption"], s["caption"])
            cap_hit = ratio > cfg.fuzz_threshold and abs(len(p["caption"]) - len(s["caption"])) <= cfg.len_diff_max
            rp = _ref_token(np.array([p["caption"]], dtype=object))[0]
            rs = _ref_token(np.array([s["caption"]], dtype=object))[0]
            ref_hit = (not cap_hit) and rp != "" and rp == rs
            ham = _popcount(int(p["phash"]) ^ int(s["phash"]))
            ph_hit = ham <= cfg.phash_hamming_max
            hits = int(cap_hit) + int(ref_hit) + int(ph_hit)
            dist_mm = int(round(d[j] * 1000.0))
            key = (-hits, dist_mm, s["image_id"])
            if best is None or key < best[0]:
                best = (key, j, hits, dist_mm)
        if best is None:
            rows.append((p["image_id"], None, "new", 0, -1, p["caption"], None))
        else:
            _, j, hits, dist_mm = best
            s = secondary.iloc[j]
            dup = hits >= cfg.min_hits_accept and dist_mm <= cfg.dup_distance_m * 1000.0
            old = s["caption"] if s["caption"] != p["caption"] else None
            rows.append((
                p["image_id"], s["image_id"], "duplicate" if dup else "merged",
                hits, dist_mm, p["caption"], old,
            ))
    return pd.DataFrame(
        rows,
        columns=["image_id", "matched_id", "decision", "hits", "dist_mm", "caption", "old_caption"],
    )


def decode_verify_oracle(t: pa.Table) -> pa.Table:
    """The per-row decode-verify ``image/stages.py::DecodeVerify``
    replaced, kept as its reference: each row is decoded with payload
    copies, re-quantized and compared on its own, grayscaled and
    box-resized on its own (reshape-mean, or ``resize_box`` for sizes
    not divisible by 32); the hash reads the corner of one full 32x32
    ``einsum`` DCT over the block."""
    import zlib

    from osm_merge_ray.image.codec import psnr, quantize, resize_box
    from osm_merge_ray.image.phash import _dct_matrix, hamming64

    def decode(buf):
        magic, rest = bytes(buf[:4]), buf[4:]
        if magic not in (b"FPNG", b"FJPG"):
            raise NotImplementedError(magic)
        w = int.from_bytes(rest[:4], "little")
        h = int.from_bytes(rest[4:8], "little")
        raw = zlib.decompress(bytes(rest[8:]))
        return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)

    def gray32(px):
        gray = 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]
        h, w = gray.shape
        if h % 32 == 0 and w % 32 == 0:
            blocks = gray.astype(np.uint8).reshape(32, h // 32, 32, w // 32)
            return np.clip(np.rint(blocks.astype(np.float64).mean(axis=(1, 3))), 0, 255)
        return resize_box(gray[..., None].astype(np.uint8), 32, 32)[..., 0].astype(np.float64)

    blobs = t.column("bytes").to_pylist()
    w = t.column("w").to_numpy()
    h = t.column("h").to_numpy()
    fmt = t.column("fmt").to_pylist()
    stored = t.column("phash").to_numpy()
    n = len(blobs)
    ok = np.zeros(n, dtype=bool)
    dims_ok = np.zeros(n, dtype=bool)
    pdist = np.full(n, 64, dtype=np.int64)
    psnr_db = np.full(n, 0.0)
    grays, rows = [], []
    for i, buf in enumerate(blobs):
        if buf is None:
            continue
        try:
            px = decode(buf)
        except (NotImplementedError, ValueError):
            continue
        ok[i] = True
        dims_ok[i] = px.shape[1] == w[i] and px.shape[0] == h[i]
        if fmt[i] == "jpeg":
            q = quantize(px)
            psnr_db[i] = 99.0 if np.array_equal(px, q) else min(psnr(px, q), 99.0)
        else:
            psnr_db[i] = 99.0
        grays.append(gray32(px))
        rows.append(i)
    if rows:
        m = _dct_matrix(32)
        d = np.einsum("ij,njk,lk->nil", m, np.stack(grays), m, optimize=True)
        flat = d[:, :8, :8].reshape(len(rows), 64)
        bits = flat > np.median(flat[:, 1:], axis=1)[:, None]
        pow2 = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
        hashes = (bits.astype(np.uint64) @ pow2).view(np.int64)
        pdist[rows] = hamming64(hashes, stored[rows])
    out = t.drop_columns(["bytes"])
    out = out.append_column("decode_ok", pa.array(ok))
    out = out.append_column("dims_ok", pa.array(dims_ok))
    out = out.append_column("phash_dist", pa.array(pdist, pa.int64()))
    out = out.append_column("psnr_db", pa.array(psnr_db, pa.float64()))
    return out
