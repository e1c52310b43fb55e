"""The shape-batched decode-verify stage against the per-row reference
(tests/oracle.py::decode_verify_oracle), and the conflation pipelines'
refusal of rows that fail verification."""

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.image.codec import encode, quantize, synth_pixels
from osm_merge_ray.image.phash import phash64
from osm_merge_ray.image.stages import DecodeVerify, VerifiedDecode
from osm_merge_ray.synth import synth_table

from tests.oracle import decode_verify_oracle


def _header(magic: bytes, w: int, h: int) -> bytes:
    return magic + w.to_bytes(4, "little") + h.to_bytes(4, "little")


def _phash(px) -> int:
    return int(np.array([phash64(px)], dtype=np.uint64).view(np.int64)[0])


def _set(t: pa.Table, i: int, **cols) -> pa.Table:
    for name, value in cols.items():
        vals = t.column(name).to_pylist()
        vals[i] = value
        t = t.set_column(t.schema.get_field_index(name), name,
                         pa.array(vals, t.schema.field(name).type))
    return t


@pytest.fixture(scope="module")
def adversarial():
    """90 synthetic rows (all 9 shapes, both formats) with one row of
    each failure or special path planted."""
    t = synth_table(90, "primary", with_bytes=True)
    assert len(set(zip(t.column("w").to_pylist(), t.column("h").to_pylist()))) == 9
    blob = t.column("bytes")[5].as_py()
    odd = synth_pixels(7, 48, 40)
    t = _set(t, 0, bytes=None)
    t = _set(t, 1, bytes=b"XXXX" + blob[4:])                       # unknown magic
    t = _set(t, 2, bytes=_header(blob[:4], 33, 7)
             + zlib.compress(b"\0" * 99))                            # len != w*h*3
    t = _set(t, 3, w=t.column("w")[3].as_py() * 2)                  # dims mismatch
    t = _set(t, 8, bytes=_header(blob[:4], 1 << 20, 1 << 20)
             + zlib.compress(b"\0" * 99))                            # dims beyond deflate
    t = _set(t, 4, bytes=encode(odd, "png"), w=48, h=40, fmt="png",
             phash=_phash(odd))                                      # resize_box path
    off = synth_pixels(8, 64, 32)                                    # off the lossy grid
    t = _set(t, 6, bytes=encode(off, "png"), w=64, h=32, fmt="jpeg", phash=_phash(off))
    lossy = quantize(synth_pixels(9, 40, 48))
    t = _set(t, 7, bytes=encode(lossy, "jpeg"), w=40, h=48, fmt="jpeg",
             phash=_phash(lossy))
    return t


def test_decode_verify_equals_per_row_oracle(adversarial):
    got = DecodeVerify()(adversarial)
    assert got.equals(decode_verify_oracle(adversarial))
    psnr = got.column("psnr_db").to_pylist()
    assert got.column("decode_ok").to_pylist()[:3] == [False] * 3
    assert got.column("dims_ok").to_pylist()[3] is False
    assert got.column("decode_ok").to_pylist()[8] is False
    assert 40.0 <= psnr[6] < 99.0 and psnr[7] == 99.0


@pytest.mark.parametrize("rows", [0, 1])
def test_decode_verify_empty_and_single_row(adversarial, rows):
    t = adversarial.slice(5, rows)
    assert DecodeVerify()(t).equals(decode_verify_oracle(t))


def test_corrupt_zlib_stream_still_raises(adversarial):
    t = _set(adversarial, 9, bytes=_header(b"FPNG", 32, 32) + b"not a zlib stream")
    with pytest.raises(zlib.error):
        DecodeVerify()(t)


def test_verified_decode_names_failed_rows(adversarial):
    with pytest.raises(ValueError) as err:
        VerifiedDecode()(adversarial)
    msg = str(err.value)
    ids = adversarial.column("image_id").to_pylist()
    assert "failed on 5 row(s)" in msg  # rows 0-3 and 8
    for i, check in [(0, "decode"), (1, "decode"), (2, "decode")]:
        assert f"{ids[i]} ({check})" in msg
    assert ids[3] not in msg  # only the first 3 are named
    ok = adversarial.slice(10, 20)
    assert VerifiedDecode()(ok).equals(DecodeVerify()(ok))


def _write_sides(d, tp, ts):
    for side, t in (("primary", tp), ("secondary", ts)):
        os.makedirs(d / side)
        for f in range(2):
            pq.write_table(t.slice(f * 60, 60), d / side / f"part-{f}.parquet")
    return str(d / "primary"), str(d / "secondary")


def test_conflate_parquet_refuses_a_mismatched_image(ray_session, tmp_path):
    """A wrong ``w`` in one row's metadata fails the fused read+decode
    with that row's id; the same input, valid, conflates to the
    decisions of the run that does not decode."""
    from osm_merge_ray.pipelines.conflation import conflate_parquet

    cfg = ConflationConfig(num_buckets=8)
    tp = synth_table(120, "primary", with_bytes=True)
    ts = synth_table(120, "secondary", with_bytes=True)
    cols = ["image_id", "matched_id", "decision", "hits"]
    p, s = _write_sides(tmp_path / "ok", tp, ts)
    got = conflate_parquet(p, s, cfg, decode_images=True).to_pandas()
    want = conflate_parquet(p, s, cfg, decode_images=False).to_pandas()
    assert len(got) == 120
    assert (got[cols].sort_values("image_id").reset_index(drop=True)
            .equals(want[cols].sort_values("image_id").reset_index(drop=True)))

    bad = _set(ts, 70, w=ts.column("w")[70].as_py() + 1)
    p, s = _write_sides(tmp_path / "bad", tp, bad)
    with pytest.raises(Exception) as err:
        conflate_parquet(p, s, cfg, decode_images=True).materialize()
    assert f"{bad.column('image_id')[70].as_py()} (dims)" in str(err.value)
