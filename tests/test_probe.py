"""tools/probe.py: the registry holds every scale probe, the document
generator reproduces the per-id texts BASELINE.md was measured on, and
the fast probes run (with their own invariant asserts) under the test
session."""

import importlib.util
import json
import os

import numpy as np
import pytest

from osm_merge_ray.util import splitmix64

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "probe.py")


def _load_probe():
    # kept out of sys.modules on purpose: cloudpickle then ships the
    # probes' functions to Ray workers by value (tools/ is not a package
    # the workers could import)
    spec = importlib.util.spec_from_file_location("scale_probe_tool", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


probe = _load_probe()

NAMES = ["pack_sequences", "incremental_dedup", "semdedup", "winnow",
         "curate_resume", "redact_pii", "bigram_lm", "quota_sample",
         "bpe_train", "table_profile", "grouped_distinct",
         "substring_decontaminate", "polygon_giants", "flagship_5x",
         "decode_verify"]


def test_registry_names(capsys):
    assert sorted(probe.PROBES) == sorted(NAMES)
    assert probe.main(["--list"]) == 0
    assert sorted(capsys.readouterr().out.split()) == sorted(NAMES)


def _doc_text_per_id(i, near_dups, pii):
    """The per-id loop the probes' vectorized generator replaced; BASELINE
    figures were measured on these exact texts."""
    src = i - 1 if near_dups and i % 100 == 1 else i
    rng = splitmix64(np.arange(12, dtype=np.uint64)
                     + np.uint64(src) * np.uint64(2654435761))
    s = " ".join(probe.WORDS[(rng % 500).astype(np.int64)])
    if pii:
        if i % 4 == 0:
            s += f" contact u{i}@example.com"
        if i % 8 == 1:
            s += f" call 303-555-{i % 10000:04d}"
        if i % 8 == 5:
            s += f" host 10.0.{i % 256}.{i % 254 + 1}"
    return s


@pytest.mark.parametrize("near_dups,pii", [(False, False), (True, False),
                                           (False, True)])
def test_doc_texts_equal_per_id_formula(near_dups, pii):
    ids = np.r_[0:300, 19_999_900:20_000_100].astype(np.int64)
    got = probe.doc_texts(ids, near_dups=near_dups, pii=pii)
    assert got == [_doc_text_per_id(int(i), near_dups, pii) for i in ids]


@pytest.mark.parametrize("name", ["pack_sequences", "quota_sample",
                                  "substring_decontaminate"])
def test_fast_probes_run(ray_session, name):
    rows = probe.run(name, 1000)
    assert rows
    for row in rows:
        assert row["probe"] == name
        assert row["n"] == 1000
        assert row["wall_s"] >= 0


def test_decode_verify_probe_runs_without_ray(capsys):
    import ray

    assert "decode_verify" in probe.IN_PROCESS
    started = ray.is_initialized()
    assert probe.main(["decode_verify", "--n", "12"]) == 0
    assert ray.is_initialized() == started
    row = json.loads(capsys.readouterr().out)
    assert row["probe"] == "decode_verify" and row["n"] == 12
    assert row["us_per_row"] > 0 and row["cpus"] == 1
