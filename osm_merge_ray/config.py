"""Engine configuration.

All thresholds the reference hard-codes become one dataclass here:
distance 7 m lib-default / 2.0 CLI (``conflator.py:89``, ``:1072``),
POI radius 10 m (``conflatePOI.py:101``), fuzz ratio 85 with length
difference <= 3 (``conflator.py:596-598``), POI fuzz 80
(``conflatePOI.py:222``), angle 20 deg / slope 4 rejection and the
candidate cap of 5 (``conflator.py:206-216``, ``:262-267``), accept
threshold hits >= 2 (``conflator.py:286-291``), 50 km default tile grid
(``tm-splitter.py:225-226``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConflationConfig:
    # --- candidate generation -------------------------------------------------
    #: max centroid distance (meters) for a secondary row to be a candidate.
    distance_m: float = 7.0
    #: distance under which two features with matching tags are duplicates.
    dup_distance_m: float = 2.0
    #: candidate list cap per primary feature. The reference caps at 5 in scan
    #: order (conflator.py:262-267, nondeterministic); we keep the 5 *nearest*
    #: — a documented, deterministic divergence.
    max_candidates: int = 5

    # --- fuzzy tag / caption matching ----------------------------------------
    #: fuzz ratio (0-100) above which a caption/tag value counts as a hit
    #: (conflator.py:596).
    fuzz_threshold: float = 85.0
    #: max abs length difference for a fuzzy hit (conflator.py:597).
    len_diff_max: int = 3
    #: max hamming distance between perceptual hashes to count as the
    #: "geometry identical" hit (graft analog of conflator.py:229-234).
    phash_hamming_max: int = 6
    #: hits needed to accept the top candidate outright (conflator.py:286-291).
    min_hits_accept: int = 2

    # --- geometry gates (line features) --------------------------------------
    angle_max_deg: float = 20.0   # conflator.py:206-216
    slope_max: float = 4.0        # conflator.py:206-216

    # --- partitioning ---------------------------------------------------------
    #: grid resolution: cell edge = 360 / 2**res degrees. res=15 ~ 1.2 km at
    #: the equator — the H3 res-8-ish regime BASELINE.json asks for.
    cell_res: int = 15
    #: number of hash buckets the cell space is folded into for the shuffle.
    num_buckets: int = 64
    #: a cell whose row count exceeds this is refined to a finer grid
    #: resolution (+ salt backstop). Candidate generation is O(P*S)
    #: within a cell, so the per-cell pair budget is ~(hot_cell_rows/2)^2
    #: — 2000 keeps the worst cell at ~1M gated pairs (~0.1 s).
    hot_cell_rows: int = 2_000

    # --- tiling ---------------------------------------------------------------
    #: EPSG:3857 square tile edge in meters (tm-splitter.py:225-226 default).
    tile_meters: float = 50_000.0

    # --- execution ------------------------------------------------------------
    #: rows per map batch of the spine's light-row stages (prepare, tag,
    #: replicate); small read blocks are bundled up to it
    batch_size: int = 4096
