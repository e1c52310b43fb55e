"""Line-feature conflation (J1-J4 decision table) and the POI cascade
join (J5) on synthetic vector fixtures mirroring FIXTURES.md F2/F3."""

import json

import numpy as np
import pytest

import ray.data as rd

from osm_merge_ray.config import ConflationConfig
from osm_merge_ray.sources.geojson import features_to_table
from osm_merge_ray.stages.lines import conflate_lines, score_tags
from osm_merge_ray.stages.poi import conflate_pois

CFG = ConflationConfig(cell_res=12, num_buckets=8)


def _line(lon, lat, n=5, step=0.0001, bearing=0.0):
    pts = []
    for k in range(n):
        pts.append([lon + k * step * np.cos(bearing), lat + k * step * np.sin(bearing)])
    return pts


@pytest.fixture(scope="module")
def line_sets(ray_session):
    """40 primary MVUM-style lines; secondaries per i%4:
    0: same geometry + same name+ref  → merged (hits>=2), identical geom
    1: offset 3 m, fuzzed name + ref  → merged with hits>=2
    2: offset 5 m, unrelated name, parallel (same bearing) → candidate
       gates reject or the reference's parallel-road drop
       (conflator.py:217-222 routes these to newdata; engine labels
       them decision="parallel")
    3: no secondary                   → new
    """
    rng = np.random.default_rng(9)
    prim, sec = [], []
    for i in range(40):
        lon = -106.0 + rng.uniform(0, 0.4)
        lat = 39.0 + rng.uniform(0, 0.4)
        bearing = rng.uniform(0, np.pi)
        coords = _line(lon, lat, bearing=bearing)
        name = f"Forest Road {i} Creek Road"
        prim.append({"geometry": {"type": "LineString", "coordinates": coords},
                     "properties": {"name": name, "ref:usfs": f"FR {100+i}.1",
                                    "highway": "unclassified", "surface": "dirt"}})
        off = 3.0 / 111194.9
        if i % 4 == 0:
            sec.append({"geometry": {"type": "LineString", "coordinates": coords},
                        "properties": {"name": name, "ref:usfs": f"FR {100+i}.1",
                                       "highway": "track", "version": 3}})
        elif i % 4 == 1:
            coords2 = [[x, y + off] for x, y in coords]
            sec.append({"geometry": {"type": "LineString", "coordinates": coords2},
                        "properties": {"name": name.replace("Creek", "Crxek"),
                                       "ref:usfs": f"FR {100+i}.1",
                                       "highway": "track"}})
        elif i % 4 == 2:
            coords3 = [[x, y + 5.0 / 111194.9] for x, y in coords]
            # alternate: same name (→ the parallel-road drop) vs
            # unrelated name (→ the hits==0 nearest-distance fallback,
            # conflator.py:292-298)
            nm = name if i % 8 == 2 else "Totally Different Street"
            sec.append({"geometry": {"type": "LineString", "coordinates": coords3},
                        "properties": {"name": nm, "highway": "residential"}})
    return features_to_table(prim), features_to_table(sec, start_id=5000)


def test_line_conflation_decision_table(line_sets):
    tp, ts = line_sets
    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts), CFG).to_pandas()
    assert len(out) == 40
    out = out.sort_values("feature_id").reset_index(drop=True)
    cat = out["feature_id"] % 4
    # identical geometry + name + ref → merged (2 hits beats the
    # parallel-road exit)
    assert (out.loc[cat == 0, "decision"] == "merged").all()
    assert (out.loc[cat == 0, "hits"] >= 2).all()
    assert (out.loc[cat == 0, "dist_m"] == 0.0).all()
    # fuzzed name + ref → merged with hits >= 2
    assert (out.loc[cat == 1, "decision"] == "merged").all()
    assert (out.loc[cat == 1, "hits"] >= 2).all()
    # same-name parallel road → the reference's parallel-road drop
    par = out.loc[out["feature_id"] % 8 == 2]
    assert (par["decision"] == "parallel").all()
    # unrelated-name nearby road → hits==0 nearest-distance fallback
    fb = out.loc[(cat == 2) & (out["feature_id"] % 8 != 2)]
    assert (fb["decision"] == "merged").all()
    assert (fb["hits"] == 0).all()
    # no secondary → new with informal=yes (conflator.py:318-325)
    assert (out.loc[cat == 3, "decision"] == "new").all()
    props = json.loads(out.loc[out.index[cat == 3][0], "merged_json"])
    assert props["informal"] == "yes" and "fixme" in props


def test_line_merge_semantics(line_sets):
    tp, ts = line_sets
    out = conflate_lines(rd.from_arrow(tp), rd.from_arrow(ts), CFG).to_pandas()
    row = out[out["feature_id"] % 4 == 1].iloc[0]
    merged = json.loads(row["merged_json"])
    # primary values win; displaced OSM name preserved as old_name
    assert merged["name"].endswith("Creek Road")
    assert merged["old_name"].endswith("Crxek Road")
    # highway kept from the OSM side (conflator.py:579-582)
    assert merged["highway"] == "track"
    # version bumped (+1 semantics pinned; writer does NOT bump again
    # when bump_version=False is used on conflated rows)
    assert row["version"] >= 2


def test_score_tags_rules():
    cfg = ConflationConfig()
    hits, merged = score_tags(
        {"name": "Badger Maple Loop Road", "ref:usfs": "FR 505.1A"},
        {"name": "Badgxr Maple Loop Road", "ref:usfs": "FS 505.1A", "highway": "track"},
        cfg,
    )
    # reference semantics (conflator.py:596-629): name fuzzy hit (+1),
    # ref fuzzy hit (+1) AND its second-token match (+1) = 3
    assert hits == 3
    assert merged["highway"] == "track"
    assert merged["old_name"] == "Badgxr Maple Loop Road"
    # FS-prefix no-cache rule (conflator.py:620-622): FR vs FS ratio
    # ~88.9 is in (80, 90) and the OSM ref starts "FS " → no old_ kept
    assert "old_ref:usfs" not in merged
    assert merged["ref:usfs"] == "FR 505.1A"
    hits2, _ = score_tags({"name": "Alpha"}, {"name": "Omega Something"}, cfg)
    assert hits2 == 0
    # a non-"FS "-prefixed displaced ref IS cached (rule is FS-specific)
    hits3, m3 = score_tags({"ref:usfs": "FR 505.1A"},
                           {"ref:usfs": "FRX 505.1A"}, cfg)
    assert hits3 == 2  # fuzzy hit + second-token hit
    assert m3["old_ref:usfs"] == "FRX 505.1A"
    assert m3["ref:usfs"] == "FR 505.1A"


@pytest.fixture(scope="module")
def poi_sets(ray_session):
    rng = np.random.default_rng(11)
    pois, osm = [], []
    for i in range(30):
        lon = -106.0 + rng.uniform(0, 0.3)
        lat = 39.0 + rng.uniform(0, 0.3)
        pois.append({"geometry": {"type": "Point", "coordinates": [lon, lat]},
                     "properties": {"amenity": "bench", "name": f"Bench {i}"}})
        off = 2.0 / 111194.9
        if i % 3 == 0:  # matching OSM node with amenity
            osm.append({"geometry": {"type": "Point", "coordinates": [lon + off, lat]},
                        "properties": {"amenity": "bench", "name": f"Bench {i}"}})
        elif i % 3 == 1:  # only a nearby way (building) → way fallback
            w = 0.00005
            ring = [[lon - w, lat - w], [lon + w, lat - w], [lon + w, lat + w],
                    [lon - w, lat + w]]
            osm.append({"geometry": {"type": "Polygon", "coordinates": ring},
                        "properties": {"building": "yes"}})
    return features_to_table(pois), features_to_table(osm, start_id=9000)


def test_poi_cascade(poi_sets):
    tp, ts = poi_sets
    out = conflate_pois(rd.from_arrow(tp), rd.from_arrow(ts),
                        ConflationConfig(cell_res=15, num_buckets=8),
                        tolerance_m=10.0).to_pandas()
    assert len(out) == 30
    out = out.sort_values("feature_id").reset_index(drop=True)
    cat = out["feature_id"] % 3
    matched_nodes = out.loc[cat == 0]
    assert (matched_nodes["matched_id"] >= 9000).all()
    assert (matched_nodes["hits"] >= 1).all()
    assert (matched_nodes["decision"] == "merged").all()
    ways = out.loc[cat == 1]
    assert (ways["matched_id"] >= 9000).all()   # way fallback fired
    assert (out.loc[cat == 2, "decision"] == "new").all()
    m = json.loads(matched_nodes.iloc[0]["merged_json"])
    assert m["amenity"] == "bench"


def test_poi_id_direct_lookup(ray_session):
    """J5 positive-id path (conflatePOI.py:417 queryById intent): a POI
    carrying a positive `id` matches that OSM object directly — no
    spatial search; a dangling id emits 'new' with a fixme. On both the
    direct and the spatial path the POI's tag values win and a displaced
    OSM value is kept as `old_<key>` (conflatePOI.py:231-233)."""
    import json as J

    osm = [{"geometry": {"type": "Point", "coordinates": [-105.5, 39.5]},
            "properties": {"amenity": "cafe", "name": "Moose Cafe",
                           "phone": "555-0000"}},
           {"geometry": {"type": "Point", "coordinates": [-105.6, 39.6]},
            "properties": {"amenity": "shop", "name": "Trail Store",
                           "opening_hours": "24/7"}}]
    # OSM ids come from features_to_table start ids
    pois = [
        # direct id match, FAR from the object (id wins over distance)
        {"geometry": {"type": "Point", "coordinates": [-104.0, 38.0]},
         "properties": {"id": "5000", "amenity": "cafe", "name": "Moose Cafe",
                        "phone": "555-0101"}},
        # dangling id
        {"geometry": {"type": "Point", "coordinates": [-104.1, 38.1]},
         "properties": {"id": "99999", "name": "Ghost"}},
        # no id → spatial path, near OSM feature 5001
        {"geometry": {"type": "Point", "coordinates": [-105.6, 39.60001]},
         "properties": {"amenity": "shop", "name": "Trail Store",
                        "opening_hours": "Mo-Fr"}},
    ]
    tp = features_to_table(pois, start_id=1)
    ts = features_to_table(osm, start_id=5000)
    out = conflate_pois(rd.from_arrow(tp), rd.from_arrow(ts),
                        ConflationConfig(cell_res=14, num_buckets=8),
                        tolerance_m=10.0).to_pandas()
    out = out.set_index("feature_id")
    assert out.loc[1, "matched_id"] == 5000
    assert out.loc[1, "decision"] == "merged"
    assert out.loc[1, "hits"] >= 2  # amenity + name exact
    assert out.loc[2, "matched_id"] == -1
    assert out.loc[2, "decision"] == "new"
    assert "fixme" in J.loads(out.loc[2, "merged_json"])
    assert out.loc[3, "matched_id"] == 5001
    assert out.loc[3, "decision"] == "merged"
    direct = J.loads(out.loc[1, "merged_json"])
    assert direct["phone"] == "555-0101"
    assert direct["old_phone"] == "555-0000"
    assert direct["name"] == "Moose Cafe" and "old_name" not in direct
    spatial = J.loads(out.loc[3, "merged_json"])
    assert spatial["opening_hours"] == "Mo-Fr"
    assert spatial["old_opening_hours"] == "24/7"
    assert spatial["amenity"] == "shop" and "old_amenity" not in spatial
