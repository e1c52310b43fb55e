"""Driver contract for the osm_merge_ray engine.

The driver initialises Ray BEFORE importing this module; nothing here
(or in the library) calls ``ray.init``/``ray.shutdown``.

* ``entry()`` — flagship conflation pipeline (synthetic image+caption
  tables per BASELINE.json input_hint; sf0.001-scale) → decision rows.
* ``queries()`` — one callable per implemented operator family
  (SURVEY.md §2 + the training-data operators), each ``(sf_dir) →``
  Dataset / DataFrame / Table.
* ``oracle_sql()`` — DuckDB-equivalent SQL for EVERY query (zero
  rows-only): float-boundary semantics are made
  SQL-mirrorable by integer quantization / poly41 hashing / round-6
  similarities, and the multimodal stand-ins by parametric twins.
  Content-dependent float internals additionally carry brute-force
  pytest oracles (tests/test_conflation.py: O(N*M) oracle).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)
# Ray actor workers must be able to import the package regardless of the
# driver's cwd; PYTHONPATH propagates to workers spawned after init too.
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


def entry() -> Any:
    """Flagship: synthesize primary/secondary image tables distributed,
    decode+verify payloads (actor pool), conflate via the cell shuffle,
    assign tiles. Returns the decision Dataset."""
    from osm_merge_ray.config import ConflationConfig
    from osm_merge_ray.pipelines.conflation import flagship

    return flagship(n_per_side=1000, cfg=ConflationConfig(num_buckets=32))


def queries() -> dict[str, Callable[[str], Any]]:
    from osm_merge_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from osm_merge_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
