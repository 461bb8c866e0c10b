"""Every config of the operator grid against its committed result digest.

``tests/data/golden_digests.json`` holds, per config of
``reference.golden_configs``, the sha256 of the run's result files outside
``latency`` keys plus its action log, or the status and error of a run that
aborts. A change that keeps results byte-identical changes none of them; one
that alters results on purpose regenerates the file with
``tests/data/regenerate_golden_digests.py``.
"""

import json
from pathlib import Path

from reference import golden_configs, golden_digests

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def test_every_grid_config_matches_its_golden_digest():
    want = json.loads(GOLDEN.read_text())
    assert sorted(want) == sorted(golden_configs())
    got = golden_digests()
    changed = sorted(key for key in want if got[key] != want[key])
    assert changed == [], f"{len(changed)} of {len(want)} configs changed: {changed[:10]}"
