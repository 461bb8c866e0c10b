"""Every config of the operator grid against its committed result digest.

``tests/data/golden_digests.json`` holds, per config of
``reference.golden_configs``, the sha256 of the run's result files outside
``latency`` keys plus its action log, or the status and error of a run that
aborts. A change that keeps results byte-identical changes none of them; one
that alters results on purpose regenerates the file with
``tests/data/regenerate_golden_digests.py``.

The digests hold the float64 bits of the CPU kernel numpy's bundled
OpenBLAS picks, SkylakeX where they were made: under another kernel
(``OPENBLAS_CORETYPE=Haswell`` or ``Zen``) dot products sum in another order
and about a third of the configs change. A failure names the kernel.
"""

import ctypes
import json
from pathlib import Path

import numpy as np

from reference import golden_configs, golden_digests

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, or "unknown"."""
    numpy_dir = Path(np.__file__).resolve().parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                       *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def test_every_grid_config_matches_its_golden_digest():
    want = json.loads(GOLDEN.read_text())
    assert sorted(want) == sorted(golden_configs())
    got = golden_digests()
    changed = sorted(key for key in want if got[key] != want[key])
    assert changed == [], (f"{len(changed)} of {len(want)} configs changed under OpenBLAS "
                           f"core {openblas_core()}: {changed[:10]}")
