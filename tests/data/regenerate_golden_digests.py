#!/usr/bin/env python3
"""Rewrite ``golden_digests.json`` beside this file from the program as it is.

    python3 tests/data/regenerate_golden_digests.py

Run from anywhere; it imports memstream from the checkout's ``src``. A change
that alters results on purpose runs this and names each changed config.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from reference import golden_digests  # noqa: E402

GOLDEN = HERE / "golden_digests.json"


def main():
    digests = golden_digests()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    aborted = sum(1 for entry in digests.values() if entry["status"] != "complete")
    print(f"{GOLDEN.name}: {len(digests)} configs, {aborted} aborted")


if __name__ == "__main__":
    main()
