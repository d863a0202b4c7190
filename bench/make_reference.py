"""Regenerate bench/reference.json from the current sources.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the library's output: every
benchmark run compares its items against this file.
"""

import json
import random

from run import REFERENCE, WORKLOADS, run_rep


def main():
    ref = {}
    for name, wl in sorted(WORKLOADS.items()):
        rep = run_rep(wl, random.Random(0))
        if any(v is None for v in rep.outputs.values()):
            raise SystemExit(f"{name}: an item failed; no reference written")
        ref[name] = dict(sorted(rep.outputs.items()))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
