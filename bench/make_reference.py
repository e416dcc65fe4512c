"""Regenerate bench/reference.json, the pinned per-round output digests.

    python3 bench/make_reference.py

Run it only when a change alters the simulator's outputs on purpose, and
say in CHANGES.md why the outputs changed.
"""

from __future__ import annotations

import json
import os

from run import OUT_DIR, import_harness, play
from workloads import REFERENCE_PATH, WORKLOADS

# rounds pinned per workload: seeds 0-39
REFERENCE_SEEDS = 40


def main() -> None:
    harness = import_harness()
    os.makedirs(OUT_DIR, exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        workload.prepare(harness)
        digests, ok, wall = play(workload, range(REFERENCE_SEEDS))
        if not all(ok) or len(digests) != REFERENCE_SEEDS:
            raise SystemExit(f"{name}: a round failed its output checks")
        reference[name] = [digests[s] for s in range(REFERENCE_SEEDS)]
        print(f"{name}: {REFERENCE_SEEDS} rounds in {wall:.1f} s")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
