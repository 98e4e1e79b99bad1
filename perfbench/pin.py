"""Regenerate ``pinned.json``: every pinned point's results for the
default and the held-out simulation seed.

Usage (from the repository root)::

    python3 perfbench/pin.py

Pins are taken from the one-shard runs; the sharded points pin to the
same entries, which is the shard-count parity the benchmark checks.
Regenerate only when a change is meant to alter simulated behaviour,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from points import PINNED_SEEDS, WORKLOADS  # noqa: E402


#: The one-shard workloads; every other point pins to their entries.
PINNED_FROM = ("udp-blast-7arch", "http-synflood")


def main() -> int:
    pinned = {"seeds": {}}
    for seed in PINNED_SEEDS:
        ledgers = {}
        for name in PINNED_FROM:
            for point in WORKLOADS[name].points:
                ledgers[point.pin], _info = point.run(seed)
                print(f"seed {seed}: {point.pin}", file=sys.stderr)
        pinned["seeds"][str(seed)] = ledgers
    with open(HERE / "pinned.json", "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
