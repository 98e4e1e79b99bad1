"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload udp-blast-7arch --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics of timed passes;
``--trace 1`` prints the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("udp-blast-7arch", "http-synflood", "sharded-udp")

#: Metric units, for the human-readable table and the JSON line.
END_TO_END_UNITS = {"wall_s": "s", "supervised_wall_s": "s",
                    "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "point_wall_max_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_pkt", "_ratio", "trace_overhead")):
        return "ratio"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS[args.workload]
    sim_seed = harness.simulation_seed(args.seed)
    checker = harness.Checker(harness.load_pins()[str(sim_seed)], sim_seed)
    if args.trace:
        values = harness.traced_run(workload, args.seed, checker)
        units = {name: layer_unit(name) for name in values}
    else:
        values = harness.timed_run(workload, args.seed, args.seconds,
                                   checker)
        runs = values.pop("point_runs")
        units = END_TO_END_UNITS
        print(f"{args.workload}: {runs} timed point runs, simulation "
              f"seed {sim_seed}")
    share = checker.failed / max(checker.attempted, 1)
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'failed_points_share':28s} {share:14.6g} 1 "
          f"({checker.failed} of {checker.attempted})")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
