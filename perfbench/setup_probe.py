"""Set-up probe: import, build the workload's first point, and stop at
its first simulated event.

Run as ``python3 perfbench/setup_probe.py <workload>``.  Prints
``ready <scale> <handler_s>`` the moment the first event is about to
run, then exits; the parent times interpreter start to that line.
The probe samples the host from its first line of code on
(``speed.py``); ``scale`` converts its wall time to reference speed,
and ``handler_s`` is the sampler's own time, to be taken off.  The
first event is the sharded engine's first coordinator round
(``compute_grants`` runs once every shard's world is built) or, on
the flat-LAN ``Testbed`` path, the first ``Simulator.run_until``.
Shard workers are stopped and reaped before the run unwinds.
"""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from speed import Samples, sampled  # noqa: E402

#: A probe lasts a few tenths of a second, so it samples more often
#: than a point does.
EVERY_S = 0.005
SAMPLES = Samples()


class FirstEvent(Exception):
    """Raised at the first simulated event to unwind the run."""


def _stop(*_args, **_kwargs):
    SAMPLES.finish()
    print(f"ready {SAMPLES.wall_scale!r} {SAMPLES.wall!r}", flush=True)
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    raise FirstEvent


def main(workload: str) -> int:
    global SAMPLES
    with sampled(EVERY_S) as SAMPLES:
        return probe(workload)


def probe(workload: str) -> int:
    import repro.engine.sharded as sharded
    import repro.engine.simulator as simulator
    sharded.compute_grants = _stop
    simulator.Simulator.run_until = _stop

    from points import PINNED_SEEDS, WORKLOADS
    point = WORKLOADS[workload].points[0]
    try:
        point.run(PINNED_SEEDS[0])
    except FirstEvent:
        return 0
    print("no simulated event", flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
