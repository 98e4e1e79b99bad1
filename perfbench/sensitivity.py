"""Sensitivity check: does a paired comparison catch a 10% slowdown?

Usage (from the repository root)::

    python3 perfbench/sensitivity.py

Wraps one public host function, ``repro.host.cpu.Cpu.post``, from
outside the program: once with a busy loop sized to add about
:data:`SLOWDOWN` to the ``udp-blast-7arch`` pass, once with a wrapper
that only forwards the call (the no-op change).  Each pair runs every
point of the workload four times back to back, plain (A) and wrapped
(B) in the order ABBA or BAAB, alternating which goes first, so both
sides see the same machine state.  A pair *flags* a slowdown when B's
summed wall time exceeds A's by more than :data:`FLAG`.  The check
passes when the delay is flagged in at least 9 of 10 pairs and the
no-op in at most 1.  Every pair is printed as a Markdown table row.

Points are timed at reference speed, as in the timed runs of
``run.py`` (``speed.py``).  The bounds in ``BENCHMARK.json`` (0.25)
are wider than 10%, so this paired procedure is the one that resolves
a 10% change.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Checker, load_pins  # noqa: E402
from points import PINNED_SEEDS, WORKLOADS  # noqa: E402
from repro.host.cpu import Cpu  # noqa: E402

WORKLOAD = "udp-blast-7arch"
PAIRS = 10
#: The delay's target share of a plain pass.
SLOWDOWN = 0.10
#: A pair flags a slowdown when B/A - 1 exceeds this.
FLAG = 0.05
#: Seeds the point order of every pair.
ORDER_SEED = 1


@contextlib.contextmanager
def patched_post(before):
    """Replace ``Cpu.post`` with a wrapper that calls *before* first."""
    original = Cpu.post

    def post(self, task):
        before()
        return original(self, task)

    Cpu.post = post
    try:
        yield
    finally:
        Cpu.post = original


def spin(iterations: int):
    """A busy loop of *iterations* interpreter steps; 0 gives a no-op.
    A loop, not a timed wait, so the delay scales with the machine's
    speed the way the simulator's own code does."""
    if not iterations:
        return lambda: None

    def before():
        for _ in range(iterations):
            pass
    return before


def calibrate(checker: Checker, slowdown: float) -> tuple:
    """Busy-loop length per call that adds *slowdown* to one pass.
    The loop's speed is probed before every point of the calibration
    pass, so both are measured in the same machine state."""
    calls = [0]

    def count():
        calls[0] += 1

    probe = 200_000
    step_times = []
    wall = 0.0
    with patched_post(count):
        for point in WORKLOADS[WORKLOAD].points:
            t0 = time.perf_counter()
            spin(probe)()
            t1 = time.perf_counter()
            step_times.append((t1 - t0) / probe)
            checker.run(point)
            # Host seconds, like the loop's steps, not reference ones.
            wall += time.perf_counter() - t1
    per_step = statistics.median(step_times)
    return round(slowdown * wall / calls[0] / per_step), calls[0], wall


def pair(checker: Checker, rng: random.Random, iterations: int,
         b_first: bool) -> tuple:
    """Each point runs four times back to back, plain (A) and wrapped
    (B) in the order ABBA or BAAB.  A drift in machine speed that is
    linear over the four runs cancels exactly; the order alternates
    from point to point."""
    order = list(WORKLOADS[WORKLOAD].points)
    rng.shuffle(order)
    wall_a = wall_b = 0.0
    for j, point in enumerate(order):
        for side in ("BAAB" if b_first ^ (j % 2 == 1) else "ABBA"):
            if side == "A":
                wall_a += checker.run(point)["wall"]
            else:
                with patched_post(spin(iterations)):
                    wall_b += checker.run(point)["wall"]
    return wall_a, wall_b


def main() -> int:
    seed = PINNED_SEEDS[0]
    checker = Checker(load_pins()[str(seed)], seed, sample=True)
    iterations, calls, wall = calibrate(checker, SLOWDOWN)
    print(f"Calibration: {calls} `Cpu.post` calls per pass, plain pass "
          f"{wall:.3f} s, busy loop of {iterations} steps per call "
          f"(target +{SLOWDOWN:.0%}); flag when B/A - 1 > {FLAG:.0%}.\n")
    print("| change | pair | first | A wall (s) | B wall (s) | B/A | flagged |")
    print("|---|---|---|---|---|---|---|")
    rng = random.Random(ORDER_SEED)
    verdicts = {}
    for change, steps in (("delay", iterations), ("no-op", 0)):
        flagged = []
        ratios = []
        for i in range(PAIRS):
            b_first = i % 2 == 1
            wall_a, wall_b = pair(checker, rng, steps, b_first)
            ratio = wall_b / wall_a
            ratios.append(ratio)
            flagged.append(ratio - 1.0 > FLAG)
            print(f"| {change} | {i + 1} | {'B' if b_first else 'A'} | "
                  f"{wall_a:.3f} | {wall_b:.3f} | {ratio:.4f} | "
                  f"{'yes' if flagged[-1] else 'no'} |", flush=True)
        verdicts[change] = (sum(flagged), statistics.median(ratios))
    need = -(-9 * PAIRS // 10)
    caught, delay_median = verdicts["delay"]
    false, noop_median = verdicts["no-op"]
    ok = caught >= need and PAIRS - false >= need
    print(f"\nDelay flagged in {caught} of {PAIRS} pairs (median "
          f"B/A {delay_median:.4f}); no-op passed in "
          f"{PAIRS - false} of {PAIRS} (median B/A "
          f"{noop_median:.4f}).  Points attempted {checker.attempted}, "
          f"failed {checker.failed}.  Check "
          f"{'PASSED' if ok and not checker.failed else 'FAILED'}.")
    return 0 if ok and not checker.failed else 1


if __name__ == "__main__":
    sys.exit(main())
