"""Host-speed samples taken while a point runs.

The benchmark's host is a virtual machine on a shared machine.  Its
speed swings by up to 45% over seconds to minutes while the code
stays the same, and a point of one to three seconds runs through many
of those swings.  No statistic over whole points takes that out.

So while a point runs, a ``SIGALRM`` handler runs a fixed reference
loop every ``EVERY_S`` seconds and records the CPU time the loop took.
The loop is this module's own code, so a change to the simulator
does not change it.  ``scale`` is ``REFERENCE_S`` over the mean
sample: above 1 when the host ran the loop faster than the reference
speed, below 1 when slower.  A point's CPU time at reference speed is
its measured CPU time, less the handler's, times ``scale``.

The hypervisor also takes whole CPUs away from the machine at times
(``steal`` in ``/proc/stat``).  That stretches wall time but not CPU
time, and most of all on ``sharded-udp``, whose processes want both
CPUs.  ``stolen`` is the share of the CPU time the machine wanted
during the block that was taken away; a point's wall time at
reference speed is its measured wall time, less the handler's, times
``scale`` and ``1 - stolen``.

The handler runs in the main thread between bytecodes and reads and
writes only this module's objects, so it cannot change a simulated
result (every point's results are checked on every run).  It
allocates a few objects per sample, against the millions a simulated
second allocates.  Timers set with ``setitimer`` are not inherited
across ``fork``, so shard workers are not sampled.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

#: Seconds between samples.
EVERY_S = 0.02
#: Iterations of the reference loop in one sample.
LOOP = 800
#: CPU seconds of one sample at reference speed: the fastest the loop
#: runs on the 2-vCPU virtual machine (Python 3.11) the benchmark was
#: tuned on.  Any fixed value serves; it sets only the unit.
REFERENCE_S = 2.5e-4

_TABLE = list(range(256))
_SLOTS = dict.fromkeys(range(256), 0)


class _Walker:
    __slots__ = ("at",)

    def __init__(self) -> None:
        self.at = 0

    def step(self, k: int) -> int:
        self.at = (self.at + k) & 255
        return self.at


_WALKER = _Walker()


def reference() -> int:
    """A fixed mix of the interpreter work a simulation does: integer
    arithmetic, list and dict indexing, attribute access and method
    calls."""
    table, slots, walker = _TABLE, _SLOTS, _WALKER
    acc = 0
    for i in range(LOOP):
        k = table[(i * 7 + acc) & 255]
        acc = (acc + slots[k] + walker.step(k)) & 255
        slots[k] = acc
    return acc


def cpu_ticks() -> Tuple[int, int]:
    """The machine's busy and stolen CPU ticks so far, over all its
    CPUs, from ``/proc/stat``; zeros where there is none."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


@dataclass
class Samples:
    """The samples taken during one block."""

    cpu: List[float] = field(default_factory=list)
    #: Host seconds the handler took, to be taken off the block's time.
    wall: float = 0.0
    #: CPU seconds the handler took.
    cpu_total: float = 0.0
    #: Share of the CPU time the machine's processes wanted that the
    #: hypervisor gave to other guests (``finish`` sets it).
    stolen: float = 0.0
    start: Tuple[int, int] = field(default_factory=cpu_ticks)

    @property
    def scale(self) -> float:
        """CPU time at this host speed to CPU time at reference
        speed."""
        if not self.cpu:
            return 1.0
        return REFERENCE_S * len(self.cpu) / sum(self.cpu)

    @property
    def wall_scale(self) -> float:
        """Host time to host time at reference speed, with no CPU
        stolen."""
        return self.scale * (1.0 - self.stolen)

    def finish(self) -> None:
        busy, steal = (b - a for a, b in zip(self.start, cpu_ticks()))
        self.stolen = steal / (busy + steal) if steal > 0 else 0.0


@contextlib.contextmanager
def sampled(every: float = EVERY_S) -> Iterator[Samples]:
    """Sample the host's speed every *every* seconds until the block
    ends."""
    samples = Samples()

    def handler(signum, frame):
        w0 = time.perf_counter()
        c0 = time.thread_time()
        reference()
        cpu = time.thread_time() - c0
        samples.cpu.append(cpu)
        samples.cpu_total += cpu
        samples.wall += time.perf_counter() - w0

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, every, every)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.finish()
