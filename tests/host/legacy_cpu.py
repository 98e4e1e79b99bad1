"""The pre-continue-in-place slice end: the oracle for the CPU
differential tests.

:meth:`Cpu._on_slice_end <repro.host.cpu.Cpu._on_slice_end>` now
starts a process's next slice directly when nothing could take the
core from it.  :class:`LegacyCpu` keeps the previous slice end
verbatim — every still-runnable process goes back to the front of its
run queue and the full ``_dispatch`` scan picks again — as the
specification the fast path is property-tested against
(``test_cpu_differential.py``); the simulator never uses it.
"""

from __future__ import annotations

from repro.host.cpu import Cpu
from repro.host.interrupts import HARDWARE, PROCESS, SOFTWARE


class LegacyCpu(Cpu):
    """A :class:`Cpu` whose slice end always requeues and redispatches."""

    def _on_slice_end(self) -> None:
        ctx = self._current
        self._slice_event = None
        self._account_elapsed(self._slice_len)
        self._current = None
        # Guard against reentrant dispatch while ctx.begin() runs
        # instantaneous side effects (wakeups, interrupt posts, ...).
        outer = self._dispatching
        self._dispatching = True
        try:
            if ctx.work_class == PROCESS and ctx.stint >= self.quantum:
                # Quantum expired: round-robin to the tail of the run
                # queue if it still wants the CPU.
                ctx.stint = 0.0
                duration = ctx.begin()
                if duration is None:
                    self._retire(ctx)
                else:
                    self.process_source.quantum_expired(ctx)
            else:
                duration = ctx.begin()
                if duration is None:
                    self._retire(ctx)
                elif ctx.work_class == HARDWARE:
                    self._hw.appendleft(ctx)
                elif ctx.work_class == SOFTWARE:
                    self._sw.appendleft(ctx)
                else:
                    self.process_source.requeue_front(ctx)
        finally:
            self._dispatching = outer
        self._dispatch()


# Trace records name each fired callback by its __qualname__, so the
# oracle's slice ends must carry the production name for the two
# trace digests to be comparable.
LegacyCpu._on_slice_end.__qualname__ = Cpu._on_slice_end.__qualname__


def use_legacy_cpus(kernel) -> None:
    """Switch every core of a freshly built *kernel* to the oracle.

    Call before anything is spawned or posted: a slice already
    scheduled keeps the slice end it was scheduled with.
    """
    for cpu in kernel.cpus:
        cpu.__class__ = LegacyCpu
