"""Per-layer measurement from outside the program.

A layer is a ``repro.<package>``.  Host time is split by grouping a
``cProfile`` run's self time by the package of the function that ran;
time in builtins and the standard library is charged to the ``repro``
layer that called them.  Work counters are read from the public
attributes of the simulators a point created, which
:func:`capture_simulators` collects by wrapping
``Simulator.__init__`` for the duration of a block.
"""

from __future__ import annotations

import contextlib
import pstats
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.simulator import Simulator

SRC = Path(__file__).resolve().parent.parent / "src"
HERE = Path(__file__).resolve().parent

#: Layers on the measured path, in the order they are reported.
MEASURED = ("engine", "host", "mem", "net", "nic", "core", "proto",
            "sockets", "apps", "workloads", "experiments")
#: Packages off the measured path: no fault plan is set, tracing is
#: disabled, points are called directly and this harness replaces the
#: bench package.  ``root`` is ``repro/__init__.py``.
OFF_PATH = ("faults", "trace", "runner", "stats", "bench", "root")
LAYERS = MEASURED + OFF_PATH
#: Charged with the harness's own functions, and with builtin or
#: standard-library time that no ``repro`` function called.
HARNESS = "harness"


def module_layer(module: str) -> Optional[str]:
    """Layer of a dotted module name; ``None`` outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "root"
    return parts[1] if parts[1] in LAYERS else None


def file_layer(filename: str) -> Optional[str]:
    """Layer of a source file: a ``repro`` layer, :data:`HARNESS` for
    this directory, ``None`` for builtins and the standard library."""
    if filename.startswith(("<", "~")):
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(HERE):
        return HARNESS
    if not path.is_relative_to(SRC):
        return None
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    return module_layer(module.removesuffix(".__init__"))


# ----------------------------------------------------------------------
# Self time by layer
# ----------------------------------------------------------------------
def split_profile(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` from profile stats.

    A builtin or standard-library function's self time is divided
    among its callers in proportion to the time it spent under each,
    recursively until a ``repro`` or harness caller owns it.
    """
    table = stats.stats
    owners: Dict[Tuple, Optional[str]] = {
        func: file_layer(func[0]) for func in table}
    shares: Dict[Tuple, Dict[str, float]] = {}

    def share_of(func, active) -> Dict[str, float]:
        layer = owners.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = table[func][4] if func in table else {}
        weights = {c: v[2] for c, v in callers.items() if c not in active}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: float(v[1]) for c, v in callers.items()
                       if c not in active}
            total = sum(weights.values())
        if total <= 0.0:
            result = {HARNESS: 1.0}
        else:
            result = {}
            for caller, weight in weights.items():
                for layer, frac in share_of(caller,
                                            active | {func}).items():
                    result[layer] = (result.get(layer, 0.0)
                                     + frac * weight / total)
        if not active:
            shares[func] = result
        return result

    split = {layer: {"self_s": 0.0, "calls": 0}
             for layer in LAYERS + (HARNESS,)}
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        layer = owners[func]
        if layer is not None:
            split[layer]["calls"] += nc
        for owner, frac in share_of(func, frozenset()).items():
            split[owner]["self_s"] += tt * frac
    return split


def calls_between(stats: pstats.Stats, callee_layer: str, name: str,
                  caller_layer: str) -> int:
    """Calls of functions called *name* in *callee_layer* made from
    functions in *caller_layer*."""
    count = 0
    for func, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if func[2] != name and not func[2].endswith("." + name):
            continue
        if file_layer(func[0]) != callee_layer:
            continue
        for caller, value in callers.items():
            if file_layer(caller[0]) == caller_layer:
                count += value[1]
    return count


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
@contextlib.contextmanager
def capture_simulators() -> Iterator[List[Simulator]]:
    """Collect every :class:`Simulator` constructed in this process
    inside the block."""
    created: List[Simulator] = []
    original = Simulator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    Simulator.__init__ = init
    try:
        yield created
    finally:
        Simulator.__init__ = original


COUNTERS = ("engine.events", "host.slices", "host.preemptions",
            "host.ticks", "nic.rx_frames", "nic.poll_rounds",
            "nic.empty_polls", "nic.agent_interrupts",
            "mem.allocations", "mem.peak_in_use",
            "net.frames_delivered", "net.switch_serviced",
            "proto.tcp_segs_in", "proto.tcp_established",
            "engine.sync_rounds", "engine.grants", "engine.frames",
            "engine.wire_bytes", "engine.serialization_s",
            "engine.checkpoints")


def read_counters(sims: List[Simulator]) -> Dict[str, int]:
    """Work counters summed over *sims* and their hosts and fabrics
    (``mem.peak_in_use`` is the largest pool peak).  The sharded
    engine's counters read 0 here; sharded points report them."""
    out = dict.fromkeys(COUNTERS, 0)
    fabrics: Dict[int, Any] = {}
    for sim in sims:
        out["engine.events"] += sim.events_processed
        for host in sim.hosts.values():
            kernel, nic, stack = host.kernel, host.nic, host.stack
            out["host.slices"] += sum(cpu.slices for cpu in kernel.cpus)
            out["host.preemptions"] += sum(cpu.preemptions
                                           for cpu in kernel.cpus)
            out["host.ticks"] += kernel.ticks
            out["nic.rx_frames"] += nic.rx_frames
            out["nic.poll_rounds"] += getattr(nic, "poll_rounds", 0)
            out["nic.empty_polls"] += getattr(nic, "empty_polls", 0)
            out["nic.agent_interrupts"] += getattr(nic, "host_interrupts",
                                                   0)
            out["mem.allocations"] += stack.mbufs.allocations
            out["mem.peak_in_use"] = max(out["mem.peak_in_use"],
                                         stack.mbufs.peak_in_use)
            out["proto.tcp_segs_in"] += stack.stats.get("tcp_segs_in")
            out["proto.tcp_established"] += stack.stats.get(
                "tcp_established")
            fabrics[id(nic.network)] = nic.network
    for fabric in fabrics.values():
        out["net.frames_delivered"] += fabric.frames_delivered
        for switch in getattr(fabric, "switches", {}).values():
            out["net.switch_serviced"] += sum(
                port.serviced for port in switch.ports.values())
    return out


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        if key == "mem.peak_in_use":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
