"""The benchmark's workloads: named lists of simulation points.

Every point is one call into an experiment's public entry point
(``figure3.run_point``, ``figure5.run_point``) or, for the sharded
workload, into ``ShardedEngine.run`` / ``run_supervised`` on the
figure-3 components.  A point returns its *ledger* — the simulated
results the benchmark pins — and the sharded engine's work counters
(sync rounds, frames, serialization time, checkpoints), which are
allowed to change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.core import Architecture
from repro.engine.checkpoint import CheckpointPolicy
from repro.engine.sharded import ShardedEngine
from repro.engine.supervisor import SupervisorPolicy
from repro.experiments import figure3, figure5

#: Figure 3's existing canonical benchmark rate (``figure3_point``).
RATE_PPS = 12_000
WARMUP_USEC = 300_000.0
WINDOW_USEC = 1_000_000.0
#: Figure 5's two SYN-flood rates: no flood, and a flood that leaves
#: 4.4BSD serving nothing.
SYN_RATES = (0, 10_000)
#: Checkpoint epochs per supervised run.
EPOCHS = 8

#: The default simulation seed and the held-out one; results are
#: pinned for both.
PINNED_SEEDS = (1, 2)

#: Figure 3's seven rows: the paper's four stacks on one core, the
#: modern stacks at their canonical core counts (one flow per core).
UDP_ROWS = ((Architecture.BSD, 1), (Architecture.NI_LRP, 1),
            (Architecture.SOFT_LRP, 1), (Architecture.EARLY_DEMUX, 1),
            (Architecture.RSS, 4), (Architecture.POLLING, 2),
            (Architecture.NIC_OS, 4))
SHARDED_ARCHES = (Architecture.BSD, Architecture.NI_LRP)
HTTP_ARCHES = (Architecture.BSD, Architecture.SOFT_LRP)

#: The figure-3 result keys that make up a point's ledger.  Event
#: counts and sync counters are work, not results, and stay out.
UDP_LEDGER_KEYS = ("offered_pps", "delivered_pps", "sent", "drop_ipq",
                   "drop_sockq", "drop_channel", "drop_early_sockq",
                   "drop_mbufs", "drop_nic_fifo", "drop_wire",
                   "cpu_idle", "core_usage")

Outcome = Tuple[Dict[str, Any], Dict[str, Any]]


@dataclass(frozen=True)
class Point:
    """One simulation job.  *timed* names the end-to-end bucket its
    wall time lands in (``plain`` or ``supervised``); *pin* names its
    entry in the pinned results."""

    name: str
    run: Callable[[int], Outcome]
    pin: str
    timed: str = "plain"


@dataclass(frozen=True)
class Workload:
    name: str
    points: Tuple[Point, ...]
    #: Points whose results the timed points must equal (shard-count
    #: parity); run once per benchmark run, outside the timed passes.
    references: Tuple[Point, ...] = field(default=())


def udp_ledger(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result[key] for key in UDP_LEDGER_KEYS}


def udp_point(arch: Architecture, cores: int, seed: int,
              warmup_usec: float = WARMUP_USEC,
              window_usec: float = WINDOW_USEC) -> Outcome:
    result = figure3.run_point(arch, RATE_PPS, warmup_usec=warmup_usec,
                               window_usec=window_usec, seed=seed,
                               cores=cores, flows=cores)
    return udp_ledger(result), {}


def http_point(arch: Architecture, syn_pps: int, seed: int,
               warmup_usec: float = 500_000.0,
               window_usec: float = WINDOW_USEC) -> Outcome:
    result = figure5.run_point(arch, syn_pps, warmup_usec=warmup_usec,
                               window_usec=window_usec, seed=seed)
    return dict(result), {}


def sharded_point(arch: Architecture, supervised: bool, seed: int,
                  warmup_usec: float = WARMUP_USEC,
                  window_usec: float = WINDOW_USEC) -> Outcome:
    """The figure-3 point on two shard worker processes; the ledger
    has exactly ``figure3.run_point``'s shape."""
    end = warmup_usec + window_usec
    engine = ShardedEngine(figure3.figure3_spec(),
                           figure3.figure3_components(arch, RATE_PPS,
                                                      warmup_usec),
                           shards=2, mode="process")
    if supervised:
        policy = SupervisorPolicy(
            checkpoint=CheckpointPolicy(epoch_usec=end / EPOCHS))
        run = engine.run_supervised(end, seed=seed, policy=policy)
    else:
        run = engine.run(end, seed=seed)
    server = run.collected["server"]
    conservation = run.total_conservation()
    ledger = {
        "offered_pps": RATE_PPS,
        "delivered_pps": server["delivered"] * 1e6 / window_usec,
        "sent": run.collected["client"],
        "drop_ipq": server["drop_ipq"],
        "drop_sockq": server["drop_sockq"],
        "drop_channel": server["drop_channel"],
        "drop_early_sockq": server["drop_early_sockq"],
        "drop_mbufs": server["drop_mbufs"],
        "drop_nic_fifo": server["drop_nic_fifo"],
        "drop_wire": conservation["drops_congestion"],
        "cpu_idle": server["cpu_idle"],
        "core_usage": server["core_usage"],
    }
    if supervised:
        return ledger, {"engine.checkpoints": run.checkpoints}
    return ledger, {"engine.sync_rounds": run.sync["rounds"],
                    "engine.grants": run.sync["grants_issued"],
                    "engine.frames": run.sync["frames"],
                    "engine.wire_bytes": run.sync["wire_bytes"],
                    "engine.serialization_s": run.serialization_sec}


def _udp_name(arch: Architecture, cores: int) -> str:
    return f"{arch.value}@{cores}c"


def _bind(fn, *args) -> Callable[[int], Outcome]:
    return lambda seed: fn(*args, seed)


def build_workloads() -> Dict[str, Workload]:
    udp = tuple(Point(_udp_name(arch, cores), _bind(udp_point, arch, cores),
                      pin=_udp_name(arch, cores))
                for arch, cores in UDP_ROWS)
    http = tuple(Point(f"{arch.value}@{syn}syn", _bind(http_point, arch, syn),
                       pin=f"{arch.value}@{syn}syn")
                 for arch in HTTP_ARCHES for syn in SYN_RATES)
    sharded = tuple(
        Point(f"{arch.value}/{kind}",
              _bind(sharded_point, arch, kind == "supervised"),
              pin=_udp_name(arch, 1), timed=kind)
        for arch in SHARDED_ARCHES for kind in ("plain", "supervised"))
    refs = tuple(Point(f"{arch.value}/1-shard", _bind(udp_point, arch, 1),
                       pin=_udp_name(arch, 1))
                 for arch in SHARDED_ARCHES)
    return {
        "udp-blast-7arch": Workload("udp-blast-7arch", udp),
        "http-synflood": Workload("http-synflood", http),
        "sharded-udp": Workload("sharded-udp", sharded, references=refs),
    }


WORKLOADS = build_workloads()


def ledger_diff(got: Any, want: Any, path: str = "") -> List[str]:
    """Differences between two ledgers.  Floats (CPU time per class)
    compare within floating-point rounding; everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        diffs = []
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                diffs.append(f"{path}{key}: missing on one side")
            else:
                diffs += ledger_diff(got[key], want[key], f"{path}{key}.")
        return diffs
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path[:-1]}: length {len(got)} != {len(want)}"]
        diffs = []
        for i, (g, w) in enumerate(zip(got, want)):
            diffs += ledger_diff(g, w, f"{path}{i}.")
        return diffs
    if isinstance(want, float) or isinstance(got, float):
        if (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)):
            return []
    elif got == want:
        return []
    return [f"{path[:-1]}: {got!r} != {want!r}"]
