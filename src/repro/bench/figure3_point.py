"""The headline benchmark: engine events/sec on a fixed Figure-3 point.

Figure 3 (UDP throughput vs. offered load) is the reproduction's
biggest sweep — 4 architectures x 15 rates x 1-second windows — and
its wall-clock is dominated by raw engine throughput.  This benchmark
runs ONE canonical point per architecture at full scale and reports
events/sec, giving the CI perf gate a single number per architecture
that moves with every hot-path change.

The point (rate 12,000 pkts/sec, 1-second measurement window) sits
past BSD's livelock knee: at seed 1 BSD delivers 1,509 pkts/sec and
drops 13,062 packets at the socket queue, while the LRP stacks shed
load early and still deliver.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.core import Architecture
from repro.bench.calibrate import calibration_kops
from repro.experiments.figure3 import run_point
from repro.stats.timing import EventRateProbe

#: The canonical benchmark point.
BENCH_RATE_PPS = 12_000
#: Full-scale window: the same 1-second window Figure 3 uses.
FULL_WARMUP_USEC = 300_000.0
FULL_WINDOW_USEC = 1_000_000.0
#: Quick mode: same point, shorter window (CI smoke).
QUICK_WARMUP_USEC = 100_000.0
QUICK_WINDOW_USEC = 150_000.0

ARCHES = (Architecture.BSD, Architecture.NI_LRP,
          Architecture.SOFT_LRP, Architecture.EARLY_DEMUX)

#: The modern stacks join the benchmark at their canonical core
#: counts (docs/ARCHITECTURES.md): RSS and NIC-OS on 4 cores, polling
#: on the minimum 2 (boot core + busy-poll core).  The busy-poll spin
#: makes the polling row the suite's event-count outlier by design.
MODERN_ARCH_CORES = ((Architecture.RSS, 4), (Architecture.POLLING, 2),
                     (Architecture.NIC_OS, 4))


def bench_arch(arch: Architecture, quick: bool = False,
               repeats: int = 0, cores: int = 1) -> Dict[str, Any]:
    """Events/sec for one architecture at the canonical point.

    Samples the machine calibration score immediately before running,
    so the perf gate can normalize each architecture against the
    machine's speed *at that moment* rather than at suite start.
    """
    warmup = QUICK_WARMUP_USEC if quick else FULL_WARMUP_USEC
    window = QUICK_WINDOW_USEC if quick else FULL_WINDOW_USEC
    repeats = repeats or (1 if quick else 2)
    kops = calibration_kops(repeats=2)
    flows = cores if cores > 1 else 1
    best: Dict[str, Any] = {}
    best_rate = 0.0
    for _ in range(max(1, repeats)):
        probe = EventRateProbe()
        t0 = time.perf_counter()
        result = run_point(arch, BENCH_RATE_PPS, warmup_usec=warmup,
                           window_usec=window, probe=probe,
                           cores=cores, flows=flows)
        wall = time.perf_counter() - t0
        rate = probe.events_per_sec()
        if rate > best_rate:
            best_rate = rate
            best = {
                "calibration_kops_per_sec": round(kops, 3),
                "cores": cores,
                "events": result["events"],
                "delivered_pps": round(result["delivered_pps"], 1),
                "wall_sec": round(wall, 6),
                "events_per_sec": round(rate, 1),
                "measure_events_per_sec": round(
                    probe.events_per_sec("measure"), 1),
                "phases": probe.summary()["phases"],
            }
    return best


def bench_figure3_point(quick: bool = False) -> Dict[str, Any]:
    """The full six-architecture benchmark (one BENCH fragment).

    Architectures absent from a committed baseline are reported but
    not gated (the comparator skips unmatched rows), so extending the
    family never invalidates an old baseline.
    """
    warmup = QUICK_WARMUP_USEC if quick else FULL_WARMUP_USEC
    window = QUICK_WINDOW_USEC if quick else FULL_WINDOW_USEC
    per_arch = {arch.value: bench_arch(arch, quick=quick)
                for arch in ARCHES}
    for arch, cores in MODERN_ARCH_CORES:
        per_arch[arch.value] = bench_arch(arch, quick=quick,
                                          cores=cores)
    total_events = sum(row["events"] for row in per_arch.values())
    total_wall = sum(row["wall_sec"] for row in per_arch.values())
    return {
        "rate_pps": BENCH_RATE_PPS,
        "warmup_usec": warmup,
        "window_usec": window,
        "per_arch": per_arch,
        "events": total_events,
        "wall_sec": round(total_wall, 6),
        "events_per_sec": round(total_events / total_wall, 1),
    }
