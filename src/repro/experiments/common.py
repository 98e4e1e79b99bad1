"""Shared experiment scaffolding.

Every experiment builds one or more simulated machines — on the flat
LAN (the paper's testbed) or on a switched
:class:`~repro.net.topology.TopologySpec` graph — runs a warmup
interval, measures inside a window, and reports rows/series shaped
like the paper's tables and figures.

The world is *host-plural*: a :class:`Testbed` owns a ``hosts_by_name``
dict (mirrored into ``Simulator.hosts``) so scenarios like "a rack of
LRP gateways fronting N backends" address machines by name.  The
zero-argument construction path is unchanged — a single shared LAN —
so every single-host experiment and golden trace is byte-identical to
the pre-topology world.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Optional

from repro.engine.process import Sleep
from repro.engine.simulator import Simulator
from repro.net.link import Network
from repro.net.topology import TopologySpec
from repro.core import Architecture, Host, build_host
from repro.host.costs import DEFAULT_COSTS

#: Canonical addresses for the three-machine testbed.
SERVER_ADDR = "10.0.0.1"
CLIENT_A_ADDR = "10.0.0.2"
CLIENT_C_ADDR = "10.0.0.3"

#: The three systems most experiments compare (Figure 3 adds
#: Early-Demux).
MAIN_SYSTEMS = (Architecture.BSD, Architecture.SOFT_LRP,
                Architecture.NI_LRP)


def delayed(usec: float, gen: Generator) -> Generator:
    """Run *gen* after an initial sleep (staggers process start-up so
    clients never race server binds)."""
    yield Sleep(usec)
    yield from gen


class Testbed:
    """A simulator, a network fabric, and a world of named hosts.

    With no *topology*, the fabric is the flat shared LAN —
    the paper's testbed, and the convenience constructor every
    single-host experiment relies on.  Passing a
    :class:`~repro.net.topology.TopologySpec` builds a switched
    multi-host graph instead; host addresses must then appear in the
    spec's bindings.
    """

    __test__ = False  # not a test class, despite the Test* name

    def __init__(self, seed: int = 1,
                 congestion_knee_pps: Optional[float] = None,
                 costs=DEFAULT_COSTS,
                 fault_plan=None,
                 topology: Optional[TopologySpec] = None):
        self.sim = Simulator(seed=seed)
        self.topology_spec = topology
        if topology is None:
            self.network = Network(
                self.sim, congestion_knee_pps=congestion_knee_pps)
        else:
            if congestion_knee_pps is not None:
                raise ValueError(
                    "congestion_knee_pps models the flat LAN's switch "
                    "artifact; switched topologies model queues "
                    "explicitly")
            self.network = topology.build(self.sim)
        self.costs = costs
        self.hosts = []
        self.hosts_by_name: Dict[str, Host] = {}
        #: Built when the testbed is given a FaultPlan: link rules act
        #: on the shared fabric, NIC/mbuf rules on every added host.
        self.fault_plane = None
        if fault_plan is not None and not fault_plan.empty:
            from repro.faults import FaultPlane
            self.fault_plane = FaultPlane(self.sim, fault_plan)
            self.fault_plane.attach_network(self.network)

    def add_host(self, addr, arch: Architecture,
                 name: Optional[str] = None, **kwargs):
        host = build_host(self.sim, self.network, addr, arch,
                          costs=self.costs, name=name,
                          fault_plane=self.fault_plane, **kwargs)
        self.hosts.append(host)
        self.hosts_by_name[host.name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up an added host by registry name."""
        return self.hosts_by_name[name]

    def adopt(self, host: Host) -> Host:
        """Register a host built outside :meth:`add_host` (e.g. by
        :func:`repro.core.forwarding.build_gateway`) so it shares the
        testbed's stat finalization and name lookup."""
        self.hosts.append(host)
        self.hosts_by_name[host.name] = host
        if self.fault_plane is not None:
            self.fault_plane.attach_host(host)
        return host

    def run(self, until_usec: float) -> None:
        self.sim.run_until(until_usec)
        for host in self.hosts:
            host.kernel.finalize_stats()


def count_in_window(stamps: Iterable[float], start: float,
                    end: float) -> int:
    return sum(1 for t in stamps if start <= t < end)


def rate_in_window(stamps: Iterable[float], start: float,
                   end: float) -> float:
    n = count_in_window(stamps, start, end)
    return n * 1e6 / (end - start)
