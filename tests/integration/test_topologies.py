"""End-to-end conservation across the three canonical topologies.

Every injected frame must be accounted for at every hop: what the
clients send either reaches an application, sits in an explicit queue,
or died at a *named* drop point (switch output queue, RED, fault
plane, NIC ring, IP reassembly queue, NI channel, socket queue).  The
tests run each canonical graph — single-host passthrough, the gateway
chain, and 4→1 incast — clean and under a seeded fault plan, stop the
sources early, let the world drain, and then demand exact ledgers:

* fabric level: ``sent + duplicated == delivered + drops-by-cause``
  with nothing left in flight;
* host level: frames delivered to a NIC equal application receipts
  plus every stack-layer drop counter.
"""

import pytest

from repro.apps import udp_blast_sink
from repro.core import Architecture
from repro.core.forwarding import build_gateway
from repro.engine import make_world
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.net.topology import (
    gateway_chain_spec,
    incast_spec,
    passthrough_spec,
)
from repro.workloads import RawUdpInjector

PORT = 9000
STOP_USEC = 150_000.0
DRAIN_USEC = 500_000.0


def fabric_ledger(topo):
    """Assert the fabric-level conservation identity; returns the
    ledger for further checks."""
    c = topo.conservation()
    assert c["in_flight"] == 0, "frames still on the wire after drain"
    assert c["sent"] + c["duplicated"] == (
        c["delivered"] + c["drops_no_route"] + c["drops_port_queue"]
        + c["drops_red"] + c["drops_fault"])
    return c

def host_receive_ledger(host):
    """Every frame the NIC accepted, by fate."""
    stats = host.stack.stats
    # Every early discard — SOFT-LRP's interrupt-time shed and the
    # programmable NIC's firmware shed alike — lands in the channel's
    # own counters (the stack's ``drop_channel_early`` stat annotates
    # the same events for SOFT-LRP; adding it would double-count).
    channel_drops = sum(ch.total_discards()
                        for ch in host.stack.iter_channels())
    return {
        "ring": host.nic.rx_drops_ring,
        "ipq": stats.get("drop_ipq"),
        "channel": channel_drops,
        "sockq": (stats.get("drop_sockq")
                  + stats.get("drop_early_sockq_full")),
        "mbufs": stats.get("drop_mbufs"),
        "corrupt": stats.get("drop_corrupt"),
        "demux": stats.get("drop_demux_unmatched"),
    }


def drop_total(ledger):
    return sum(ledger.values())


def sink_counter(world, host, port=PORT):
    received = [0]

    def on_rx(stamp, dgram):
        received[0] += 1

    host.spawn("sink", udp_blast_sink(port, on_receive=on_rx))
    return received


def run_world(world, injectors, rate_pps):
    for i, injector in enumerate(injectors):
        world.sim.schedule(5_000.0 + 97.0 * i, injector.start, rate_pps)
        world.sim.schedule(STOP_USEC, injector.stop)
    world.run(DRAIN_USEC)


def fault_plan():
    return FaultPlan(seed=77, rules=(
        FaultRule("link", "drop", start_usec=20_000.0,
                  end_usec=120_000.0, probability=0.15,
                  name="topo-loss"),
        FaultRule("link", "duplicate", start_usec=20_000.0,
                  end_usec=120_000.0, probability=0.10,
                  name="topo-dup"),
        FaultRule("link", "delay", start_usec=20_000.0,
                  end_usec=120_000.0, probability=0.20,
                  magnitude=250.0, name="topo-delay"),
    ))


# ---------------------------------------------------------------------------
# Passthrough: client — sw0 — server
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faults"])
def test_passthrough_conserves_every_frame(faulty):
    world = make_world(3, passthrough_spec(),
                       fault_plan=fault_plan() if faulty else None)
    server = world.add_host("10.0.0.1", Architecture.SOFT_LRP,
                            name="server")
    received = sink_counter(world, server)
    injector = RawUdpInjector(world.sim, world.fabric, "10.0.0.2",
                              "10.0.0.1", PORT)
    run_world(world, [injector], rate_pps=3_000.0)

    ledger = fabric_ledger(world.fabric)
    assert ledger["sent"] == injector.sent
    host = host_receive_ledger(server)
    assert received[0] + drop_total(host) == ledger["delivered"]
    if faulty:
        assert ledger["drops_fault"] > 0
        assert ledger["duplicated"] > 0
    else:
        assert world.fabric.total_drops() == 0
        # At 3k pkts/sec nothing contends: every datagram arrives.
        assert received[0] == injector.sent
        # Both hops forwarded every frame.
        uplink = world.fabric.switches["sw0"].ports["server"]
        assert uplink.serviced == injector.sent
        assert uplink.drops_overflow == uplink.drops_red == 0


# ---------------------------------------------------------------------------
# Gateway chain: client — sw-edge — gateway — sw-core — backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faults"])
def test_gateway_chain_conserves_across_both_subnets(faulty):
    world = make_world(9, gateway_chain_spec(),
                       fault_plan=fault_plan() if faulty else None)
    gateway, daemon = build_gateway(
        world.sim, world.fabric, "10.0.0.254", "10.0.1.254",
        Architecture.SOFT_LRP, costs=world.costs)
    world.adopt(gateway)
    backend = world.add_host("10.0.1.1", Architecture.SOFT_LRP,
                             name="backend")
    received = sink_counter(world, backend)
    injector = RawUdpInjector(world.sim, world.fabric, "10.0.0.2",
                              "10.0.1.1", PORT, next_hop="10.0.0.254")
    run_world(world, [injector], rate_pps=2_000.0)

    ledger = fabric_ledger(world.fabric)
    forwarded = gateway.stack.stats.get("ip_forwarded")
    # The fabric carries two generations of every transit frame: the
    # client's injection and the gateway's re-send.
    assert ledger["sent"] == injector.sent + forwarded
    gw_ledger = host_receive_ledger(gateway)
    be_ledger = host_receive_ledger(backend)
    # Deliveries split between the two NICs; the backend's ledger
    # pins its share, and what remains reached the gateway, where
    # every frame was either forwarded or dropped at a named point
    # (the forwarding channel's discards are in its channel ledger).
    gw_received = ledger["delivered"] - received[0] \
        - drop_total(be_ledger)
    assert gw_received == forwarded + drop_total(gw_ledger)
    if faulty:
        assert ledger["drops_fault"] > 0
    else:
        assert world.fabric.total_drops() == 0
        # Moderate transit load: the chain is lossless end to end.
        assert forwarded == injector.sent
        assert received[0] == injector.sent
        for sw in ("sw-edge", "sw-core"):
            for port in world.fabric.switches[sw].ports.values():
                assert port.drops_overflow == port.drops_red == 0


# ---------------------------------------------------------------------------
# Incast: 4 clients — sw0 — server
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faults"])
def test_incast_accounts_for_overload_drops(faulty):
    fan_in = 4
    world = make_world(5, incast_spec(fan_in, queue_frames=16),
                       fault_plan=fault_plan() if faulty else None)
    server = world.add_host("10.0.0.1", Architecture.SOFT_LRP,
                            name="server")
    received = sink_counter(world, server)
    injectors = [
        RawUdpInjector(world.sim, world.fabric, f"10.0.0.{10 + i}",
                       "10.0.0.1", PORT, src_port=20000 + i)
        for i in range(fan_in)]
    # Far past both the switch uplink's and the server's capacity: the
    # ledger must name every casualty of the overload.
    run_world(world, injectors, rate_pps=120_000.0)

    ledger = fabric_ledger(world.fabric)
    assert ledger["sent"] == sum(inj.sent for inj in injectors)
    host = host_receive_ledger(server)
    assert received[0] + drop_total(host) == ledger["delivered"]
    # The overload is real and lands where the architecture says: the
    # switch uplink sheds at its output queue, the host sheds at the
    # LRP demux point — and both ledgers name their drops exactly.
    assert ledger["drops_port_queue"] > 0
    assert host["channel"] > 0
    sw_stats = world.fabric.hop_stats()["sw0"]
    assert sum(p["drops_overflow"] for p in sw_stats.values()) == \
        ledger["drops_port_queue"]
    if faulty:
        assert ledger["drops_fault"] > 0


# ---------------------------------------------------------------------------
# Per-edge fault planes
# ---------------------------------------------------------------------------

def test_per_edge_fault_plane_hits_only_its_edge():
    world = make_world(3, passthrough_spec())
    server = world.add_host("10.0.0.1", Architecture.SOFT_LRP,
                            name="server")
    received = sink_counter(world, server)
    plane = FaultPlane(world.sim, FaultPlan(seed=21, rules=(
        FaultRule("link", "drop", probability=0.5, name="edge-loss"),)))
    world.fabric.attach_link_fault_plane("sw0", "server", plane)
    injector = RawUdpInjector(world.sim, world.fabric, "10.0.0.2",
                              "10.0.0.1", PORT)
    run_world(world, [injector], rate_pps=3_000.0)

    ledger = fabric_ledger(world.fabric)
    uplink_edge = next(l for l in world.fabric.links
                       if {l.a, l.b} == {"sw0", "server"})
    access_edge = next(l for l in world.fabric.links
                       if {l.a, l.b} == {"client", "sw0"})
    assert uplink_edge.drops_fault > 0
    assert access_edge.drops_fault == 0
    # The per-edge counter is the breakdown of the fabric total.
    assert ledger["drops_fault"] == uplink_edge.drops_fault
    assert received[0] == injector.sent - uplink_edge.drops_fault
