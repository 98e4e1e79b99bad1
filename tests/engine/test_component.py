"""Component declarations, partition validation, and cut channels.

The partition is the load-bearing object of the sharded engine: it
decides which simulator owns which node and which spec edges become
cross-shard channels.  These tests pin its validation surface and its
determinism (docs/PDES.md's contract)."""

import pytest

from repro.core import Architecture, build_host
from repro.engine.component import (
    Component,
    HostComponent,
    Partition,
    PartitionError,
    SourceComponent,
    SwitchComponent,
    cover_switches,
    make_partition,
    make_world,
)
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.net.link import Network
from repro.net.topology import (
    BindingSpec,
    LinkSpec,
    SwitchSpec,
    Topology,
    TopologySpec,
    gateway_chain_spec,
    incast_spec,
    passthrough_spec,
)


def incast_components(fan_in=2):
    spec = incast_spec(fan_in)
    components = [HostComponent("server", "server")]
    components += [SourceComponent(f"client{i}", f"client{i}")
                   for i in range(fan_in)]
    return spec, cover_switches(spec, components)


class TestValidation:
    def test_every_spec_node_needs_an_owner(self):
        spec = incast_spec(2)
        # No component owns the switch or the clients.
        with pytest.raises(PartitionError, match="no owning component"):
            Partition(spec, [HostComponent("server", "server")],
                      [("server",)])

    def test_unknown_node_rejected(self):
        spec, components = incast_components(2)
        components.append(SourceComponent("ghost", "no-such-node"))
        with pytest.raises(PartitionError, match="not in topology"):
            make_partition(spec, components, 1)

    def test_doubly_owned_node_rejected(self):
        spec, components = incast_components(2)
        components.append(SourceComponent("dup", "client0"))
        with pytest.raises(PartitionError, match="owned by both"):
            make_partition(spec, components, 1)

    def test_duplicate_component_names_rejected(self):
        spec = incast_spec(1)
        comps = [HostComponent("x", "server"),
                 SourceComponent("x", "client0"),
                 SwitchComponent("sw0")]
        with pytest.raises(PartitionError, match="duplicate"):
            Partition(spec, comps, [("x", "x", "sw0")])

    def test_assignment_must_place_every_component_once(self):
        spec, components = incast_components(2)
        names = [c.name for c in components]
        with pytest.raises(PartitionError, match="exactly once"):
            Partition(spec, components, [tuple(names[:-1])])
        with pytest.raises(PartitionError, match="exactly once"):
            Partition(spec, components,
                      [tuple(names), (names[0],)])

    def test_component_must_own_a_node(self):
        with pytest.raises(PartitionError, match="owns no nodes"):
            Component("empty", ())

    def test_shard_count_clamped_to_component_count(self):
        spec, components = incast_components(1)
        partition = make_partition(spec, components, 64)
        assert partition.shards == len(components)

    def test_zero_shards_rejected(self):
        spec, components = incast_components(1)
        with pytest.raises(PartitionError, match=">= 1"):
            make_partition(spec, components, 0)


class TestCutChannels:
    def test_one_shard_has_no_channels(self):
        spec, components = incast_components(2)
        partition = make_partition(spec, components, 1)
        assert partition.channels == ()
        assert partition.min_lookahead() is None

    def test_cut_edges_become_bidirectional_channels(self):
        spec, components = incast_components(2)
        names = [c.name for c in components]
        client_side = ("client0",)
        rest = tuple(n for n in names if n != "client0")
        partition = Partition(spec, components, [rest, client_side])
        pairs = {(ch.src_node, ch.dst_node)
                 for ch in partition.channels}
        # client0 -- sw0 is the only cut edge, both directions.
        assert pairs == {("client0", "sw0"), ("sw0", "client0")}
        link = next(l for l in spec.links
                    if {l.a, l.b} == {"client0", "sw0"})
        for channel in partition.channels:
            assert channel.lookahead_usec == link.propagation_usec
        assert partition.min_lookahead() == link.propagation_usec

    def test_channel_ranks_are_deterministic(self):
        spec, components = incast_components(3)
        partition = make_partition(spec, components, 3)
        ordered = [(ch.src_node, ch.dst_node)
                   for ch in partition.channels]
        assert ordered == sorted(ordered)
        assert [ch.rank for ch in partition.channels] \
            == list(range(len(partition.channels)))

    def test_zero_propagation_cut_edge_rejected(self):
        spec = TopologySpec(
            name="zero-prop",
            switches=(SwitchSpec("sw"),),
            links=(LinkSpec("a", "sw", propagation_usec=0.0),),
            bindings=(BindingSpec("10.0.0.1", "a"),))
        components = [HostComponent("a", "a"), SwitchComponent("sw")]
        with pytest.raises(PartitionError, match="lookahead > 0"):
            Partition(spec, components, [("a",), ("sw",)])
        # Same placement on one shard is fine: no cut, no channel.
        partition = Partition(spec, components, [("a", "sw")])
        assert partition.channels == ()


class TestPartitioner:
    def test_lpt_is_deterministic(self):
        spec, components = incast_components(4)
        a = make_partition(spec, components, 3)
        b = make_partition(spec, components, 3)
        assert a.assignment == b.assignment
        assert a.node_shard == b.node_shard

    def test_heaviest_component_lands_alone_first(self):
        # Host weight (4.0) dominates sources/switches (1.0): LPT
        # places the server first on shard 0.
        spec, components = incast_components(3)
        partition = make_partition(spec, components, 2)
        assert "server" in partition.assignment[0]
        loads = [sum(4.0 if name == "server" else 1.0
                     for name in names)
                 for names in partition.assignment]
        assert max(loads) - min(loads) <= 4.0

    def test_gateway_chain_partitions(self):
        spec = gateway_chain_spec()
        components = cover_switches(spec, [
            HostComponent("gateway", "gateway"),
            HostComponent("backend", "backend"),
            SourceComponent("client", "client"),
        ])
        partition = make_partition(spec, components, 2)
        assert partition.shards == 2
        assert partition.channels  # the chain always cuts somewhere
        covered = {n for names in partition.assignment for n in names}
        assert covered == {c.name for c in components}


def _drop_plan(seed=1):
    return FaultPlan(seed=seed, rules=(
        FaultRule("link", "drop", probability=0.5),))


class TestMakeWorld:
    @pytest.mark.parametrize("spec, fabric_type", [
        (None, Network), (passthrough_spec(), Topology)])
    def test_fabric_is_the_flat_lan_unless_given_a_spec(
            self, spec, fabric_type):
        world = make_world(3, spec)
        assert type(world.fabric) is fabric_type
        assert world.sim.seed == 3
        assert world.fault_plane is None
        assert world.fabric.fault_plane is None

    def test_empty_fault_plan_builds_no_plane(self):
        world = make_world(fault_plan=FaultPlan(seed=1))
        assert world.fault_plane is None

    @pytest.mark.parametrize("register", ["add_host", "adopt"])
    def test_world_plane_reaches_fabric_and_hosts(self, register):
        world = make_world(fault_plan=_drop_plan())
        plane = world.fault_plane
        assert isinstance(plane, FaultPlane)
        assert world.fabric.fault_plane is plane
        if register == "add_host":
            host = world.add_host("10.0.0.1", Architecture.BSD)
        else:
            host = world.adopt(build_host(world.sim, world.fabric,
                                          "10.0.0.1", Architecture.BSD))
        assert world.hosts == [host]
        assert host.stack.fault_plane is plane
        assert host.nic.fault_plane is plane

    @pytest.mark.parametrize("own", [True, False])
    def test_explicit_plane_takes_precedence(self, own):
        world = make_world(fault_plan=_drop_plan())
        plane = FaultPlane(world.sim, _drop_plan(seed=2)) if own else None
        host = world.add_host("10.0.0.1", Architecture.BSD,
                              fault_plane=plane)
        assert host.stack.fault_plane is plane
        assert host.nic.fault_plane is plane
