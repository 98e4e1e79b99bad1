"""Supervised execution: failure detection, recovery, and chaos.

The claims pinned here (docs/PDES.md, "Fault tolerance"):

1. an *unsupervised* process run surfaces a dead shard worker as a
   clean :class:`ShardSyncError` within seconds — never a hang;
2. the supervisor survives the same failure: restore from the last
   epoch checkpoint where one exists, origin replay where none does,
   and the degradation ladder (fewer shards, then inline) when a rung
   keeps dying — always producing the same results a clean run would;
3. every chaos directive (kill / stall / slow) from a seeded
   :class:`~repro.faults.ChaosPlan` is recovered from, and recovery
   events are recorded *outside* the simulation trace;
4. supervision is hooks on the plain round driver, not a second
   protocol: without checkpoints a supervised run takes exactly the
   plain run's rounds, steps and skips.
"""

import os
import time

import pytest

from repro.engine.checkpoint import CheckpointPolicy
from repro.engine.component import HostComponent, SourceComponent
from repro.engine.sharded import ShardedEngine, ShardSyncError
from repro.engine.supervisor import (
    SupervisorError,
    SupervisorPolicy,
)
from repro.faults import ChaosPlan, ExecFaultRule, kill_at
from repro.net.topology import incast_spec
from repro.trace import golden

#: Short horizon: enough rounds/epochs to exercise recovery, small
#: enough to keep the suite quick.
SHORT_USEC = 30_000.0

#: Checkpoint every 10ms -> 3 epochs inside SHORT_USEC.
POLICY = SupervisorPolicy(
    checkpoint=CheckpointPolicy(epoch_usec=10_000.0))


# ----------------------------------------------------------------------
# A 2->1 incast whose second client kills its worker process at build
# time — but only when it actually runs on a multi-shard cut, so the
# degraded single-shard rerun (and the shards=1 control run) succeed.
# Module-level hooks, per the component contract.
# ----------------------------------------------------------------------
def _crashing_client_build(world, index, rate_pps):
    if world.shard_count > 1 and world.shard_index == 1:
        os._exit(23)
    return golden._build_incast_client(world, index, rate_pps)


def _crashing_components():
    components = [HostComponent("server", "server",
                                build=golden._build_incast_server)]
    components.append(SourceComponent(
        "client0", "client0", build=golden._build_incast_client,
        kwargs={"index": 0, "rate_pps": 1_500.0}))
    components.append(SourceComponent(
        "client1", "client1", build=_crashing_client_build,
        kwargs={"index": 1, "rate_pps": 1_500.0}))
    return components


def _crashing_engine(shards):
    spec = incast_spec(2, queue_frames=8, bandwidth_bits_per_usec=2.0)
    assignment = None
    if shards == 2:
        # Pin the crashing client to shard 1 so the failure always
        # lands off-coordinator.
        assignment = [["sw0", "server", "client0"], ["client1"]]
    return ShardedEngine(spec, _crashing_components(), shards=shards,
                         mode="process", assignment=assignment)


def test_unsupervised_worker_crash_raises_cleanly():
    engine = _crashing_engine(shards=2)
    started = time.monotonic()
    with pytest.raises(ShardSyncError):
        engine.run(SHORT_USEC, seed=golden.GOLDEN_SEED)
    # The surviving worker is killed, not waited on: it never sees EOF
    # on its own pipe.
    assert time.monotonic() - started < 2.0


def test_supervised_degrades_past_crashing_worker():
    clean = _crashing_engine(shards=1) \
        .run(SHORT_USEC, seed=golden.GOLDEN_SEED)
    policy = SupervisorPolicy(
        max_restarts=1, backoff_sec=0.0,
        checkpoint=CheckpointPolicy(epoch_usec=10_000.0))
    run = _crashing_engine(shards=2).run_supervised(
        SHORT_USEC, seed=golden.GOLDEN_SEED, policy=policy)
    assert run.collected == clean.collected
    assert run.degraded
    assert run.requested_shards == 2
    assert run.shards == 1
    counts = run.recovery_counts()
    assert counts.get("recovery_worker_lost", 0) >= 1
    assert counts.get("recovery_repartition", 0) >= 1


def test_supervisor_gives_up_when_degradation_disabled():
    policy = SupervisorPolicy(max_restarts=1, backoff_sec=0.0,
                              degrade=False)
    with pytest.raises(SupervisorError):
        _crashing_engine(shards=2).run_supervised(
            SHORT_USEC, seed=golden.GOLDEN_SEED, policy=policy)


# ----------------------------------------------------------------------
# The plain protocol, and chaos-driven recovery, on the golden cluster
# workloads
# ----------------------------------------------------------------------
def _supervised(key, shards, mode="process", chaos=None, policy=POLICY,
                duration=SHORT_USEC):
    return golden.run_cluster_supervised(
        key, shards=shards, mode=mode, chaos=chaos, policy=policy,
        duration=duration)


@pytest.mark.parametrize("mode", ("process", "inline"))
def test_supervised_run_follows_the_plain_protocol(mode):
    plain = golden.run_cluster_sharded("cluster-incast", shards=2,
                                       mode=mode, duration=SHORT_USEC)
    run = _supervised("cluster-incast", shards=2, mode=mode,
                      policy=SupervisorPolicy())
    assert plain.sync["skipped_steps"] > 0
    assert run.sync == plain.sync
    assert run.collected == plain.collected


def test_chaos_kill_restores_from_checkpoint():
    clean = _supervised("cluster-incast", shards=2)
    chaos = ChaosPlan(seed=7, rules=(kill_at(2),))
    run = _supervised("cluster-incast", shards=2, chaos=chaos)
    assert run.parity == clean.parity
    assert run.collected == clean.collected
    assert run.restores >= 1
    assert run.recovery_counts().get("recovery_worker_lost", 0) >= 1
    run.total_conservation()


def test_chaos_kill_inline_replays_from_origin():
    clean = _supervised("cluster-chain", shards=2, mode="inline")
    chaos = ChaosPlan(seed=7, rules=(kill_at(1),))
    run = _supervised("cluster-chain", shards=2, mode="inline",
                      chaos=chaos)
    assert run.parity == clean.parity
    # Inline has no processes to snapshot: recovery is origin replay,
    # never a checkpoint restore.
    counts = run.recovery_counts()
    assert counts.get("recovery_restore", 0) == 0
    assert counts.get("recovery_restart", 0) >= 1


def test_chaos_stall_is_detected_as_slow_then_hung():
    policy = SupervisorPolicy(
        round_timeout_sec=0.5, slow_fraction=0.3, backoff_sec=0.0,
        checkpoint=CheckpointPolicy(epoch_usec=10_000.0))
    chaos = ChaosPlan(seed=7, rules=(
        ExecFaultRule("stall", at_epoch=1, magnitude=5.0),))
    clean = _supervised("cluster-incast", shards=2)
    run = _supervised("cluster-incast", shards=2, chaos=chaos,
                      policy=policy)
    counts = run.recovery_counts()
    assert counts.get("recovery_slow", 0) >= 1
    assert counts.get("recovery_worker_hung", 0) >= 1
    assert run.parity == clean.parity


def test_chaos_slow_degrades_gracefully_without_recovery():
    chaos = ChaosPlan(seed=7, rules=(
        ExecFaultRule("slow", at_epoch=1, magnitude=0.001),))
    clean = _supervised("cluster-incast", shards=2)
    run = _supervised("cluster-incast", shards=2, chaos=chaos)
    counts = run.recovery_counts()
    assert counts.get("recovery_chaos", 0) >= 1
    assert counts.get("recovery_worker_lost", 0) == 0
    assert counts.get("recovery_worker_hung", 0) == 0
    assert run.parity == clean.parity


def test_persistent_kill_walks_the_ladder_to_terminal_rung():
    # incarnation=None re-fires on every restart; with one retry per
    # rung the supervisor must walk 2-process -> 1-process -> 1-inline
    # and suppress the kill on the terminal rung rather than wedge.
    policy = SupervisorPolicy(
        max_restarts=1, backoff_sec=0.0,
        checkpoint=CheckpointPolicy(epoch_usec=10_000.0))
    chaos = ChaosPlan(seed=7, rules=(
        ExecFaultRule("kill", at_epoch=1, incarnation=None),))
    clean = _supervised("cluster-incast", shards=1, mode="inline")
    run = _supervised("cluster-incast", shards=2, chaos=chaos,
                      policy=policy)
    counts = run.recovery_counts()
    assert counts.get("recovery_repartition", 0) >= 2
    assert counts.get("recovery_chaos_suppressed", 0) >= 1
    assert run.degraded and run.mode == "inline"
    assert run.parity == clean.parity


def test_recovery_events_stay_out_of_the_trace():
    chaos = ChaosPlan(seed=7, rules=(kill_at(1),))
    run = _supervised("cluster-incast", shards=1, mode="inline",
                      chaos=chaos, duration=golden.GOLDEN_DURATION)
    committed = golden.load_golden(
        "cluster-incast",
        os.path.join(os.path.dirname(__file__), "..", "golden"))
    assert run.recovery  # something was recorded...
    assert run.trace_digest is not None  # ...but the trace is golden
    assert run.trace_digest["order_hash"] == committed["order_hash"]
    assert run.trace_digest["counts"] == committed["counts"]


# ----------------------------------------------------------------------
# Policy & plan validation
# ----------------------------------------------------------------------
def test_supervisor_policy_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(round_timeout_sec=0.0)
    with pytest.raises(ValueError):
        SupervisorPolicy(slow_fraction=0.0)
    with pytest.raises(ValueError):
        SupervisorPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_sec=-1.0)
    assert SupervisorPolicy(round_timeout_sec=None).soft_timeout_sec \
        is None
    assert SupervisorPolicy(round_timeout_sec=10.0,
                            slow_fraction=0.5).soft_timeout_sec == 5.0


def test_exec_fault_rule_validation():
    with pytest.raises(ValueError):
        ExecFaultRule("explode", at_epoch=1)
    with pytest.raises(ValueError):
        ExecFaultRule("kill", at_epoch=-1)
    with pytest.raises(ValueError):
        ExecFaultRule("stall", at_epoch=1, magnitude=-0.5)
    rule = kill_at(3, shard=1)
    assert rule.label == "exec.kill@3"
    assert ChaosPlan(seed=1, rules=[rule]).rules == (rule,)
