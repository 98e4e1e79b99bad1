"""Supervised execution of sharded runs: deadlines, checkpoint/restore,
and a degradation ladder.

:class:`Supervisor` runs a :class:`~repro.engine.sharded.ShardedEngine`
scenario on the plain engine's own round driver and transports
(:func:`repro.engine.sharded._drive`); supervision is a set of hooks
on that path, not a second copy of it.  It sets reply deadlines and a
chaos-directive source on each fresh transport, and passes the driver
a per-round hook that cuts epoch checkpoints and caps grants at the
next barrier.  What lives here is only what is specific to
supervision: the restart/backoff loop, the degradation ladder, and
the recovery record.

Failure detection
    Every round reply doubles as a heartbeat.  A worker that misses
    the *soft* deadline (``round_timeout_sec * slow_fraction``) is
    flagged ``recovery_slow``; one that misses the hard deadline is
    classified by its process — still alive means **hung** (and it
    gets SIGKILLed), dead means **crashed**.  A closed pipe or
    an ``("error", ...)`` reply fails the round immediately.

Checkpoint/restore
    With :class:`~repro.engine.checkpoint.CheckpointPolicy` barriers
    enabled, the supervisor cuts a consistent epoch every
    ``epoch_usec`` of simulated time (see
    :mod:`repro.engine.checkpoint` for why this is trace-neutral).  In
    process mode each worker forks a dormant copy-on-write snapshot
    child; on failure the latest epoch's children are activated as the
    new workers and the run continues — deterministically, so a
    crashed-and-recovered run's trace digest is byte-identical to an
    uninterrupted one.  Where no resumable snapshot exists (inline
    transport, failure before the first barrier, a fresh rung), the
    supervisor restarts from the origin: the round protocol is a pure
    function of the partition, so replay is always correct, merely
    slower.

Degradation ladder
    Each rung gets ``max_restarts`` retries with exponential backoff.
    A rung that keeps failing is abandoned for a smaller one —
    half the shards, re-partitioned, down to one shard, finally one
    shard on the inline transport, where there is no worker process
    left to lose.  Only when the terminal rung itself exhausts its
    retries does :class:`SupervisorError` escape.

Chaos
    A :class:`~repro.faults.chaos.ChaosPlan` injects deterministic
    worker kill/stall/slow directives at epoch boundaries; directives
    ride step requests, so injection adds no protocol traffic.  On the
    terminal rung kill directives are suppressed (and recorded), so a
    persistent chaos plan degrades a run instead of wedging it.

Everything the supervisor does is reported as typed
:class:`RecoveryEvent` s (``recovery_*``) on the returned
:class:`SupervisedRun` — kept separate from the simulation trace on
purpose, so recovery never perturbs golden digests — and mirrored to
the ``repro.engine.supervisor`` logger.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.checkpoint import Checkpoint, CheckpointPolicy
from repro.engine.component import make_partition
from repro.engine.sharded import (
    _TRANSPORTS,
    ShardedRun,
    ShardProgram,
    SyncStats,
    _drive,
    _ProcessTransport,
    _WorkerFailure,
    effective_next_events,
)
from repro.faults.chaos import ChaosController, ChaosPlan

_LOG = logging.getLogger("repro.engine.supervisor")

# Typed recovery-event kinds.
RECOVERY_CHECKPOINT = "recovery_checkpoint"
RECOVERY_SLOW = "recovery_slow"
RECOVERY_WORKER_LOST = "recovery_worker_lost"
RECOVERY_WORKER_HUNG = "recovery_worker_hung"
RECOVERY_RESTORE = "recovery_restore"
RECOVERY_RESTART = "recovery_restart"
RECOVERY_REPARTITION = "recovery_repartition"
RECOVERY_CHAOS = "recovery_chaos"
RECOVERY_CHAOS_SUPPRESSED = "recovery_chaos_suppressed"
RECOVERY_GIVEUP = "recovery_giveup"

_WARN_KINDS = frozenset({
    RECOVERY_WORKER_LOST, RECOVERY_WORKER_HUNG, RECOVERY_RESTORE,
    RECOVERY_RESTART, RECOVERY_REPARTITION, RECOVERY_GIVEUP,
})


class SupervisorError(RuntimeError):
    """The degradation ladder is exhausted: even the terminal rung
    kept failing."""


class _RungExhausted(Exception):
    """Internal: a rung used up its restart budget."""

    def __init__(self, failure: _WorkerFailure) -> None:
        super().__init__(str(failure))
        self.failure = failure


@dataclass(frozen=True)
class SupervisorPolicy:
    """Deadlines, retry budgets, and the checkpoint cadence.

    ``round_timeout_sec`` is the *hard* per-worker deadline on one
    round reply (``None`` disables deadline detection — crashes are
    still caught via the pipe).  ``slow_fraction`` of it is the soft
    deadline that merely emits ``recovery_slow``.  ``finish_timeout_sec``
    bounds the final collect exchange separately (``None`` blocks,
    since a legitimate finish ships the whole trace).  Worker *builds*
    are not deadline-protected: a crash during build is detected via
    the pipe, but a hang there blocks — keep build hooks simple.
    """

    round_timeout_sec: Optional[float] = 60.0
    slow_fraction: float = 0.5
    max_restarts: int = 2
    backoff_sec: float = 0.05
    backoff_cap_sec: float = 2.0
    finish_timeout_sec: Optional[float] = None
    degrade: bool = True
    checkpoint: CheckpointPolicy = field(
        default_factory=CheckpointPolicy)

    def __post_init__(self):
        if (self.round_timeout_sec is not None
                and self.round_timeout_sec <= 0.0):
            raise ValueError("round_timeout_sec must be positive")
        if not 0.0 < self.slow_fraction <= 1.0:
            raise ValueError("slow_fraction must be in (0, 1]")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_sec < 0.0 or self.backoff_cap_sec < 0.0:
            raise ValueError("backoff must be >= 0")

    @property
    def soft_timeout_sec(self) -> Optional[float]:
        if self.round_timeout_sec is None:
            return None
        return self.round_timeout_sec * self.slow_fraction


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervision decision, in the order it was made."""

    kind: str
    round: int
    incarnation: int
    shard: Optional[int] = None
    detail: str = ""


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class SupervisedRun(ShardedRun):
    """A :class:`~repro.engine.sharded.ShardedRun` plus the recovery
    record.  Simulation results and trace digests are exactly what the
    plain engine would have produced; supervision history lives only
    here."""

    def __init__(self, payloads, rounds, partition, mode,
                 recovery: List[RecoveryEvent],
                 requested_shards: int,
                 sync: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(payloads, rounds, partition, mode,
                         sync=sync)
        self.recovery: Tuple[RecoveryEvent, ...] = tuple(recovery)
        self.requested_shards = requested_shards

    def recovery_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.recovery:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    @property
    def degraded(self) -> bool:
        return any(e.kind == RECOVERY_REPARTITION
                   for e in self.recovery)

    @property
    def checkpoints(self) -> int:
        return sum(e.kind == RECOVERY_CHECKPOINT
                   for e in self.recovery)

    @property
    def restores(self) -> int:
        return sum(e.kind in (RECOVERY_RESTORE, RECOVERY_RESTART)
                   for e in self.recovery)


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Run a :class:`~repro.engine.sharded.ShardedEngine` scenario
    under supervision.  Single-use state per :meth:`run` call; the
    engine itself is never mutated."""

    def __init__(self, engine, *,
                 policy: Optional[SupervisorPolicy] = None,
                 chaos: Optional[ChaosPlan] = None) -> None:
        self.engine = engine
        self.policy = policy or SupervisorPolicy()
        self.chaos_plan = (chaos if chaos is not None
                           and not chaos.empty else None)

    # -- event plumbing ------------------------------------------------
    def _emit(self, kind: str, *, shard: Optional[int] = None,
              round_: int = 0, detail: str = "") -> None:
        event = RecoveryEvent(kind=kind, round=round_,
                              incarnation=self._incarnation,
                              shard=shard, detail=detail)
        self._events.append(event)
        log = _LOG.warning if kind in _WARN_KINDS else _LOG.info
        log("%s inc=%d round=%d shard=%s %s", kind,
            event.incarnation, round_, shard, detail)

    # -- public entry --------------------------------------------------
    def run(self, duration: float, seed: int = 0) -> SupervisedRun:
        partition = self.engine.partition
        requested_shards = partition.shards
        mode = self.engine.mode
        if mode == "auto":
            mode = "inline" if partition.shards == 1 else "process"
        self._events: List[RecoveryEvent] = []
        self._incarnation = 0
        self._chaos = (ChaosController(self.chaos_plan)
                       if self.chaos_plan else None)
        while True:
            terminal = self._next_rung(partition, mode) is None
            try:
                payloads, rounds, stats = self._run_rung(
                    partition, mode, duration, seed, terminal)
                return SupervisedRun(payloads, rounds, partition,
                                     mode, self._events,
                                     requested_shards,
                                     sync=stats.as_dict())
            except _RungExhausted as exc:
                nxt = (self._next_rung(partition, mode)
                       if self.policy.degrade else None)
                if nxt is None:
                    self._emit(RECOVERY_GIVEUP,
                               shard=exc.failure.shard,
                               detail=str(exc.failure))
                    raise SupervisorError(
                        f"supervision exhausted at shards="
                        f"{partition.shards} mode={mode}: "
                        f"{exc.failure}") from exc.failure
                partition, mode = nxt
                self._emit(RECOVERY_REPARTITION,
                           detail=f"shards={partition.shards} "
                                  f"mode={mode}")

    def _next_rung(self, partition, mode):
        """The next, smaller rung of the degradation ladder — or
        ``None`` if *partition*/*mode* is already terminal."""
        if partition.shards > 1:
            return make_partition(partition.spec, partition.components,
                                  max(1, partition.shards // 2)), mode
        if mode == "process":
            return partition, "inline"
        return None

    # -- one rung ------------------------------------------------------
    def _run_rung(self, partition, mode, duration, seed, terminal):
        """Run one rung to completion, restarting it after each worker
        failure until its restart budget is spent."""
        policy = self.policy
        program = ShardProgram(partition, seed=seed,
                               duration=duration,
                               trace=self.engine.trace,
                               prepare=self.engine.prepare,
                               costs=self.engine.costs,
                               batch=self.engine.batch)
        # Sync stats for the rung that completes; restarts within the
        # rung keep accumulating (the counters describe the work the
        # supervised run actually did, replays included).
        stats = SyncStats(partition)
        self._checkpoint: Optional[Checkpoint] = None
        restarts = 0
        try:
            while True:
                try:
                    payloads, rounds = self._attempt(program, mode,
                                                     stats, terminal)
                    return payloads, rounds, stats
                except _WorkerFailure as failure:
                    self._emit(RECOVERY_WORKER_HUNG
                               if failure.kind == "hang"
                               else RECOVERY_WORKER_LOST,
                               shard=failure.shard, round_=self._round,
                               detail=f"{failure.kind}: "
                                      f"{failure.detail[:200]}")
                    self._incarnation += 1
                    if self._chaos is not None:
                        self._chaos.reset_incarnation()
                    restarts += 1
                    if restarts > policy.max_restarts:
                        raise _RungExhausted(failure)
                delay = min(policy.backoff_cap_sec,
                            policy.backoff_sec * (2 ** (restarts - 1)))
                if delay > 0.0:
                    time.sleep(delay)
        finally:
            if self._checkpoint is not None:
                self._checkpoint.discard()

    def _attempt(self, program, mode, stats, terminal):
        """One life of a rung on the plain round driver: resume from
        the last resumable checkpoint, else start from the origin; run
        to the horizon and collect ``(payloads, rounds)``."""
        partition, duration = program.partition, program.duration
        transport = None
        try:
            checkpoint = self._checkpoint
            if checkpoint is not None and checkpoint.resumable:
                handles, checkpoint.handles = checkpoint.handles, None
                transport = self._watch(
                    _ProcessTransport.from_snapshot(handles))
                start = self._restore(transport, checkpoint)
            else:
                if checkpoint is not None:
                    checkpoint.discard()
                    self._checkpoint = None
                self._epoch = self._round = 0
                if self._incarnation:
                    self._emit(RECOVERY_RESTART, detail="origin replay")
                transport = self._watch(_TRANSPORTS[mode](program))
                start = None
            self._arm_chaos(self._epoch, partition.shards, terminal)
            ckpt = self.policy.checkpoint
            epochs = (int(duration / ckpt.epoch_usec) + 1
                      if ckpt.enabled else 0)
            leftovers, rounds = _drive(
                transport, partition, duration, stats, start=start,
                on_round=functools.partial(self._on_round, transport,
                                           duration, terminal),
                extra_rounds=(epochs + 1) * 4 * partition.shards)
            if self._chaos is not None:
                for shard, directive in sorted(
                        self._chaos._armed.items()):
                    self._emit(RECOVERY_CHAOS_SUPPRESSED, shard=shard,
                               round_=rounds,
                               detail=f"{directive[2]} undeliverable "
                                      f"(shard finished)")
                self._chaos.reset_incarnation()
            payloads = transport.finish(
                leftovers, hard=self.policy.finish_timeout_sec)
            return payloads, rounds
        finally:
            if transport is not None:
                transport.close()

    # -- driver hooks --------------------------------------------------
    def _watch(self, transport):
        """Hook supervision into a fresh transport: reply deadlines
        and chaos directives."""
        transport.soft = self.policy.soft_timeout_sec
        transport.hard = self.policy.round_timeout_sec
        transport.on_slow = self._on_slow
        if self._chaos is not None:
            transport.directive_for = self._chaos.directive_for
        return transport

    def _on_slow(self, shard: int) -> None:
        self._emit(RECOVERY_SLOW, shard=shard, round_=self._round,
                   detail=f"soft deadline "
                          f"{self.policy.soft_timeout_sec}s missed")

    def _on_round(self, transport, duration, terminal, round_no, ne,
                  finished, pending, grants) -> None:
        """The driver's per-round hook.  Once every shard has quiesced
        past one or more barriers, cut an epoch checkpoint at the
        furthest of them; then cap every grant at the next barrier, so
        the next quiescent cut is manufactured rather than waited
        for."""
        self._round = round_no
        policy = self.policy.checkpoint
        if not policy.enabled:
            return
        eff = effective_next_events(ne, pending)
        epoch = self._epoch
        while policy.barrier(epoch + 1) <= duration and all(
                done or when >= policy.barrier(epoch + 1)
                for done, when in zip(finished, eff)):
            epoch += 1
        if epoch > self._epoch:
            self._epoch = epoch
            self._cut(transport, round_no - 1, ne, finished, pending)
            self._arm_chaos(epoch, len(ne), terminal)
        barrier = policy.barrier(self._epoch + 1)
        if barrier <= duration:
            for j, grant in enumerate(grants):
                if grant is not None and grant > barrier:
                    grants[j] = barrier

    def _restore(self, transport, checkpoint: Checkpoint):
        """Check the activated snapshot children against *checkpoint*
        and return the cut the driver resumes from."""
        ne, finished, pending = checkpoint.state()
        self._epoch, self._round = checkpoint.epoch, checkpoint.round
        restored = transport.ready(hard=self.policy.round_timeout_sec)
        if restored != ne:
            raise _WorkerFailure(
                None, "restore-mismatch",
                f"activated state {restored} != checkpoint {ne}")
        self._emit(RECOVERY_RESTORE, round_=checkpoint.round,
                   detail=f"epoch={checkpoint.epoch}")
        # Re-arm: fork fresh snapshots so the *next* failure can
        # resume here too.
        self._cut(transport, checkpoint.round, ne, finished, pending)
        return ne, finished, pending, checkpoint.round

    def _cut(self, transport, round_no, ne, finished, pending) -> None:
        """Checkpoint the current epoch; the previous checkpoint is
        released only once the new snapshot succeeded."""
        checkpoint = Checkpoint(
            self._epoch, round_no, ne, finished, pending,
            transport.snapshot(hard=self.policy.round_timeout_sec))
        self._emit(RECOVERY_CHECKPOINT, round_=round_no,
                   detail=f"epoch={self._epoch} "
                          f"resumable={checkpoint.resumable} "
                          f"in_flight={sum(len(p) for p in pending)}")
        if self._checkpoint is not None:
            self._checkpoint.discard()
        self._checkpoint = checkpoint

    def _arm_chaos(self, epoch, shards, terminal) -> None:
        if self._chaos is None:
            return
        armed = self._chaos.on_epoch(epoch, self._incarnation,
                                     shards)
        for shard, kind, magnitude, label in armed:
            if terminal and kind == "kill":
                # The terminal rung is the last line of defense: a
                # kill here could wedge a persistent plan forever, so
                # it is recorded and dropped.
                self._chaos.directive_for(shard)
                self._emit(RECOVERY_CHAOS_SUPPRESSED, shard=shard,
                           round_=self._round,
                           detail=f"{label} (terminal rung)")
                continue
            self._emit(RECOVERY_CHAOS, shard=shard, round_=self._round,
                       detail=f"{label} magnitude={magnitude}")
