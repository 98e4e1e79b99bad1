"""Sharded conservative-time execution of component simulations.

The :class:`ShardedEngine` runs one scenario — a
:class:`~repro.net.topology.TopologySpec` plus a declaration-ordered
list of :class:`~repro.engine.component.Component` s — across one or
more *shards*, each holding its own :class:`Simulator`, its own slice
of the fabric, and the components placed on it by the partitioner.
Shards exchange nothing but timestamped frames over the partition's
:class:`~repro.engine.component.ChannelLink` s.

Time synchronization is conservative, in the null-message tradition
(Chandy–Misra–Bryant), organized as synchronous rounds driven by a
coordinator:

1. Every shard reports its *next event estimate* ``ne_i`` (earliest
   pending local event).  The coordinator folds in messages it has not
   yet delivered: ``eff_i = min(ne_i, earliest pending arrival)``.
2. The ``eff`` values are relaxed over the channel graph to the least
   fixpoint ``lb_j = min(eff_j, min over channels (i -> j) of
   (lb_i + lookahead_ij))`` — a shard's next action may be a reaction
   to a frame another shard is about to emit, transitively, around
   cycles.  Shard *j*'s **grant** is then ``min over in-channels
   (i -> j) of (lb_i + lookahead_ij)``: no frame can arrive before
   its sender's earliest possible action plus the channel's
   propagation delay, so every event strictly before the grant is
   safe to run.
3. Each shard receives its pending messages, runs exactly the events
   with ``time < grant`` (:meth:`Simulator.run_events_before`), and
   returns newly exported frames coalesced into one flush group per
   peer shard.  A grant beyond the horizon lets the shard run to the
   end (:meth:`Simulator.run_until`) and finish.

Three optimizations cut the per-round overhead without touching the
protocol's semantics (see docs/PDES.md, "Tuning"): the fixpoint
relaxation is hoisted into a cached :class:`LookaheadClosure` (the
channel graph is static; only the finished set varies), channel
lookahead includes each source component's declared think time
(``min_delay_usec``) so grants advance further per round, and shards
that are provably idle in a round are skipped instead of
round-tripped.  :class:`SyncStats` counts rounds, steps, skips and
per-channel traffic so the overhead is measurable.

Progress is guaranteed because lookahead is strictly positive on every
cut edge (:class:`~repro.engine.component.Partition` enforces it): the
shard holding the globally minimal ``eff`` always receives a grant
strictly above it, so it processes at least one event per round.

Determinism: a shard's local execution is a sequential simulation, so
rounds only decide *when* a shard may run, never *what order* its
events run in.  Cross-shard arrivals are inserted sorted by
``(arrival time, channel rank, emission seq)``, making the receiving
heap order a pure function of the partition — not of round timing,
transport, or process scheduling.  The one residual freedom is the
interleave of *same-timestamp* events on *different* shards, which has
no global definition; parity across shard counts is therefore asserted
on the timestamp-canonical digest (:func:`repro.trace.merge
.parity_digest`) plus exact per-event-type counts.  At one shard there
is no freedom at all: the engine builds the identical unsharded world
and the raw order-sensitive digest is byte-identical to the golden
traces.

One round driver (:func:`_drive`) runs the protocol over either of two
transports: ``inline`` drives all shard runtimes in-process (messages
still make a pickle round-trip, so it is a faithful — and debuggable —
model of process mode), and ``process`` forks one worker per shard and
speaks a small tuple protocol over pipes.  Supervised runs
(:mod:`repro.engine.supervisor`) use the same driver, transports and
workers; supervision attaches through hooks — reply deadlines and
chaos directives on the transport, snapshot forks, and a per-round
driver hook for checkpoint barriers — that plain runs leave unset.
See docs/PDES.md for the full contract and a worked example.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from multiprocessing import reduction
from multiprocessing.connection import Connection
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.component import (
    ChannelLink,
    Component,
    Partition,
    ShardWorld,
    cover_switches,
    instantiate,
    make_partition,
    make_world,
)
from repro.engine.simulator import Simulator
from repro.host.costs import DEFAULT_COSTS
from repro.trace.merge import (
    merge_records,
    parity_digest,
    shipped_records,
)
from repro.trace.tracer import NULL_TRACER, Tracer

_INF = math.inf


class ShardSyncError(RuntimeError):
    """The conservative-time coordinator detected a stall or a worker
    failure."""


class ShardProgram:
    """Everything a worker needs to build and run its shard.

    Plain picklable data: the validated :class:`Partition` (which
    carries the spec and the component declarations — their hooks are
    module-level functions, pickled by reference), the seed, the
    horizon, and the optional module-level *prepare* hook run on every
    shard after the fabric exists but before any component builds
    (fault-plane attachment and similar world-level setup).
    """

    __slots__ = ("partition", "seed", "duration", "trace", "prepare",
                 "costs", "batch")

    def __init__(self, partition: Partition, seed: int,
                 duration: float, trace: bool,
                 prepare=None, costs=DEFAULT_COSTS,
                 batch: bool = True) -> None:
        self.partition = partition
        self.seed = seed
        self.duration = float(duration)
        self.trace = trace
        self.prepare = prepare
        self.costs = costs
        #: Coalesce each round's exports into one group per peer
        #: shard (the default).  ``False`` ships one group per frame
        #: — the pre-batching wire behaviour, kept as the oracle for
        #: the batched/unbatched equivalence property tests.
        self.batch = batch

    @property
    def spec(self):
        return self.partition.spec

    @property
    def components(self) -> List[Component]:
        return self.partition.components


class _ShardRuntime:
    """One shard's live state: simulator, fabric slice, components.

    Identical whether it lives in a worker process or inline in the
    coordinating process — the constructor takes only the picklable
    :class:`ShardProgram` plus a shard index.
    """

    def __init__(self, program: ShardProgram, index: int) -> None:
        self.program = program
        self.index = index
        self.duration = program.duration
        partition = program.partition
        # trace=True captures an in-memory trace for parity digests.
        # Otherwise a single-shard (in-process) run defers to the
        # ambient default tracer — ``tracer=None`` makes Simulator
        # consult ``get_default_tracer()`` — so ``--trace``-style
        # sinks installed by the caller keep working through the
        # engine.  Multi-shard workers pin NULL_TRACER: a forked
        # worker inheriting the parent's open trace sink would
        # interleave garbage into it.
        tracer = (Tracer(capacity=None) if program.trace
                  else (None if partition.shards == 1 else NULL_TRACER))

        #: Frames exported this window, bucketed per destination
        #: shard as ``{dst_shard: [(rank, arrival, seq, frame,
        #: dst_key), ...]}`` in emission order.  :meth:`_flush`
        #: drains it into the reply's channel-flush groups.
        self._outbox: Dict[int, List[Tuple]] = {}
        self._emit_seq = 0
        self._out = {(ch.src_node, ch.dst_node): ch
                     for ch in partition.channels
                     if ch.src_shard == index}
        self._in_node = {ch.rank: ch.dst_node
                         for ch in partition.channels
                         if ch.dst_shard == index}

        if partition.shards == 1:
            # The unsharded special case is the unsharded world (no
            # ownership filter, no boundary), so its event order is
            # byte-identical to the golden traces.
            self.world = make_world(program.seed, program.spec,
                                    costs=program.costs, tracer=tracer)
        else:
            sim = Simulator(seed=program.seed, tracer=tracer)
            owned = partition.owned_nodes(index)
            fabric = program.spec.build(sim, owned_nodes=owned,
                                        boundary=self._emit)
            self.world = ShardWorld(sim, fabric, shard_index=index,
                                    shard_count=partition.shards,
                                    owned=owned, costs=program.costs)
        self.sim = self.world.sim
        if program.prepare is not None:
            program.prepare(self.world)
        self.states = instantiate(self.world, program.components)
        self._owned_components = [c for c in program.components
                                  if c.name in self.states]
        self.finished = False

    # -- boundary ------------------------------------------------------
    def _emit(self, src_node: str, dst_node: str, arrival: float,
              frame, dst_key: int) -> None:
        """Topology boundary callback: queue an exported frame for the
        coordinator to route.  The mbuf-chain backref is shard-local
        host state (the receiving stack allocates its own chain), so it
        is stripped before the frame crosses the pickle boundary."""
        channel = self._out[(src_node, dst_node)]
        frame.packet._mbuf_chain = None
        self._emit_seq += 1
        bucket = self._outbox.get(channel.dst_shard)
        if bucket is None:
            bucket = self._outbox[channel.dst_shard] = []
        bucket.append((channel.rank, arrival, self._emit_seq, frame,
                       dst_key))

    def _flush(self) -> List[Tuple[int, List[Tuple]]]:
        """Drain the outbox into channel-flush groups ``(dst_shard,
        [messages...])``.  Batched mode ships one group per peer —
        everything a round exported to that shard in a single
        serialized unit; unbatched mode ships one group per frame
        (the differential oracle).  The dict is retained and cleared
        so the bucket map is not reallocated every round."""
        if not self._outbox:
            return []
        if self.program.batch:
            groups = [(dst, self._outbox[dst])
                      for dst in sorted(self._outbox)]
        else:
            groups = [(dst, [message])
                      for dst in sorted(self._outbox)
                      for message in self._outbox[dst]]
        self._outbox.clear()
        return groups

    def insert(self, messages: Sequence[Tuple]) -> None:
        """Schedule inbound frames ``(rank, arrival, seq, frame,
        dst_key)`` sorted by ``(arrival, channel rank, seq)`` — the
        deterministic cross-shard tie order of the contract."""
        for rank, arrival, _seq, frame, dst_key in sorted(
                messages, key=lambda m: (m[1], m[0], m[2])):
            self.world.fabric.import_frame(arrival,
                                           self._in_node[rank],
                                           frame, dst_key)

    # -- round protocol ------------------------------------------------
    def next_event(self) -> float:
        if self.finished:
            return _INF
        when = self.sim.next_event_time()
        return _INF if when is None else when

    def step_with(self, grant: Optional[float],
                  messages: Sequence[Tuple]
                  ) -> Tuple[float, bool, List[Tuple]]:
        """One coordinator round: deliver *messages*, run the granted
        window (a multi-event horizon — every local event strictly
        before the grant runs in this one round-trip), hand back
        (next event, finished, channel-flush groups)."""
        if messages:
            self.insert(messages)
        if grant is not None and not self.finished:
            if grant > self.duration:
                self.sim.run_until(self.duration)
                self.finished = True
            else:
                self.sim.run_events_before(grant)
        return self.next_event(), self.finished, self._flush()

    def finish(self, leftovers: Sequence[Tuple]) -> Dict[str, Any]:
        """Run to the horizon if not already there, absorb leftover
        in-flight frames (their arrivals are past the horizon — they
        exist only so the conservation ledger balances), finalize, and
        collect results."""
        if leftovers:
            self.insert(leftovers)
        if not self.finished:
            self.sim.run_until(self.duration)
            self.finished = True
        self.world.finalize()
        collected = {}
        for comp in self._owned_components:
            collected[comp.name] = comp.run_collect(
                self.world, self.states[comp.name])
        payload: Dict[str, Any] = {
            "collected": collected,
            "events": self.sim.events_processed,
            "conservation": self.world.fabric.conservation(),
            "hop_stats": self.world.fabric.hop_stats(),
        }
        if self.program.trace:
            payload["records"] = shipped_records(self.sim.trace)
            payload["digest"] = self.sim.trace.digest()
        return payload


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def _relay(conn, exc: BaseException) -> None:
    """Send *exc* and its traceback to the coordinator, if the pipe is
    still open."""
    try:
        conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
    except (BrokenPipeError, OSError):  # pragma: no cover
        pass


def _worker_main(conn, program: ShardProgram, index: int) -> None:
    """Worker process entry: build the shard, then serve round
    requests until told to finish."""
    if hasattr(signal, "SIGCHLD"):
        # Snapshot children are reaped automatically; a worker never
        # waits on them.
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        runtime = _ShardRuntime(program, index)
        conn.send(("ready", runtime.next_event()))
        _serve(conn, runtime)
    except Exception as exc:  # noqa: BLE001 - relayed to coordinator
        _relay(conn, exc)
    finally:
        conn.close()


def _serve(conn, runtime: _ShardRuntime) -> None:
    """The worker op loop.  Runs in the original worker and again,
    verbatim, in any activated snapshot child.

    A step request may carry a chaos directive ``(kind, magnitude,
    label)`` (:mod:`repro.faults.chaos`): ``kill`` exits at once,
    ``stall`` sleeps once, ``slow`` sleeps on every later step."""
    slow = 0.0
    while True:
        request = conn.recv()
        op = request[0]
        if op == "step":
            directive = request[3]
            if directive is not None:
                if directive[0] == "kill":
                    os._exit(137)
                elif directive[0] == "stall":
                    time.sleep(directive[1])
                else:
                    slow = directive[1]
            if slow:
                time.sleep(slow)
            ne, finished, outbox = runtime.step_with(request[1],
                                                     request[2])
            conn.send(("stepped", ne, finished, outbox))
        elif op == "snapshot":
            # The coordinator passes a fresh pipe end over the control
            # connection; fork a dormant copy-on-write child that owns
            # it.  If the checkpoint is ever restored, the child wakes
            # up as the new worker with the shard exactly as it was.
            snap = Connection(reduction.recv_handle(conn))
            pid = os.fork()
            if pid == 0:
                conn.close()
                _await_activation(snap, runtime)  # never returns
            snap.close()
            conn.send(("snapshotted", pid))
        elif op == "finish":
            conn.send(("done", runtime.finish(request[1])))
            return
        else:  # pragma: no cover - defensive
            raise ShardSyncError(f"unknown op {op!r}")


def _await_activation(conn, runtime: _ShardRuntime) -> None:
    """Snapshot-child limbo: block until activated or discarded.
    Always exits the process; it must never fall back into the
    parent's stack."""
    status = 0
    try:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            request = ("discard",)
        if request[0] == "activate":
            try:
                # Handshake: prove liveness and let the coordinator
                # verify the restored state against the checkpoint.
                conn.send(("ready", runtime.next_event()))
                _serve(conn, runtime)
            except (EOFError, BrokenPipeError, OSError):
                status = 1
            except Exception as exc:  # noqa: BLE001 - relayed
                status = 1
                _relay(conn, exc)
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(status)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class _WorkerFailure(ShardSyncError):
    """One shard failed one protocol exchange.  ``kind`` is
    ``"crash"``, ``"hang"``, ``"error"`` (a relayed exception),
    ``"chaos-kill"`` or ``"restore-mismatch"``."""

    def __init__(self, shard: Optional[int], kind: str,
                 detail: str = "") -> None:
        super().__init__(f"shard {shard} {kind}: {detail}")
        self.shard = shard
        self.kind = kind
        self.detail = detail


def _roundtrip(messages: Sequence[Tuple]) -> List[Tuple]:
    """Pickle round-trip, so inline mode ships frames with exactly the
    copy semantics of process mode (fresh objects, no shared state)."""
    return pickle.loads(pickle.dumps(messages))


class _Transport:
    """What the round driver talks to: ``ready()``, ``step(grants,
    pending)`` (one reply per stepped shard, ``None`` for the rest),
    ``finish(leftovers)``, ``snapshot()`` and ``close()``.

    The supervision hooks default to off, so a plain run blocks on
    every reply.  A supervisor sets them on a fresh transport:
    ``soft``/``hard`` reply deadlines in wall seconds (a missed soft
    one calls ``on_slow(shard)``), and ``directive_for(shard)``, whose
    chaos directive rides each step request actually sent.
    """

    soft: Optional[float] = None
    hard: Optional[float] = None
    on_slow = None
    directive_for = None
    #: Wall-clock seconds spent serializing cross-shard frames
    #: (surfaced in the sync stats; never part of the deterministic
    #: subset).
    serialization_sec = 0.0

    def snapshot(self, hard: Optional[float] = None):
        """Per-shard snapshot handles, or ``None`` when the transport
        cannot fork (the checkpoint is then logical only)."""
        return None

    def close(self) -> None:
        pass


class _InlineTransport(_Transport):
    """All shard runtimes in this process; the debuggable transport,
    and the only one the one-shard fast path needs.  There is no
    process to hang or to snapshot: deadlines do not apply, a chaos
    ``kill`` fails the shard on the spot (the supervisor then replays
    from the origin), and stall/slow become coordinator-side sleeps."""

    def __init__(self, program: ShardProgram) -> None:
        self.batch = program.batch
        self.runtimes = [_ShardRuntime(program, i)
                         for i in range(program.partition.shards)]

    def _ship(self, messages):
        """Copy *messages* across the (modelled) shard boundary: one
        pickle for the whole per-peer batch, or one per frame when
        batching is off."""
        started = time.perf_counter()
        if self.batch:
            shipped = _roundtrip(messages)
        else:
            shipped = [_roundtrip([m])[0] for m in messages]
        self.serialization_sec += time.perf_counter() - started
        return shipped

    def ready(self) -> List[float]:
        return [rt.next_event() for rt in self.runtimes]

    def step(self, grants, pending):
        replies: List[Optional[Tuple]] = [None] * len(self.runtimes)
        for index, (rt, grant, messages) in enumerate(
                zip(self.runtimes, grants, pending)):
            if grant is None and not messages:
                continue  # not stepped this round
            if self.directive_for is not None:
                directive = self.directive_for(index)
                if directive is not None:
                    if directive[0] == "kill":
                        raise _WorkerFailure(
                            index, "chaos-kill",
                            "inline shard killed by chaos directive")
                    time.sleep(directive[1])
            replies[index] = rt.step_with(
                grant, self._ship(messages) if messages else [])
        return replies

    def finish(self, leftovers, hard: Optional[float] = None):
        return [rt.finish(self._ship(msgs) if msgs else [])
                for rt, msgs in zip(self.runtimes, leftovers)]


def _reap(proc, timeout: float) -> bool:
    """Wait for a worker ``Process`` to exit; True when it did.

    Deliberately NOT ``proc.join(timeout)``: a timed join waits on the
    process *sentinel* pipe, and the write end of that pipe is
    inherited by every dormant snapshot child the worker forked — so
    the sentinel stays silent long after the worker itself is a
    zombie, and a timed join burns its full timeout.  ``is_alive()``
    polls with ``waitpid(WNOHANG)``, which both sees and reaps the
    zombie immediately regardless of who still holds the sentinel.
    """
    if proc is None:
        return True
    deadline = time.monotonic() + timeout
    delay = 0.0005
    while proc.is_alive():
        if time.monotonic() >= deadline:  # pragma: no cover
            return False
        time.sleep(delay)
        delay = min(delay * 2, 0.05)
    return True


class _WorkerRef:
    """One live worker: its pipe, pid, and — for original workers —
    the Process object.  Activated snapshot children have no Process
    (they are grandchildren); liveness falls back to
    ``os.kill(pid, 0)``."""

    __slots__ = ("conn", "pid", "proc")

    def __init__(self, conn, pid: int, proc) -> None:
        self.conn = conn
        self.pid = pid
        self.proc = proc

    def alive(self) -> bool:
        if self.proc is not None:
            return self.proc.is_alive()
        try:
            os.kill(self.pid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            return
        try:
            os.kill(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


class _SnapshotHandle:
    """Coordinator's end of one dormant snapshot child."""

    __slots__ = ("conn", "pid")

    def __init__(self, conn, pid: int) -> None:
        self.conn = conn
        self.pid = pid

    def activate(self):
        self.conn.send(("activate",))
        return self.conn

    def discard(self) -> None:
        try:
            self.conn.send(("discard",))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class _ProcessTransport(_Transport):
    """One forked worker per shard, a pipe each; the parallel
    transport that buys wall-clock on multi-core machines.  Every
    failed exchange raises :class:`_WorkerFailure`; a worker that
    misses the hard deadline while still alive is SIGKILLed (hung),
    so a restore cannot race its late reply."""

    #: Whether :meth:`snapshot` can fork resumable checkpoints.
    can_snapshot = ("fork" in multiprocessing.get_all_start_methods()
                    and hasattr(os, "fork"))
    #: Set once the finish exchange completed: the workers are then
    #: exiting on their own and :meth:`close` need not kill them.
    _done = False

    def __init__(self, program: ShardProgram) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._workers: List[_WorkerRef] = []
        try:
            for index in range(program.partition.shards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_worker_main,
                                   args=(child, program, index),
                                   daemon=True)
                proc.start()
                child.close()
                self._workers.append(_WorkerRef(parent, proc.pid,
                                                proc))
        except Exception:
            self.close()
            raise

    @classmethod
    def from_snapshot(cls, handles: List[_SnapshotHandle]
                      ) -> "_ProcessTransport":
        """Activate a checkpoint's dormant children as the new worker
        set.  Takes ownership of *handles*: on failure the unconsumed
        ones are discarded."""
        self = cls.__new__(cls)
        self._workers = []
        for position, handle in enumerate(handles):
            try:
                conn = handle.activate()
            except (BrokenPipeError, OSError) as exc:
                for leftover in handles[position + 1:]:
                    leftover.discard()
                self.close()
                raise _WorkerFailure(
                    position, "crash",
                    f"snapshot child gone: {exc!r}") from None
            self._workers.append(_WorkerRef(conn, handle.pid, None))
        return self

    def _send(self, index: int, payload) -> None:
        try:
            self._workers[index].conn.send(payload)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerFailure(index, "crash",
                                 f"send failed: {exc!r}") from None

    def _poll(self, index: int, hard: float) -> bool:
        """Wait up to *hard* seconds for a reply from shard *index*,
        reporting a missed soft deadline on the way; False on
        timeout."""
        conn = self._workers[index].conn
        soft = self.soft
        if soft is not None and soft < hard:
            if conn.poll(soft):
                return True
            if self.on_slow is not None:
                self.on_slow(index)
            hard -= soft
        return conn.poll(hard)

    def _recv(self, index: int, hard: Optional[float] = None):
        ref = self._workers[index]
        if hard is not None and not self._poll(index, hard):
            if ref.alive():
                ref.kill()
                raise _WorkerFailure(index, "hang",
                                     f"no reply within {hard}s (alive)")
            raise _WorkerFailure(index, "crash",
                                 f"no reply within {hard}s (dead)")
        try:
            reply = ref.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerFailure(index, "crash",
                                 f"pipe closed: {exc!r}") from None
        if reply[0] == "error":
            raise _WorkerFailure(index, "error", reply[1])
        return reply

    def ready(self, hard: Optional[float] = None) -> List[float]:
        return [self._recv(i, hard)[1]
                for i in range(len(self._workers))]

    def step(self, grants, pending):
        replies: List[Optional[Tuple]] = [None] * len(self._workers)
        active = []
        for index, (grant, messages) in enumerate(zip(grants,
                                                      pending)):
            if grant is None and not messages:
                continue  # not stepped this round
            directive = (None if self.directive_for is None
                         else self.directive_for(index))
            started = time.perf_counter()
            self._send(index, ("step", grant, messages, directive))
            self.serialization_sec += time.perf_counter() - started
            active.append(index)
        for index in active:
            replies[index] = self._recv(index, self.hard)[1:]
        return replies

    def finish(self, leftovers, hard: Optional[float] = None):
        for index, messages in enumerate(leftovers):
            self._send(index, ("finish", messages))
        payloads = [self._recv(i, hard)[1]
                    for i in range(len(self._workers))]
        self._done = True
        return payloads

    def snapshot(self, hard: Optional[float] = None
                 ) -> Optional[List[_SnapshotHandle]]:
        if not self.can_snapshot:
            return None
        handles: List[_SnapshotHandle] = []
        try:
            for index, ref in enumerate(self._workers):
                parent, child = multiprocessing.Pipe()
                try:
                    ref.conn.send(("snapshot",))
                    reduction.send_handle(ref.conn, child.fileno(),
                                          ref.pid)
                except (BrokenPipeError, OSError) as exc:
                    parent.close()
                    raise _WorkerFailure(
                        index, "crash",
                        f"snapshot send: {exc!r}") from None
                finally:
                    child.close()
                reply = self._recv(index, hard)
                handles.append(_SnapshotHandle(parent, reply[1]))
            return handles
        except _WorkerFailure:
            for handle in handles:
                handle.discard()
            raise

    def close(self) -> None:
        """Close the pipes and reap the workers.  After a completed
        finish exchange they exit on their own.  Otherwise — a failed
        or abandoned run — every survivor is SIGKILLed first: a worker
        blocked in ``recv`` never sees EOF, because it inherited its
        own pipe's parent end when it was forked."""
        for ref in self._workers:
            try:
                ref.conn.close()
            except OSError:  # pragma: no cover
                pass
        for ref in self._workers:
            if not self._done and ref.alive():
                ref.kill()
            _reap(ref.proc, timeout=10.0)
        self._workers = []


_TRANSPORTS = {"inline": _InlineTransport, "process": _ProcessTransport}


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def in_channel_lists(partition: Partition) -> List[List[ChannelLink]]:
    """Per-destination-shard lists of the partition's channels."""
    in_channels: List[List[ChannelLink]] = [
        [] for _ in range(partition.shards)]
    for channel in partition.channels:
        in_channels[channel.dst_shard].append(channel)
    return in_channels


def round_budget(partition: Partition, duration: float,
                 extra_rounds: int = 0) -> int:
    """The coordinator's termination guard: an upper bound on how many
    synchronous rounds a healthy run can take.  *extra_rounds* widens
    the budget for the additional quiescent rounds the supervisor's
    checkpoint barriers insert."""
    min_lookahead = partition.min_lookahead()
    if min_lookahead:
        budget = (10_000 + int(duration / min_lookahead + 1)
                  * 16 * partition.shards)
    else:
        budget = 16 + partition.shards
    return budget + extra_rounds


def effective_next_events(ne: Sequence[float],
                          pending: Sequence[Sequence[Tuple]]
                          ) -> List[float]:
    """Effective next-event per shard: its own heap, or an undelivered
    arrival, whichever is earlier."""
    eff = []
    for value, messages in zip(ne, pending):
        for message in messages:
            if message[1] < value:
                value = message[1]
        eff.append(value)
    return eff


class LookaheadClosure:
    """The lookahead fixpoint relaxation, hoisted out of the round
    loop.

    The channel graph is static for a run; the only round-varying
    input to the old per-round relaxation was which shards had
    finished.  For a fixed finished set the relaxed grant bound is

        ``grant_j = min over unfinished k of (eff_k + G[j][k])``

    where ``G[j][k]`` is the cheapest lookahead path from shard *k*'s
    clock to shard *j*'s grant: the minimum over *j*'s in-channels
    ``i -> j`` (``i`` unfinished) of (shortest lookahead path
    ``k -> ... -> i`` over edges whose source is unfinished)
    ``+ L_ij``.  That matrix is computed once per finished set — at
    most ``shards + 1`` times per run, since the set only grows — and
    each round's grants become one min-fold over it.
    """

    def __init__(self, partition: Partition,
                 in_channels: Optional[List[List[ChannelLink]]] = None
                 ) -> None:
        self.partition = partition
        self.in_channels = (in_channel_lists(partition)
                            if in_channels is None else in_channels)
        self._cache: Dict[FrozenSet[int], List[List[float]]] = {}

    def gains(self, finished: Sequence[bool]) -> List[List[float]]:
        """``G[j][k]`` for the given finished set (cached)."""
        key = frozenset(i for i, done in enumerate(finished) if done)
        matrix = self._cache.get(key)
        if matrix is None:
            matrix = self._cache[key] = self._build(key)
        return matrix

    def _build(self, done: FrozenSet[int]) -> List[List[float]]:
        n = self.partition.shards
        # dist[k][i]: shortest lookahead path k -> ... -> i over
        # channels whose source shard is unfinished (edges out of
        # finished shards are dead — they will never emit again).
        # Paths therefore never pass through a finished shard.
        dist = [[_INF] * n for _ in range(n)]
        for k in range(n):
            if k not in done:
                dist[k][k] = 0.0
        live = [ch for ch in self.partition.channels
                if ch.src_shard not in done]
        changed = True
        while changed:
            changed = False
            for ch in live:
                src, dst, edge = (ch.src_shard, ch.dst_shard,
                                  ch.lookahead_usec)
                for k in range(n):
                    bound = dist[k][src] + edge
                    if bound < dist[k][dst]:
                        dist[k][dst] = bound
                        changed = True
        gains = [[_INF] * n for _ in range(n)]
        for j in range(n):
            row = gains[j]
            for ch in self.in_channels[j]:
                i = ch.src_shard
                if i in done:
                    continue
                for k in range(n):
                    bound = dist[k][i] + ch.lookahead_usec
                    if bound < row[k]:
                        row[k] = bound
        return gains


def compute_grants(partition: Partition, ne: Sequence[float],
                   finished: Sequence[bool],
                   pending: Sequence[Sequence[Tuple]],
                   in_channels: Optional[List[List[ChannelLink]]] = None,
                   closure: Optional[LookaheadClosure] = None
                   ) -> List[Optional[float]]:
    """One round of the conservative grant computation: effective
    next events folded over the cached lookahead closure, giving each
    unfinished shard its grant (``None`` for finished shards).

    A shard's next action may be triggered by a frame it has not seen
    yet — one that another shard will emit when *its* next action
    runs, possibly in response to a frame from a third shard, and so
    on around cycles (a gateway bouncing a shard's own traffic back
    at it).  The closure carries exactly that transitive relaxation;
    the driver holds a :class:`LookaheadClosure` across rounds and
    passes it in (a transient one is built when omitted, e.g. by tests
    calling this directly).

    This is the single source of truth for the sync protocol; its one
    caller is :func:`_drive`, which plain and supervised runs share.
    """
    if closure is None:
        closure = LookaheadClosure(partition, in_channels)
    eff = effective_next_events(ne, pending)
    gains = closure.gains(finished)
    grants: List[Optional[float]] = []
    for j in range(partition.shards):
        if finished[j]:
            grants.append(None)
            continue
        grant = _INF
        for k, gain in enumerate(gains[j]):
            bound = eff[k] + gain
            if bound < grant:
                grant = bound
        grants.append(grant)
    return grants


class SyncStats:
    """Per-run counters of the conservative-sync protocol.

    Everything here is deterministic — a pure function of the
    partition and the workload — except ``serialization_sec``, which
    is wall clock and therefore kept out of :meth:`as_dict` (the form
    embedded in experiment results, where serial/parallel/cached
    parity is asserted byte-for-byte).
    """

    __slots__ = ("rounds", "steps", "skipped_steps", "grants_issued",
                 "channel_frames", "channel_wire_bytes",
                 "serialization_sec", "_channel_names")

    def __init__(self, partition: Partition) -> None:
        #: Synchronous coordinator round-trips taken.
        self.rounds = 0
        #: Shard-step requests actually issued (rounds × shards,
        #: minus the skipped and finished ones).
        self.steps = 0
        #: Idle shards the coordinator left alone instead of
        #: round-tripping a no-op grant.
        self.skipped_steps = 0
        #: Non-``None`` grants computed (null grants to finished
        #: shards excluded).
        self.grants_issued = 0
        self._channel_names = tuple(
            f"{ch.src_node}->{ch.dst_node}"
            for ch in partition.channels)
        #: Frames / wire bytes shipped per channel, keyed
        #: ``"src_node->dst_node"``.
        self.channel_frames = {name: 0
                               for name in self._channel_names}
        self.channel_wire_bytes = {name: 0
                                   for name in self._channel_names}
        self.serialization_sec = 0.0

    def count_frame(self, rank: int, frame) -> None:
        name = self._channel_names[rank]
        self.channel_frames[name] += 1
        self.channel_wire_bytes[name] += frame.wire_len

    def as_dict(self) -> Dict[str, Any]:
        """The deterministic subset, for embedding in results."""
        return {
            "rounds": self.rounds,
            "steps": self.steps,
            "skipped_steps": self.skipped_steps,
            "grants_issued": self.grants_issued,
            "frames": sum(self.channel_frames.values()),
            "wire_bytes": sum(self.channel_wire_bytes.values()),
            "channel_frames": dict(self.channel_frames),
            "channel_wire_bytes": dict(self.channel_wire_bytes),
        }


def _drive(transport, partition: Partition, duration: float,
           stats: SyncStats, start: Optional[Tuple] = None,
           on_round=None, extra_rounds: int = 0
           ) -> Tuple[List[List[Tuple]], int]:
    """Run the synchronous round protocol to completion.  Returns the
    per-shard leftover messages (all past the horizon) and the number
    of the last round; *stats* counts rounds, steps issued/skipped and
    per-channel traffic.

    Round-count reduction, on top of the widened lookahead baked into
    the channel graph: grants are multi-event horizons (one round
    runs *every* local event below the grant), and shards that are
    provably idle this round — nothing to deliver, no local event
    below the grant, grant within the horizon — are skipped entirely
    instead of being round-tripped for a no-op.  Skipping cannot
    stall: the shard holding the globally minimal effective next
    event always receives a grant strictly above it (positive
    lookahead), so it is never skipped, and a quiescent world drives
    every grant past the horizon, which the skip test never elides.

    The supervisor (:mod:`repro.engine.supervisor`) runs this same
    loop.  *start* resumes from a saved cut ``(ne, finished, pending,
    round)`` instead of the workers' ready reports.
    ``on_round(round, ne, finished, pending, grants)`` runs once a
    round, after the grants are computed and before the idle test; it
    may lower grants in place (never raise them) and may snapshot the
    cut.  *extra_rounds* widens the termination guard for the rounds
    such lowering adds.
    """
    shards = partition.shards
    closure = LookaheadClosure(partition)
    max_rounds = round_budget(partition, duration, extra_rounds)
    if start is None:
        ne = list(transport.ready())
        finished = [False] * shards
        # Per-shard delivery buffers, reused across rounds (cleared,
        # not reallocated) — safe because both transports serialize
        # messages before step() returns.
        pending: List[List[Tuple]] = [[] for _ in range(shards)]
        round_no = 0
    else:
        ne, finished, pending, round_no = start
    stepped = [False] * shards
    while not all(finished):
        round_no += 1
        stats.rounds += 1
        if round_no > max_rounds:
            raise ShardSyncError(
                f"no termination after {max_rounds} rounds "
                f"(min lookahead {partition.min_lookahead()!r}us, "
                f"duration {duration!r}us)")
        grants = compute_grants(partition, ne, finished, pending,
                                closure=closure)
        if on_round is not None:
            on_round(round_no, ne, finished, pending, grants)
        for j in range(shards):
            grant = grants[j]
            if grant is None:
                # Finished: stepped only to deliver late arrivals.
                stepped[j] = bool(pending[j])
                continue
            stats.grants_issued += 1
            if (not pending[j] and grant <= ne[j]
                    and grant <= duration):
                # Skip-idle: the grant would run nothing and there is
                # nothing to deliver; leave the shard alone (its ne
                # stays valid — it neither ran nor received).
                grants[j] = None
                stats.skipped_steps += 1
                stepped[j] = False
                continue
            stepped[j] = True
        replies = transport.step(grants, pending)
        for bucket in pending:
            bucket.clear()
        for j in range(shards):
            if not stepped[j]:
                # The shard was not stepped, so its ne/finished state
                # is unchanged.
                continue
            stats.steps += 1
            ne_j, finished_j, groups = replies[j]
            ne[j] = ne_j
            finished[j] = finished_j
            for dst, messages in groups:
                for message in messages:
                    stats.count_frame(message[0], message[3])
                pending[dst].extend(messages)
    return pending, round_no


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class ShardedRun:
    """The merged outcome of one sharded execution.

    Attributes
    ----------
    collected:
        ``{component name: collect-hook result}`` over every
        component, merged across shards.
    events / per_shard_events:
        Total and per-shard simulator event counts.
    rounds:
        Coordinator rounds taken (1 for a single shard).
    sync:
        Deterministic sync-protocol counters
        (:meth:`SyncStats.as_dict`: rounds, steps, skipped steps,
        grants issued, frames / wire bytes per channel).
    serialization_sec:
        Wall-clock seconds the transport spent serializing
        cross-shard frames (not deterministic; kept out of ``sync``).
    conservation:
        Per-shard fabric ledgers; :meth:`total_conservation` folds
        them and checks the cross-shard terms cancel.
    records / parity / trace_digest:
        Present when tracing: the deterministically merged record
        stream, its timestamp-canonical parity digest, and — at one
        shard only — the raw order-sensitive digest comparable to the
        golden files.
    """

    def __init__(self, payloads: List[Dict[str, Any]], rounds: int,
                 partition: Partition, mode: str,
                 sync: Optional[Dict[str, Any]] = None,
                 serialization_sec: float = 0.0) -> None:
        self.partition = partition
        self.shards = partition.shards
        self.mode = mode
        self.rounds = rounds
        self.sync = sync
        self.serialization_sec = serialization_sec
        self.collected: Dict[str, Any] = {}
        for payload in payloads:
            self.collected.update(payload["collected"])
        self.per_shard_events = [p["events"] for p in payloads]
        self.events = sum(self.per_shard_events)
        self.conservation = [p["conservation"] for p in payloads]
        self.hop_stats = [p["hop_stats"] for p in payloads]
        self.records = None
        self.parity = None
        self.trace_digest = None
        if payloads and "records" in payloads[0]:
            self.records = merge_records([p["records"]
                                          for p in payloads])
            self.parity = parity_digest(self.records)
            if self.shards == 1:
                self.trace_digest = payloads[0]["digest"]

    def total_conservation(self) -> Dict[str, int]:
        """Fold the per-shard ledgers; raises if any shard's local
        invariant or the global export/import balance is broken."""
        total: Dict[str, int] = {}
        for ledger in self.conservation:
            drops = sum(v for k, v in ledger.items()
                        if k.startswith("drops_"))
            lhs = (ledger["sent"] + ledger["duplicated"]
                   + ledger["imported"])
            rhs = (ledger["delivered"] + drops + ledger["in_flight"]
                   + ledger["exported"])
            if lhs != rhs:
                raise ShardSyncError(
                    f"per-shard conservation broken: {ledger}")
            for key, value in ledger.items():
                total[key] = total.get(key, 0) + value
        if total and total["exported"] != total["imported"]:
            raise ShardSyncError(
                f"cross-shard ledger unbalanced: "
                f"exported={total['exported']} "
                f"imported={total['imported']}")
        return total


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ShardedEngine:
    """Partition a component scenario and run it under conservative
    time synchronization.

    Parameters
    ----------
    spec:
        The :class:`~repro.net.topology.TopologySpec`.  Switches no
        component claims get implicit
        :class:`~repro.engine.component.SwitchComponent` s.
    components:
        Declaration-ordered components; the order defines build/start
        event-creation order (the determinism contract).
    shards:
        Requested shard count; clamped to the component count.
    mode:
        ``"auto"`` (inline at one shard, processes otherwise),
        ``"inline"``, or ``"process"``.
    assignment:
        Optional explicit placement (sequence of component-name
        groups) overriding the weight-balancing partitioner.
    prepare:
        Optional module-level ``fn(world)`` run on every shard after
        the fabric is built, before component builds.
    trace:
        Capture and merge trace records (golden/parity workflows).
    batch:
        Coalesce each round's exported frames into one group per
        peer shard (default).  ``False`` ships one group per frame —
        the equivalence-testing oracle.
    """

    def __init__(self, spec, components: Sequence[Component], *,
                 shards: int = 1, mode: str = "auto",
                 assignment: Optional[Sequence[Sequence[str]]] = None,
                 prepare=None, costs=DEFAULT_COSTS,
                 trace: bool = False, batch: bool = True) -> None:
        if mode not in ("auto", "inline", "process"):
            raise ValueError(f"unknown mode {mode!r}")
        covered = cover_switches(spec, components)
        self.partition = make_partition(spec, covered, shards,
                                        explicit=assignment)
        self.mode = mode
        self.prepare = prepare
        self.costs = costs
        self.trace = trace
        self.batch = batch

    @property
    def shards(self) -> int:
        return self.partition.shards

    def run(self, duration: float, seed: int = 0) -> ShardedRun:
        """Execute until *duration* microseconds; returns the merged
        :class:`ShardedRun`."""
        program = ShardProgram(self.partition, seed=seed,
                               duration=duration, trace=self.trace,
                               prepare=self.prepare, costs=self.costs,
                               batch=self.batch)
        mode = self.mode
        if mode == "auto":
            mode = "inline" if self.partition.shards == 1 \
                else "process"
        transport = _TRANSPORTS[mode](program)
        stats = SyncStats(self.partition)
        try:
            leftovers, rounds = _drive(transport, self.partition,
                                       program.duration, stats)
            payloads = transport.finish(leftovers)
        finally:
            transport.close()
        return ShardedRun(payloads, rounds, self.partition,
                          mode, sync=stats.as_dict(),
                          serialization_sec=transport
                          .serialization_sec)

    def run_supervised(self, duration: float, seed: int = 0, *,
                       policy=None, chaos=None):
        """Execute under the supervision layer — failure detection,
        checkpoint/restore, degradation — returning a
        :class:`~repro.engine.supervisor.SupervisedRun`.  Results and
        trace digests are identical to :meth:`run`; see
        :mod:`repro.engine.supervisor`."""
        from repro.engine.supervisor import Supervisor
        return Supervisor(self, policy=policy,
                          chaos=chaos).run(duration, seed)
