"""Deterministic epoch checkpointing for sharded runs.

The conservative round protocol gives us natural *quiescent points*:
between rounds, every in-flight frame sits in the coordinator's
pending lists and every shard's state is a pure function of the events
it has run.  A checkpoint taken there is a consistent global cut with
no coordination beyond what the protocol already does.

Barriers
--------
Quiescent points at useful moments are *manufactured*, not waited for:
with ``CheckpointPolicy.epoch_usec = E`` the supervisor caps every
grant at the next multiple of E, so no shard runs an event at or past
the barrier until every shard has run every event before it.  Capping
a grant is always safe — a grant is a permission ceiling, not a
schedule — and it changes nothing observable: each shard still runs
exactly its local events in exactly its local order, so traces (and
golden digests) are byte-identical with barriers on or off.  This
matters doubly at one shard, where the plain driver grants the whole
horizon in a single round and there would otherwise be no mid-run cut
to resume from.

Snapshots
---------
Component state is live Python — generator frames, closures over
hosts, bound methods on the event heap — and deliberately not
picklable.  Process-mode workers therefore snapshot by ``os.fork()``:
the child inherits a copy-on-write image of the entire shard
(simulator clock and heap, named RNG streams, tracer ring, fabric
ledgers) and goes dormant on a fresh pipe whose worker end is passed
over the control connection with
:func:`multiprocessing.reduction.send_handle`.  Restoring a checkpoint
activates the dormant children as the new workers; discarding it just
closes their pipes.  Inline transports have no process boundary to
fork across, so their checkpoints are *logical* (coordinator state
only, not resumable) and restore falls back to deterministic replay
from the origin — which is always correct, because the round protocol
is a pure function of the partition.

The coordinator-side cut (next-event estimates, finished flags,
in-flight frames) is pickled at capture time so later rounds cannot
mutate it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class CheckpointPolicy:
    """When (and whether) the supervisor cuts epochs.

    ``epoch_usec`` is the barrier spacing in *simulated* microseconds;
    0 disables barriers (and with them checkpoints), leaving the
    supervisor's round structure identical to the plain driver's.
    Spacing is sim-time, not wall-time or round-count, so epoch *k*
    names the same cut at every shard count and on every machine —
    the property the chaos plane and the resume-parity CI job lean on.
    """

    epoch_usec: float = 0.0

    def __post_init__(self):
        if self.epoch_usec < 0.0:
            raise ValueError("epoch_usec must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.epoch_usec > 0.0

    def barrier(self, epoch: int) -> float:
        """Sim time of the *epoch*-th barrier (1-based)."""
        return self.epoch_usec * epoch


class Checkpoint:
    """One consistent cut: coordinator state plus (in process mode)
    per-shard snapshot handles.

    ``handles`` is owned by the transport that produced it — an opaque
    sequence the supervisor passes back to
    ``_ProcessTransport.from_snapshot``; ``None`` marks a logical
    checkpoint (restore must replay from the origin instead).
    """

    __slots__ = ("epoch", "round", "_frozen", "handles")

    def __init__(self, epoch: int, round_: int, ne: List[float],
                 finished: List[bool],
                 pending: List[List[Tuple]],
                 handles: Optional[List[Any]]) -> None:
        self.epoch = epoch
        self.round = round_
        # Pickle the cut now: the drive loop mutates these lists.
        self._frozen = pickle.dumps((list(ne), list(finished),
                                     [list(p) for p in pending]))
        self.handles = handles

    @property
    def resumable(self) -> bool:
        return self.handles is not None

    def state(self) -> Tuple[List[float], List[bool],
                             List[List[Tuple]]]:
        """A fresh copy of ``(ne, finished, pending)`` as captured."""
        return pickle.loads(self._frozen)

    def describe(self) -> Dict[str, Any]:
        ne, finished, pending = self.state()
        return {
            "epoch": self.epoch,
            "round": self.round,
            "resumable": self.resumable,
            "finished_shards": sum(finished),
            "in_flight": sum(len(p) for p in pending),
        }

    def discard(self) -> None:
        """Release snapshot children, if any."""
        handles, self.handles = self.handles, None
        if handles:
            for handle in handles:
                handle.discard()
