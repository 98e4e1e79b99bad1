"""The pre-overhaul event queue: the oracle for the differential tests.

The simulator's :class:`~repro.engine.event.EventQueue` replaced this
heap of :class:`~repro.engine.event.Event` objects with a tuple-keyed,
lazy-delete, pooling implementation.  This queue is kept verbatim as
the specification the production queue is property-tested against
(``test_queue_differential.py``); the simulator never uses it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.engine.event import Event


class LegacyEventQueue:
    """A heap of :class:`Event` objects ordered by ``Event.__lt__``.

    Its observable behaviour (time order, FIFO tie-break,
    cancellation semantics) is the specification for
    :class:`~repro.engine.event.EventQueue`.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Schedule *callback(*args)* at absolute simulated *time*."""
        event = Event(time, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
