"""A multi-queue network adaptor with receive-side scaling.

The modern descendant of the simple interrupt-per-packet NIC: N
receive rings, each with its own MSI-X vector, and a seeded Toeplitz
hash over the flow 4-tuple steering every frame to one ring.  Each
ring interrupts its own core, so interrupt and protocol-input load
spreads across the host's cores while per-flow packet order is
preserved (a flow's packets always hash to the same ring).

The demultiplexing is *coarser* than LRP's: RSS picks a core, not a
socket.  Everything after the steering decision is still the eager
4.4BSD receive path, which is exactly what makes the six-architecture
comparison interesting (see docs/ARCHITECTURES.md).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.link import Network
from repro.net.packet import Frame
from repro.nic.base import BaseNic
from repro.nic.demux import DEFAULT_RSS_SEED, RssHasher
from repro.trace.tracer import flow_of

#: Per-queue receive DMA ring size, frames.
DEFAULT_RX_RING = 64


class MultiQueueNic(BaseNic):
    """RSS NIC: N rings, N interrupt vectors, one Toeplitz hasher.

    The attached stack must provide ``rx_interrupt_on(queue, frame,
    ring_release)`` returning an :class:`~repro.host.interrupts.IntrTask`
    to post on core *queue*'s CPU, or ``None`` to drop silently.
    """

    def __init__(self, sim: Simulator, network: Network, addr: IPAddr,
                 queues: int = 1, rss_seed: int = DEFAULT_RSS_SEED,
                 rx_ring_size: int = DEFAULT_RX_RING, **base_kwargs):
        super().__init__(sim, network, addr, **base_kwargs)
        if queues < 1:
            raise ValueError(f"need at least one queue, got {queues}")
        self.queues = queues
        self.hasher = RssHasher(rss_seed)
        self.rx_ring_size = rx_ring_size
        self.rx_ring_used = [0] * queues
        #: Frames steered per queue (includes ring-overflow drops).
        self.rx_steered = [0] * queues
        self.stack = None  # installed by the scenario builder
        self._releases = [self._make_release(q) for q in range(queues)]

    def _make_release(self, queue: int):
        def release() -> None:
            self.rx_ring_used[queue] -= 1
        return release

    def receive_frame(self, frame: Frame) -> None:
        self.rx_frames += 1
        trace = self.sim.trace
        if self.stalled:
            self.rx_drops_stall += 1
            if trace.enabled:
                trace.pkt_drop("rx_ring", flow_of(frame.packet),
                               reason="nic_stall")
            return
        queue = self.hasher.queue_for(frame.packet, self.queues)
        self.rx_steered[queue] += 1
        if self.rx_ring_used[queue] >= self.rx_ring_size:
            self.rx_drops_ring += 1
            if trace.enabled:
                trace.pkt_drop("rx_ring", flow_of(frame.packet),
                               reason="ring_full")
            return
        if self.stack is None:
            self.rx_drops_ring += 1
            if trace.enabled:
                trace.pkt_drop("rx_ring", flow_of(frame.packet),
                               reason="no_stack")
            return
        task = self.stack.rx_interrupt_on(queue, frame,
                                          self._releases[queue])
        if task is None:
            return
        if trace.enabled:
            trace.pkt_enqueue("rx_ring", flow_of(frame.packet))
        self.rx_ring_used[queue] += 1
        self.stack.kernel.intr.post(task, core=queue)
