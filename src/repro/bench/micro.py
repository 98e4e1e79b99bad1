"""Microbenchmarks for the engine's individual hot paths.

Each benchmark returns a plain dict (the ``BENCH_*.json`` fragment for
that benchmark).  Workloads are deterministic — sizes fixed per mode,
pseudo-random times from a seeded generator — so two runs on the same
machine measure the same work.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict

from repro.engine.event import EventQueue
from repro.engine.simulator import Simulator
from repro.mem.pool import MbufPool


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_event_queue(quick: bool = False) -> Dict[str, Any]:
    """Push/pop throughput of the event heap.

    The schedule-then-fire pattern of the simulator: push a block of
    events at seeded pseudo-random times, pop them all back in order.
    """
    n = 20_000 if quick else 100_000
    repeats = 3 if quick else 5
    rng = random.Random(1234)
    times = [rng.random() * 1e6 for _ in range(n)]

    def run() -> None:
        queue = EventQueue()
        push = queue.push
        for t in times:
            push(t, _noop)
        pop = queue.pop
        while pop() is not None:
            pass

    wall = _best_of(run, repeats)
    ops = 2 * n  # one push + one pop per event
    return {"events": n, "ops": ops, "wall_sec": round(wall, 6),
            "ops_per_sec": round(ops / wall, 1)}


def bench_event_queue_cancel(quick: bool = False) -> Dict[str, Any]:
    """Timer-churn pattern: schedule, cancel half, pop the rest.

    This is what the TCP stack does to the queue — most retransmit and
    delayed-ACK timers are cancelled long before they would fire — and
    is the case an O(1)-cancel lazy-delete design must keep cheap.
    """
    n = 20_000 if quick else 100_000
    repeats = 3 if quick else 5
    rng = random.Random(5678)
    times = [rng.random() * 1e6 for _ in range(n)]

    def run() -> None:
        queue = EventQueue()
        push = queue.push
        events = [push(t, _noop) for t in times]
        for event in events[::2]:
            event.cancel()
        pop = queue.pop
        while pop() is not None:
            pass

    wall = _best_of(run, repeats)
    ops = 2 * n + n // 2  # push + pop + cancel
    return {"events": n, "cancelled": n // 2, "ops": ops,
            "wall_sec": round(wall, 6),
            "ops_per_sec": round(ops / wall, 1)}


def bench_mbuf_pool(quick: bool = False) -> Dict[str, Any]:
    """Mbuf chain allocate/free throughput at mixed packet sizes."""
    n = 20_000 if quick else 100_000
    repeats = 3 if quick else 5
    sizes = [14, 64, 108, 200, 1024, 1460, 4096, 8192]

    def run() -> None:
        pool = MbufPool(capacity=4096)
        allocate = pool.allocate
        local_sizes = sizes
        for i in range(n):
            chain = allocate(local_sizes[i & 7])
            chain.free()

    wall = _best_of(run, repeats)
    return {"allocs": n, "wall_sec": round(wall, 6),
            "allocs_per_sec": round(n / wall, 1)}


def bench_packet_roundtrip(quick: bool = False) -> Dict[str, Any]:
    """Wall-clock cost of one UDP ping-pong round trip, end to end.

    Two full 4.4BSD stacks on a LAN; the client ping-pongs 1-byte
    datagrams.  Reports wall microseconds of *host* CPU per simulated
    round trip — the end-to-end per-packet overhead of the whole
    engine + host + stack path.
    """
    from repro.apps.pingpong import pingpong_client, pingpong_server
    from repro.core import Architecture
    from repro.stats.metrics import LatencyRecorder
    from repro.experiments.common import (
        CLIENT_A_ADDR,
        SERVER_ADDR,
    )
    from repro.engine.component import make_world

    iterations = 200 if quick else 1_000
    repeats = 2 if quick else 3

    def run() -> Dict[str, Any]:
        world = make_world(7)
        server = world.add_host(SERVER_ADDR, Architecture.BSD)
        client = world.add_host(CLIENT_A_ADDR, Architecture.BSD)
        recorder = LatencyRecorder()
        done: list = []
        server.spawn("pp-server", pingpong_server(9000))
        client.spawn("pp-client", pingpong_client(
            world.sim, SERVER_ADDR, 9000, iterations, recorder,
            done=done))
        world.run(60_000_000.0)
        return {"completed": len(done) == 1,
                "events": world.sim.events_processed}

    best_wall = float("inf")
    meta: Dict[str, Any] = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        meta = run()
        best_wall = min(best_wall, time.perf_counter() - t0)
    return {"rtts": iterations,
            "events": meta["events"],
            "wall_sec": round(best_wall, 6),
            "usec_per_rtt": round(best_wall * 1e6 / iterations, 3),
            "events_per_sec": round(meta["events"] / best_wall, 1)}


def _noop() -> None:
    return None
