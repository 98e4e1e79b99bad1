"""Table 1: baseline latency and throughput.

Demonstrates "that the LRP architecture is competitive with
traditional network subsystem implementations in terms of these basic
performance criteria" — i.e. laziness costs nothing at low load.

* round-trip latency: 1-byte UDP ping-pong;
* UDP throughput: sliding-window protocol, checksums disabled;
* TCP throughput: 24 MB transfer with 32 KB socket buffers.

The paper's fourth system (unmodified SunOS with the Fore ATM driver)
is reproduced synthetically: same 4.4BSD architecture with the Fore
driver's documented per-packet overhead added to the interrupt path
(the paper attributes that system's deficit to "performance problems
with the Fore driver").
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.engine.component import make_world
from repro.core import Architecture
from repro.host.costs import DEFAULT_COSTS
from repro.apps import (
    pingpong_client,
    pingpong_server,
    udp_sliding_window_sink,
    udp_sliding_window_source,
)
from repro.engine.process import Syscall
from repro.runner import SweepRunner
from repro.stats.metrics import LatencyRecorder
from repro.stats.report import format_table
from repro.experiments.common import (
    CLIENT_A_ADDR,
    SERVER_ADDR,
    delayed,
)

#: Extra per-packet interrupt cost modelling the Fore driver's
#: problems (Table 1 row "SunOS, Fore driver"; see module docstring).
FORE_DRIVER_EXTRA_USEC = 60.0

SYSTEMS = ("SunOS-Fore", Architecture.BSD, Architecture.NI_LRP,
           Architecture.SOFT_LRP)


def _build(system, seed: int):
    if system == "SunOS-Fore":
        costs = DEFAULT_COSTS.with_overrides(
            hw_intr=DEFAULT_COSTS.hw_intr + FORE_DRIVER_EXTRA_USEC)
        world = make_world(seed, costs=costs)
        arch = Architecture.BSD
    else:
        world = make_world(seed)
        arch = system
    server = world.add_host(SERVER_ADDR, arch)
    client = world.add_host(CLIENT_A_ADDR, arch)
    return world, server, client


def measure_latency(system, iterations: int = 2000,
                    seed: int = 1) -> float:
    """Mean 1-byte ping-pong RTT in microseconds."""
    world, server, client = _build(system, seed)
    recorder = LatencyRecorder()
    done = []
    server.spawn("pp-server", pingpong_server(7))
    client.spawn("pp-client",
                 delayed(20_000.0, pingpong_client(
                     world.sim, SERVER_ADDR, 7, iterations, recorder,
                     done=done)))
    world.run(iterations * 4_000.0 + 100_000.0)
    samples = recorder.samples[100:]  # warmup trim
    return sum(samples) / len(samples) if samples else float("nan")


def measure_udp_throughput(system, total_mb: float = 8.0,
                           msg_bytes: int = 8192, window: int = 16,
                           seed: int = 1) -> float:
    """Sliding-window UDP goodput in Mbit/s (checksums off, as in the
    paper)."""
    world, server, client = _build(system, seed)
    total_msgs = int(total_mb * 1024 * 1024 / msg_bytes)
    received = []
    done = []
    server.spawn("udp-sink", udp_sliding_window_sink(5001, received))
    client.spawn("udp-src",
                 delayed(20_000.0, udp_sliding_window_source(
                     SERVER_ADDR, 5001, window, msg_bytes, total_msgs,
                     ack_port=5002, done=done)))
    limit = 60_000_000.0
    start = 20_000.0
    while not done and world.sim.now < limit:
        world.sim.run_until(world.sim.now + 5_000.0)
    elapsed = world.sim.now - start
    bytes_done = sum(received)
    return bytes_done * 8.0 / elapsed  # bits/usec == Mbit/s


def measure_tcp_throughput(system, total_mb: float = 24.0,
                           buf_bytes: int = 32 * 1024,
                           seed: int = 1) -> float:
    """Bulk TCP goodput in Mbit/s (24 MB, 32 KB buffers)."""
    world, server, client = _build(system, seed)
    total_bytes = int(total_mb * 1024 * 1024)
    finished = []

    def receiver():
        sock = yield Syscall("socket", stype="tcp",
                             rcv_hiwat=buf_bytes, snd_hiwat=buf_bytes)
        yield Syscall("bind", sock=sock, port=5003)
        yield Syscall("listen", sock=sock, backlog=2)
        conn = yield Syscall("accept", sock=sock)
        got = 0
        while got < total_bytes:
            n = yield Syscall("recv", sock=conn, max_bytes=65536)
            if n == 0:
                break
            got += n
        finished.append((world.sim.now, got))

    def sender():
        sock = yield Syscall("socket", stype="tcp",
                             rcv_hiwat=buf_bytes, snd_hiwat=buf_bytes)
        yield Syscall("connect", sock=sock, addr=SERVER_ADDR, port=5003)
        sent = 0
        chunk = 64 * 1024
        while sent < total_bytes:
            n = yield Syscall("send", sock=sock,
                              nbytes=min(chunk, total_bytes - sent))
            sent += n
        yield Syscall("close", sock=sock)

    server.spawn("tcp-sink", receiver())
    client.spawn("tcp-src", delayed(20_000.0, sender()))
    limit = 120_000_000.0
    while not finished and world.sim.now < limit:
        world.sim.run_until(world.sim.now + 100_000.0)
    if not finished:
        return float("nan")
    end, got = finished[0]
    return got * 8.0 / (end - 20_000.0)


def run_experiment(systems: Sequence = SYSTEMS,
                   latency_iters: int = 2000,
                   udp_mb: float = 8.0,
                   tcp_mb: float = 24.0,
                   runner: Optional[SweepRunner] = None
                   ) -> Dict[str, Dict[str, float]]:
    runner = runner or SweepRunner()
    specs = []
    for system in systems:
        specs.append((measure_latency,
                      dict(system=system, iterations=latency_iters)))
        specs.append((measure_udp_throughput,
                      dict(system=system, total_mb=udp_mb)))
        specs.append((measure_tcp_throughput,
                      dict(system=system, total_mb=tcp_mb)))
    cells = runner.map_points(specs, label="table1")
    rows: Dict[str, Dict[str, float]] = {}
    for i, system in enumerate(systems):
        name = system if isinstance(system, str) else system.value
        rows[name] = {
            "rtt_usec": cells[3 * i],
            "udp_mbps": cells[3 * i + 1],
            "tcp_mbps": cells[3 * i + 2],
        }
    return rows


def report(rows: Dict[str, Dict[str, float]]) -> str:
    table = [(name, f"{r['rtt_usec']:.0f}", f"{r['udp_mbps']:.0f}",
              f"{r['tcp_mbps']:.0f}") for name, r in rows.items()]
    return ("== Table 1: throughput and latency ==\n"
            + format_table(("system", "RTT (usec)", "UDP (Mbps)",
                            "TCP (Mbps)"), table))


def main(fast: bool = False,
         runner: Optional[SweepRunner] = None) -> str:
    if fast:
        rows = run_experiment(latency_iters=400, udp_mb=2.0,
                              tcp_mb=4.0, runner=runner)
    else:
        rows = run_experiment(runner=runner)
    text = report(rows)
    print(text)
    return text


if __name__ == "__main__":
    main()
