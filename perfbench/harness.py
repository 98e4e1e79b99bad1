"""Timed and traced runs of one workload.

A *pass* runs every point of the workload once, in an order shuffled
from the seed.  Timed runs repeat passes until the requested seconds
are spent, the last one cut short, and report for every point its
fastest run, at reference speed (``speed.py``); set-up probes run
between the passes.  A traced run makes one untraced pass, which
supplies the work counters and the baseline for ``trace_overhead``,
and one pass under ``cProfile``, which supplies the per-layer split.
Every point's ledger is compared with the pinned results, and the
sharded points also with the one-shard references of the same run.
A timed run makes those references after its passes, so they stay
out of its peak resident set.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import json
import os
import pstats
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from layers import (MEASURED, add_counters, calls_between,
                    capture_simulators, read_counters, split_profile)
from points import PINNED_SEEDS, WORKLOADS, Point, Workload, ledger_diff
from speed import sampled

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
#: Set-up probes before the first pass; one more follows every pass,
#: and ``setup_s`` is the fastest of them all.
SETUP_FIRST = 3
SETUP_TIMEOUT_S = 120


def simulation_seed(seed: int) -> int:
    """The pinned simulation seed a benchmark seed runs: seed 1 the
    default, seed 2 the held-out one, alternating above."""
    return PINNED_SEEDS[(seed - 1) % len(PINNED_SEEDS)]


def load_pins() -> Dict[str, Dict[str, Any]]:
    with open(PINNED) as fh:
        return json.load(fh)["seeds"]


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@contextlib.contextmanager
def child_peaks() -> Iterator[Dict[int, int]]:
    """Peak resident set (KiB) of every child reaped inside the block,
    by pid.  ``multiprocessing`` and the shard supervisor reap their
    workers with ``os.waitpid``; for the block it is routed through
    ``os.wait4``, which also returns the child's resource usage."""
    peaks: Dict[int, int] = {}
    waitpid = os.waitpid

    def wait(pid, options):
        got, status, usage = os.wait4(pid, options)
        if got:
            peaks[got] = usage.ru_maxrss
        return got, status

    os.waitpid = wait
    try:
        yield peaks
    finally:
        os.waitpid = waitpid


@dataclass
class Checker:
    """Runs points, checks their ledgers, and counts runs and failures."""

    pins: Dict[str, Any]
    seed: int
    #: Sample the host's speed and give ``wall`` and ``cpu`` at
    #: reference speed (see ``speed.py``); else in host seconds.
    sample: bool = False
    attempted: int = 0
    failed: int = 0

    def run(self, point: Point, profiler=None) -> Optional[Dict]:
        """Run *point*; returns its timing and info, or ``None`` when
        it raised or its results differ from the pins."""
        self.attempted += 1
        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with child_peaks() as peaks, contextlib.ExitStack() as stack:
                samples = (stack.enter_context(sampled()) if self.sample
                           else None)
                if profiler is not None:
                    profiler.enable()
                    stack.callback(profiler.disable)
                ledger, info = point.run(self.seed)
        except Exception:
            self.failed += 1
            print(f"FAILED {point.name}: raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if samples is not None:
            wall = (wall - samples.wall) * samples.wall_scale
            cpu = (cpu - samples.cpu_total) * samples.scale
        diffs = ledger_diff(ledger, self.pins[point.pin])
        if diffs:
            self.fail(point.name, diffs)
            return None
        return {"name": point.name, "pin": point.pin, "timed": point.timed,
                "wall": wall, "cpu": cpu, "children_kib": sum(peaks.values()),
                "info": info, "ledger": ledger}

    def fail(self, name: str, diffs: List[str]) -> None:
        self.failed += 1
        print(f"FAILED {name} (seed {self.seed}): " + "; ".join(diffs[:5]),
              file=sys.stderr)


def run_references(workload: Workload, checker: Checker,
                   profiler=None) -> Dict[str, Dict[str, Any]]:
    """The one-shard ledgers that the workload's points must equal, by
    pin; empty for workloads without references."""
    references = {}
    for point in workload.references:
        done = checker.run(point, profiler)
        if done is not None:
            references[point.pin] = done["ledger"]
    return references


def check_parity(checker: Checker, references: Dict[str, Dict[str, Any]],
                 passes: List[List[Dict]]) -> None:
    """Shard-count parity: a point whose ledger differs from its
    one-shard reference fails, though it matched the pins."""
    for done in passes:
        for d in done:
            reference = references.get(d["pin"])
            if reference is None:
                continue
            diffs = ledger_diff(d["ledger"], reference)
            if diffs:
                checker.fail(d["name"], [f"1-shard parity: {x}"
                                         for x in diffs])


def run_pass(workload: Workload, checker: Checker, rng: random.Random,
             profiler=None) -> List[Dict]:
    order = list(workload.points)
    rng.shuffle(order)
    done = [checker.run(point, profiler) for point in order]
    return [d for d in done if d is not None]


def setup_time(workload: str) -> float:
    """Host seconds from interpreter start to the first simulated
    event, in a fresh interpreter (see ``setup_probe.py``), at
    reference speed.  The probe samples its host speed itself."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    said = line.split()
    if len(said) != 3 or said[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {code}, said {line!r})")
    scale, handler_s = float(said[1]), float(said[2])
    return (elapsed - handler_s) * scale


# ----------------------------------------------------------------------
# Timed run: end-to-end metrics
# ----------------------------------------------------------------------
def timed_run(workload: Workload, seed: int, seconds: float,
              checker: Checker) -> Dict[str, float]:
    checker.sample = True
    # The first probe warms the file cache and is not counted.
    setup_time(workload.name)
    setup = [setup_time(workload.name) for _ in range(SETUP_FIRST)]
    rng = random.Random(seed)
    passes: List[List[Dict]] = []
    slowest: Dict[str, float] = {}
    start = time.perf_counter()
    while True:
        order = list(workload.points)
        rng.shuffle(order)
        done = []
        for point in order:
            t0 = time.perf_counter()
            # After the first pass, a point runs only if it would end
            # in time even as slow as its slowest run so far.
            if passes and t0 - start + slowest[point.name] > seconds:
                break
            d = checker.run(point)
            slowest[point.name] = max(slowest.get(point.name, 0),
                                      time.perf_counter() - t0)
            if d is not None:
                done.append(d)
        else:
            passes.append(done)
            # Probes between passes meet the host in the passes' states.
            setup.append(setup_time(workload.name))
            continue
        passes.append(done)
        break
    # Read before the references run in this process.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_parity(checker, run_references(workload, checker), passes)
    return end_to_end(passes, setup, self_kib)


def fastest(passes: List[List[Dict]], key: str) -> Dict[str, Dict]:
    """Each point's fastest *key* over the passes, by point name.
    The work of a point is the same in every pass; a slower pass of it
    measures the host's other load, which comes in bursts."""
    best: Dict[str, Dict] = {}
    for done in passes:
        for d in done:
            if d["name"] not in best or d[key] < best[d["name"]][key]:
                best[d["name"]] = d
    return best


def _sum(best: Dict[str, Dict], timed: str, key: str) -> float:
    return sum(d[key] for d in best.values() if d["timed"] == timed)


def end_to_end(passes: List[List[Dict]], setup: List[float],
               self_kib: int) -> Dict[str, float]:
    walls = fastest(passes, "wall")
    cpus = fastest(passes, "cpu")
    wall = _sum(walls, "plain", "wall")
    supervised = any(d["timed"] == "supervised" for d in walls.values())
    return {
        "wall_s": wall,
        # Workloads without supervised runs report their plain wall.
        "supervised_wall_s": (_sum(walls, "supervised", "wall")
                              if supervised else wall),
        "cpu_s": _sum(cpus, "plain", "cpu"),
        "setup_s": min(setup),
        # The benchmark process's peak plus the largest sum of the
        # peaks of one point's shard workers.
        "peak_rss_mb": (self_kib + max((d["children_kib"] for done in passes
                                        for d in done), default=0)) / 1024.0,
        "point_wall_max_s": max((d["wall"] for d in walls.values()),
                                default=0.0),
        "point_runs": sum(len(done) for done in passes),
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def traced_run(workload: Workload, seed: int,
               checker: Checker) -> Dict[str, float]:
    rng = random.Random(seed)
    # Sharded points simulate in worker processes.  Their one-shard
    # references are the in-process copy: every counter except the
    # sync and checkpoint ones comes from them.
    ref_profiler = cProfile.Profile() if workload.references else None
    with capture_simulators() as sims:
        references = run_references(workload, checker, ref_profiler)
        plain = run_pass(workload, checker, rng)
        counters = read_counters(sims)
    for done in plain:
        add_counters(counters, done["info"])
    profiler = cProfile.Profile()
    traced = run_pass(workload, checker, rng, profiler)
    check_parity(checker, references, [plain, traced])
    stats = pstats.Stats(profiler)
    split = split_profile(stats)

    metrics: Dict[str, float] = {}
    for layer in MEASURED:
        metrics[f"{layer}.self_s"] = split[layer]["self_s"]
        metrics[f"{layer}.calls"] = split[layer]["calls"]
    metrics["trace_overhead"] = (sum(d["wall"] for d in traced)
                                 / sum(d["wall"] for d in plain))
    metrics.update((name, value) for name, value in counters.items()
                   if name not in ("nic.empty_polls",
                                   "nic.agent_interrupts"))
    interrupt_stats = pstats.Stats(ref_profiler) if ref_profiler else stats
    pkts = max(counters["net.frames_delivered"], 1)
    plain_wall = sum(d["wall"] for d in plain if d["timed"] == "plain")
    metrics.update({
        "engine.events_per_pkt": counters["engine.events"] / pkts,
        "engine.events_per_s": counters["engine.events"] / plain_wall,
        "host.slices_per_pkt": counters["host.slices"] / pkts,
        "nic.host_interrupts": (
            calls_between(interrupt_stats, "host", "post", "nic")
            + counters["nic.agent_interrupts"]),
        "nic.empty_poll_ratio": (counters["nic.empty_polls"]
                                 / max(counters["nic.poll_rounds"], 1)),
    })
    return metrics
