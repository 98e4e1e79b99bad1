"""Layer attribution, work-counter, worker-peak and speed-sampling
tests for the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import cProfile
import json
import multiprocessing
import pstats
import signal
import time

import pytest

from harness import child_peaks
from layers import (LAYERS, SRC, capture_simulators, file_layer,
                    module_layer, read_counters, split_profile)
from points import http_point, udp_point
from repro.core import Architecture
from speed import sampled

#: Short points: the benchmark's entry points with a 40 ms window.
SHORT = {"warmup_usec": 20_000.0, "window_usec": 40_000.0}
SHORT_POINTS = [
    lambda: udp_point(Architecture.BSD, 1, 1, **SHORT),
    lambda: udp_point(Architecture.POLLING, 2, 1, **SHORT),
    lambda: http_point(Architecture.SOFT_LRP, 10_000, 1, **SHORT),
]


def _modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield path, ".".join(parts)


def test_every_module_maps_to_exactly_one_layer():
    modules = list(_modules())
    assert len(modules) > 100
    for path, module in modules:
        matches = [layer for layer in LAYERS
                   if module.startswith(f"repro.{layer}.")
                   or module == f"repro.{layer}"]
        if module == "repro":
            matches.append("root")
        assert len(matches) == 1, (module, matches)
        assert module_layer(module) == matches[0]
        assert file_layer(str(path)) == matches[0]


def test_builtins_and_stdlib_have_no_layer():
    assert file_layer("~") is None
    assert file_layer(pstats.__file__) is None


@pytest.mark.parametrize("make", SHORT_POINTS)
def test_self_time_sums_within_traced_wall(make):
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        make()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    split = split_profile(pstats.Stats(profiler))
    total = sum(entry["self_s"] for entry in split.values())
    assert 0.0 < total <= wall
    assert split["engine"]["self_s"] > 0.0
    assert split["host"]["calls"] > 0


@pytest.mark.parametrize("make", SHORT_POINTS)
def test_work_counters_repeat_exactly(make):
    readings = []
    for _ in range(2):
        with capture_simulators() as sims:
            make()
        readings.append(read_counters(sims))
    assert readings[0] == readings[1]
    assert readings[0]["engine.events"] > 0
    assert readings[0]["net.frames_delivered"] > 0


def test_metric_names_and_units_match_benchmark_json():
    from layers import HERE
    from run import END_TO_END_UNITS, layer_unit

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    for metric in spec["per_layer"]:
        assert layer_unit(metric["name"]) == metric["unit"], metric


def _hold(mib):
    block = b"\x01" * (mib << 20)
    assert block


def test_child_peaks_reads_the_peak_of_a_reaped_worker():
    ctx = multiprocessing.get_context("fork")
    with child_peaks() as peaks:
        proc = ctx.Process(target=_hold, args=(64,))
        proc.start()
        proc.join(timeout=60)
    assert not proc.is_alive()
    assert proc.exitcode == 0
    assert peaks[proc.pid] >= 64 << 10


@pytest.mark.parametrize("make", SHORT_POINTS)
def test_speed_sampling_leaves_results_and_signal_state(make):
    handler = signal.getsignal(signal.SIGALRM)
    plain = make()
    with sampled(0.002) as samples:
        again = make()
    assert again == plain
    assert samples.cpu and samples.scale > 0.0
    assert samples.cpu_total <= samples.wall + 1e-3
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
