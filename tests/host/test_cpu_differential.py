"""Differential property tests: Cpu vs LegacyCpu.

A process slice that ends with nothing able to take the core now
continues in place instead of going through the run queue and the
``_dispatch`` scan.  The previous slice end is kept verbatim as
:class:`~tests.host.legacy_cpu.LegacyCpu` — the *oracle*.  These tests
run random host scenarios on both and require the same full trace
digest and bit-identical accounting.  A scenario has 1–2 cores, up to
four processes of mixed ``nice`` and working-set size, compute and
sleep chunks, syscalls that wake another process or post a software
interrupt, timed interrupt posts, and a quantum small enough to
expire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Compute, Simulator, Sleep, Syscall
from repro.host import HARDWARE, SOFTWARE, Kernel, SimpleIntrTask
from repro.trace import Tracer
from tests.host.legacy_cpu import LegacyCpu, use_legacy_cpus

HORIZON = 60_000.0

usec = st.floats(min_value=0.5, max_value=3_000.0)

step = st.one_of(
    st.tuples(st.just("compute"), usec),
    st.tuples(st.just("sleep"), usec),
    st.tuples(st.just("kcompute"), usec),
    st.tuples(st.just("wake"), st.integers(0, 3)),
    st.tuples(st.just("post"), st.floats(min_value=0.5, max_value=200.0)),
)

process = st.fixed_dictionaries({
    "nice": st.integers(-4, 4),
    # Large working sets warm slowly, so slices end with part of the
    # hot set missing and the cache refill is charged on resume.
    "working_set_kb": st.sampled_from([8.0, 300.0, 900.0]),
    "core": st.integers(0, 1),
    "steps": st.lists(step, min_size=1, max_size=8),
    "repeat": st.integers(1, 6),
})

post = st.tuples(
    st.floats(min_value=0.0, max_value=HORIZON),     # when
    st.sampled_from([HARDWARE, SOFTWARE]),
    st.floats(min_value=0.5, max_value=400.0),        # cost
    st.integers(0, 1),                                # core
)

scenario = st.fixed_dictionaries({
    "ncores": st.integers(1, 2),
    "quantum": st.floats(min_value=200.0, max_value=5_000.0),
    "ticks": st.booleans(),
    "procs": st.lists(process, min_size=1, max_size=4),
    "posts": st.lists(post, max_size=12),
})


def run(spec, legacy):
    """Run *spec* on one kernel and return everything observable."""
    tracer = Tracer(enabled=True, capacity=None)
    sim = Simulator(seed=0, tracer=tracer)
    kernel = Kernel(sim, enable_ticks=spec["ticks"],
                    ncores=spec["ncores"])
    if legacy:
        use_legacy_cpus(kernel)
    for cpu in kernel.cpus:
        cpu.quantum = spec["quantum"]
    ncores = spec["ncores"]
    procs = []

    def wake(kernel, proc, target):
        if target < len(procs):
            kernel.wake_process(procs[target], "poked")
        return None

    def kcompute(kernel, proc, usec):
        yield Compute(usec)

    def post_soft(kernel, proc, cost):
        cpu = kernel.cpus[kernel._contexts[proc.pid].core]
        cpu.post(SimpleIntrTask(
            cost, SOFTWARE, "syscall-sw",
            charge=kernel.accounting.interrupt_charger(cpu)))

    kernel.register_syscall("wake", wake)
    kernel.register_syscall("kcompute", kcompute)
    kernel.register_syscall("post", post_soft)

    def body(steps, repeat):
        for _ in range(repeat):
            for kind, arg in steps:
                if kind == "compute":
                    yield Compute(arg)
                elif kind == "sleep":
                    yield Sleep(arg)
                elif kind == "kcompute":
                    yield Syscall("kcompute", usec=arg)
                elif kind == "wake":
                    yield Syscall("wake", target=arg)
                else:
                    yield Syscall("post", cost=arg)

    for index, p in enumerate(spec["procs"]):
        procs.append(kernel.spawn(
            f"p{index}", body(p["steps"], p["repeat"]), nice=p["nice"],
            working_set_kb=p["working_set_kb"], core=p["core"] % ncores))
    for when, klass, cost, core in spec["posts"]:
        cpu = kernel.cpus[core % ncores]
        sim.schedule(when, lambda cpu=cpu, klass=klass, cost=cost:
                     cpu.post(SimpleIntrTask(
                         cost, klass, "timed",
                         charge=kernel.accounting.interrupt_charger(cpu))))
    sim.run_until(HORIZON)
    kernel.finalize_stats()
    return {
        "digest": tracer.digest(),
        "procs": [(p.state, p.cpu_time, p.estcpu, p.usrpri,
                   p.intr_time_charged, p.compute_remaining,
                   p.cache_resident_kb) for p in procs],
        "cores": [(dict(cpu.time_by_class), cpu.idle_time, cpu.slices,
                   cpu.preemptions) for cpu in kernel.cpus],
        "switches": [s.context_switches for s in kernel.schedulers],
        "refill": kernel.cache.total_refill_usec,
        "accounting": (kernel.accounting.total_process_time,
                       kernel.accounting.total_interrupt_time,
                       kernel.accounting.system_time),
    }


@settings(max_examples=120, deadline=None)
@given(scenario)
def test_continue_in_place_matches_legacy_slice_end(spec):
    assert run(spec, legacy=False) == run(spec, legacy=True)


def test_oracle_slice_ends_are_legacy():
    """The oracle is really in charge: slice ends scheduled on a
    switched kernel fire the legacy method, not the fast path."""
    kernel = Kernel(Simulator(seed=0), enable_ticks=False)
    use_legacy_cpus(kernel)

    def spin():
        yield Compute(100.0)

    kernel.spawn("spin", spin())
    callback = kernel.cpu._slice_event.callback
    assert callback.__func__ is LegacyCpu._on_slice_end
