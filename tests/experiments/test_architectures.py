"""Cross-architecture differential tests on full figure-3 points.

The defining trace property of the kernel-bypass polling stack is the
total absence of interrupts; the defining accounting property is a
busy-poll core pinned at 100% whether or not traffic arrives.  Both
are asserted against a real figure-3 point, differentially against
4.4BSD on the identical point.
"""

import pytest

from repro.core import Architecture
from repro.trace import Tracer, set_default_tracer
from repro.experiments import figure3

POINT = dict(rate_pps=4000, warmup_usec=100_000.0,
             window_usec=100_000.0)


def traced_point(arch, **kwargs):
    tracer = Tracer(capacity=None)
    set_default_tracer(tracer)
    try:
        point = figure3.run_point(Architecture(arch), **POINT,
                                  **kwargs)
    finally:
        set_default_tracer(None)
    return point, tracer


@pytest.fixture(scope="module")
def polling_run():
    return traced_point("Polling", cores=2, flows=2)


def test_polling_point_emits_no_interrupt_events(polling_run):
    """The client is a wireless injector (no kernel) and the polling
    server never raises an interrupt, so the whole point's trace must
    be interrupt-free — hardware and software alike."""
    point, tracer = polling_run
    raised = list(tracer.records(etype="interrupt_raised"))
    dispatched = list(tracer.records(etype="interrupt_dispatched"))
    assert raised == []
    assert dispatched == []
    # The run actually delivered traffic — this is not an empty trace.
    assert point["delivered_pps"] > 0
    assert any(True for _ in tracer.records(etype="pkt_deliver"))


def test_bsd_same_point_is_interrupt_driven(polling_run):
    """Differential control: the identical point under 4.4BSD raises
    hardware and software interrupts for the same traffic."""
    _, bsd_tracer = traced_point("4.4BSD")
    kinds = {rec.args.get("klass")
             for rec in bsd_tracer.records(etype="interrupt_raised")}
    assert "hardware" in kinds
    assert "software" in kinds


def test_polling_core_utilization_is_total(polling_run):
    """The busy-poll core burns 100% of the run; every other core's
    busy time is ordinary schedulable process work."""
    point, _ = polling_run
    usage = point["core_usage"]
    assert len(usage) == 2
    poll = usage[-1]
    assert poll["utilization"] == pytest.approx(1.0, abs=1e-3)
    assert poll["idle_usec"] == pytest.approx(0.0, abs=1.0)
    # All of the poll core's time is process-class (the poll thread);
    # none of it is interrupt time.
    assert poll["hw_intr_usec"] == 0.0
    assert poll["sw_intr_usec"] == 0.0
    # The boot core runs the sink app and is not saturated.
    assert 0.0 < usage[0]["utilization"] < 1.0
    assert usage[0]["hw_intr_usec"] == 0.0
    assert usage[0]["sw_intr_usec"] == 0.0


def test_one_core_rss_is_bsd():
    """RSS is the BSD receive path on an N-queue NIC; with one core
    the NIC has one queue, so an overloaded figure-3 point must give
    BSD's exact result."""
    point = dict(POINT, rate_pps=20_000)
    rss = figure3.run_point(Architecture.RSS, cores=1, **point)
    bsd = figure3.run_point(Architecture.BSD, cores=1, **point)
    assert rss["drop_ipq"] > 0
    assert rss == bsd
