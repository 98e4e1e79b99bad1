"""Shared experiment scaffolding.

Every experiment builds one or more simulated machines — on the flat
LAN (the paper's testbed) or on a switched
:class:`~repro.net.topology.TopologySpec` graph — runs a warmup
interval, measures inside a window, and reports rows/series shaped
like the paper's tables and figures.  Unsharded experiments get their
world from :func:`repro.engine.component.make_world`; sharded ones
declare components for :class:`~repro.engine.sharded.ShardedEngine`.
This module holds what they share: the testbed's addresses, the
systems most experiments compare, and small helpers.
"""

from __future__ import annotations

from typing import Generator

from repro.engine.process import Sleep
from repro.core import Architecture

#: Canonical addresses for the three-machine testbed.
SERVER_ADDR = "10.0.0.1"
CLIENT_A_ADDR = "10.0.0.2"
CLIENT_C_ADDR = "10.0.0.3"

#: The three systems most experiments compare (Figure 3 adds
#: Early-Demux).
MAIN_SYSTEMS = (Architecture.BSD, Architecture.SOFT_LRP,
                Architecture.NI_LRP)


def delayed(usec: float, gen: Generator) -> Generator:
    """Run *gen* after an initial sleep (staggers process start-up so
    clients never race server binds)."""
    yield Sleep(usec)
    yield from gen

