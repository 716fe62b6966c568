"""Deterministic discrete-event simulation substrate.

The LOCUS kernel is "procedure based": a system call traps into the kernel,
which may sleep while waiting for a foreign site's reply (paper section
2.3.2).  We model kernel control flow with generator coroutines driven by a
single-threaded event loop:

* ``yield future``   — sleep until the future resolves (e.g. an RPC reply),
* ``yield seconds``  — sleep for a fixed amount of virtual time,
* ``yield from gen`` — call another kernel procedure that may itself sleep.

Everything is deterministic: one seeded RNG, a strictly ordered event queue,
and no wall-clock reads in the core.
"""

from repro.sim.future import Future
from repro.sim.task import Task
from repro.sim.simulator import Simulator
from repro.sim.legacy import LegacySimulator
from repro.sim.sync import SimQueue

__all__ = [
    "Future",
    "Task",
    "Simulator",
    "LegacySimulator",
    "SimQueue",
]
