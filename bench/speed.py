"""The machine's speed at the moment, from a fixed pure-Python kernel.

The benchmark's timings are wall times scaled by this probe.  On a shared
machine the speed of one CPU moves by up to 2x within seconds, as other
tenants come and go, and a call's wall time moves with it.  The probe is
timed in the same process, on the same CPU, right before and right after
each timed piece of work, so it sees the same slow or fast phase.  Over
5-minute sessions of each workload, the log of a call's slowdown
correlated 0.76-0.85 with the log of the probe's (README.md, Load).

    scaled time = wall time * REFERENCE_S / mean(probe before, probe after)

is the time the work would take on a machine where one probe takes
REFERENCE_S, the probe's fastest time on the machine the benchmark was
tuned on.  The kernel calls a function, indexes a dict, reads an attribute
and does integer arithmetic, as an interpreter-bound program does.  It
allocates no container, so it never starts the garbage collector and
never reads the program's heap: what the program leaves behind cannot
make the probe slower, and so cannot make the program look faster.

This module imports only `time`, so a fresh interpreter can load it
before it imports the program.
"""
from __future__ import annotations

import time

REFERENCE_S = 0.0023

_TABLE = {i: (i * 7919) & 0xFF for i in range(64)}


class _Obj:
    a = 3


_OBJ = _Obj()


def _step(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFF


def _kernel() -> int:
    x = 0
    for i in range(18000):
        x = (x * 31 + i) & 0xFFFF
    table, obj = _TABLE, _OBJ
    for i in range(7500):
        x = _step(x, table[i & 63] + obj.a)
    return x


def probe() -> float:
    """Wall time (s) of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(wall: float, before: float, after: float) -> float:
    """`wall` scaled to the reference speed by the probes around it."""
    return wall * REFERENCE_S * 2 / (before + after)
