"""Host speed: a fixed reference kernel, run between the measured tests,
by which the benchmark states its times at one nominal speed.

Other tenants of a small shared VM slow its vCPUs by up to 2x, in phases
that last from seconds to many minutes: sharing a core doubles the CPU
time of a fixed loop, and the hypervisor steals up to a fifth of the
wall-clock time on top.
A phase that covers a whole run, or a whole set of runs, moves every
time the run measures, and no statistic over one run removes it.  The
kernel below slows in the same phases as the validator: over one
wide-certify pass per row on a 2-vCPU VM, pass times moved by up to 35%
between phases, pass times divided by the kernel time of the same pass
by under 5%.

The kernel does what the validator does most, in pure Python: tuple
hash-consing into a dict and reads scattered over a few MiB.  It runs
with the cyclic garbage collector off and frees all it allocates before
it returns, so it neither triggers nor pays for a collection of the
validator's heap; it only reads its buffer, so a forked pool worker
shares the pages with its parent.  It does not import the validator, so
no change to the validator changes it.

A time ``t`` measured while the kernel took ``k`` seconds on average, on
the same clock (CPU time for a job, wall-clock time for a pass, which
stolen time lengthens), is reported as ``t * NOMINAL_S / k``: the time
on a host where the kernel takes :data:`NOMINAL_S`.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Sequence, Tuple

#: Seconds of one :func:`kernel` call in the common, contended phase of
#: a 2-vCPU VM (Python 3.11); reported times are at this speed.
NOMINAL_S = 0.002
#: The scattered reads walk this many bytes, more than a core's L2 cache.
_BUF_BYTES = 4 << 20
_MASK = _BUF_BYTES - 1
_BUF = random.Random(0x5EED).randbytes(_BUF_BYTES)
_READS = 4000
_INTERNS = 1500


def kernel() -> Tuple[float, float]:
    """Run the reference kernel once; returns its (CPU, wall-clock)
    seconds."""
    collecting = gc.isenabled()
    gc.disable()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        buf, acc = _BUF, 1
        for i in range(_READS):
            acc = (acc * 2654435761 + buf[(acc + i) & _MASK]) & 0xFFFFFFFF
        table: dict = {}
        for i in range(_INTERNS):
            key = ("bvadd", i % 101, (i * 7) % 53, 16)
            acc += table.setdefault(key, len(table))
    finally:
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if collecting:
            gc.enable()
    return cpu, wall


def scale(kernel_s: Sequence[float]) -> float:
    """Factor from times measured alongside the kernel calls that took
    ``kernel_s`` seconds, on the same clock, to times at
    :data:`NOMINAL_S`; 1.0 without calls."""
    if not kernel_s:
        return 1.0
    return NOMINAL_S / statistics.fmean(kernel_s)
