"""Host-speed calibration for timings taken on a shared machine.

On the 2-vCPU reference host each vCPU flips, every few seconds and
independently of the other, between two speeds about 1.6x apart (other
tenants' work on the physical cores), so a join's raw time varies by
30% within a minute.  A fixed reference loop — Python dictionary work,
short NumPy calls and a small matrix product, the mix the join engine
spends its time in — slows by nearly the same factor.  So every timed
operation is bracketed by two loop samples and reported as
``raw × REFERENCE_S / loop``, with ``loop`` the mean of its two samples:
seconds at the reference loop's nominal speed.  Over 48 spatial joins
this cut the interquartile spread from 29% of the median to 6%.

A serial operation runs with its two samples inside :func:`pinned`, so
all three share one CPU: unpinned, the operation and its samples could
land on different vCPUs.  An operation that runs on both CPUs (the
sharded executor's two worker processes) is bracketed by
:func:`calibrate_all`, the loop's mean over every CPU the process may
run on.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "calibrate_all", "pinned", "scaled"]

# Median duration of one reference loop on the reference host (a 2-CPU
# Intel Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread) in its fast phase.
REFERENCE_S = 0.0180

_VALUES = np.linspace(0.0, 1.0, 4096)
_MATRIX = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256) / 256.0


def _reference_loop() -> float:
    counts: dict = {}
    for i in range(90000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    x = _VALUES
    for _ in range(900):
        x = np.abs(x - 0.5) * 1.9
    y = _MATRIX
    for _ in range(6):
        y = _MATRIX @ y
    return float(x[0]) + float(y[0, 0]) + counts[0]


def calibrate() -> float:
    """Seconds one reference loop takes now, on the CPU this runs on."""
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def calibrate_all() -> float:
    """Mean seconds of one reference loop over every CPU allowed to run this."""
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            samples.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(samples) / len(samples)


def _current_cpu() -> int:
    """The CPU this process last ran on (field 39 of ``/proc/self/stat``)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


@contextmanager
def pinned() -> Iterator[None]:
    """Keep this process on the CPU it runs on now, for the block's length."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_current_cpu()})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def scaled(raw_s: float, loop_s: float) -> float:
    """``raw_s`` expressed at the reference loop's nominal speed."""
    return raw_s * REFERENCE_S / loop_s
