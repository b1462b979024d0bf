"""A fixed reference kernel that gauges the machine's speed of the moment.

On a shared VM, identical work can run up to 1.8x slower for spells that
last from seconds to minutes, and CPU time slows with wall time, so the
cause is outside the process.  The benchmark times this kernel next to
every op and reports the op in reference seconds:

    measured seconds * KERNEL_S / kernel seconds

so that a slow spell, which slows the kernel and the op alike, cancels.
The kernel runs no ccgeo code, so a change to ccgeo leaves it alone.  It
mixes what ccgeo's time goes to: Python bytecode, numpy calls on small
arrays, dict look-ups and a gather over a 4 MB array.  It allocates no
object the garbage collector tracks, so the program's heap does not
change its cost.
"""
from __future__ import annotations

import functools
import time

import numpy as np

# Seconds the kernel takes on the 2-vCPU x86 box the baseline was
# measured on, in a quiet spell; there, reference and measured seconds
# agree.
KERNEL_S = 0.008


@functools.cache
def _data():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((48, 3))
    big = rng.standard_normal(1 << 19)  # 4 MB
    idx = rng.integers(0, 1 << 19, size=1 << 16)
    table = {i * 7919 % 1000003: i for i in range(20000)}
    return small, big, idx, table


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    small, big, idx, table = _data()
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    a = small
    for _ in range(150):
        a = np.sin(a) * 0.5 + a * 0.5
    for i in range(20000):
        s += table.get(i * 7919 % 1000003, 0)
    for _ in range(4):
        s += float(big[idx].sum())
    return time.perf_counter() - t0


def scaled(seconds: float, kernel: float) -> float:
    """Measured seconds in reference seconds, given the kernel's time."""
    return seconds * KERNEL_S / kernel
