"""Host-speed reference: a fixed kernel timed between ops, to scale op times.

On a shared virtual machine the host's speed drifts by 20-40% within tens of
seconds, and CPU time moves with wall time, so medians inside a run cannot
remove the drift. A reference kernel does a fixed amount of work and calls
nothing of phmaps. The benchmark times it after every op, and reports each
op's time at the reference speed:

    scaled = measured * reference / (kernel time measured around the op)

There are two kernels. `time_kernel` times interpreter and numpy work in this
process, for ops that run in this process. `time_process_kernel` times the
start of a bare interpreter (`python -S -c pass`), for ops that are a child
process.

A change to phmaps moves the scaled times in full; a change of host speed
moves the op and the kernel together and mostly cancels. Not fully: in some
slow periods the collision pass slowed by up to 1.4 times as much as the
in-process kernel (in logarithms), in others by less.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

# Median kernel times on the reference host: a 2-vCPU KVM guest on an Intel
# Xeon, Python 3.11, numpy 2.4. Scaled times read as milliseconds there.
REFERENCE_MS = 3.0
REFERENCE_PROCESS_MS = 13.0
WINDOW = 3          # kernel samples taken on each side of an op

_Z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16384)) * np.linspace(0.1, 0.99, 16384)


def kernel() -> int:
    """Fixed work, about half interpreter and half numpy, with no phmaps call."""
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    w = np.abs(np.exp(_Z) * _Z - _Z * _Z)
    acc += int(np.argsort(w)[0])
    acc += int(np.argsort(np.angle(np.cumsum(_Z)))[0])
    return acc


def time_kernel() -> float:
    """One timed kernel, in milliseconds."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3


def time_process_kernel() -> float:
    """Start a bare interpreter and wait for it to end, in milliseconds."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-S", "-c", "pass"], os.environ)
    os.waitpid(pid, 0)
    return (time.perf_counter() - start) * 1e3


def warm_up(times: int = 5) -> None:
    for _ in range(times):
        kernel()


def sample(times: int = WINDOW) -> list[float]:
    """Several timed kernels in a row, in milliseconds."""
    return [time_kernel() for _ in range(times)]


def scale(op_times: list[float], kernel_ms: list[float], reference_ms: float = REFERENCE_MS) -> list[float]:
    """Scale op_times[i] by the kernel samples around it.

    kernel_ms has one sample before the first op and one after every op, so op
    i lies between kernel_ms[i] and kernel_ms[i + 1]; its factor is the median
    of up to WINDOW samples on each side.
    """
    if len(kernel_ms) != len(op_times) + 1:
        raise ValueError("need one kernel sample before the first op and one after each op")
    out = []
    for i, t in enumerate(op_times):
        around = kernel_ms[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(t * reference_ms / statistics.median(around))
    return out


def scale_between(seconds: float, before: list[float], after: list[float]) -> float:
    """Scale a time measured between two batches of kernel samples."""
    return seconds * REFERENCE_MS / statistics.median(before + after)


def speed(kernel_ms: list[float], reference_ms: float = REFERENCE_MS) -> float:
    """Host speed relative to the reference host (above 1 is faster)."""
    return reference_ms / statistics.median(kernel_ms)
