"""A fixed calibration kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a factor of two within a minute, and every program on it slows down
together: over back-to-back CLI runs, `thermo` and `sweep` CPU times swung
between 2.0 and 3.9 s with a correlation of 0.8.  A median over one run
cannot remove a drift that is slower than the run.  So run.py times this
kernel right before and right after each child process and divides the
child's times by the kernel's time next to it.

The kernel is frozen code of the benchmark, not of the program, so no
change to the program can move it.  It does the kinds of work the program
does: a fixed-step RK4 on a four-component field built from `math` calls
and small numpy arrays, as in `integrate.integrate_fixed` with
`dynamics.action_angle_field`, and elementwise numpy passes over arrays
of the size of the program's sampled grids.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the kernel's median time on the machine the benchmark was written on
# (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3 with numpy); scaled times are
# in seconds of that machine at that speed
REFERENCE_S = 0.40

RK4_STEPS = 12_000
GRID_POINTS = 200_000
GRID_PASSES = 12


def _field(t, x):
    phi, theta, y, p = x
    w = 1.0 + 0.25 * math.sin(y)
    w1 = 0.25 * math.cos(y)
    s2, c2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
    return np.array((w / 0.05, -theta * w1 / w * c2,
                     p, -theta * w1 + 0.5 * theta * w1 / w * s2))


def _rk4(steps: int) -> float:
    x = np.array((0.0, 1.0, 0.1, 0.0))
    h = 1e-3
    f = _field(0.0, x)
    for i in range(steps):
        t = i * h
        k1 = f
        k2 = _field(t + 0.5 * h, x + (0.5 * h) * k1)
        k3 = _field(t + 0.5 * h, x + (0.5 * h) * k2)
        k4 = _field(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = _field(t + h, x)
    return float(x[2])


def _grid(points: int, passes: int) -> float:
    a = np.linspace(0.0, 10.0, points)
    acc = 0.0
    for _ in range(passes):
        b = np.sin(a) * np.cos(0.5 * a) + a * a
        c = np.cumsum(b) / points
        acc += float(np.interp(5.0, a, c))
        a = a + 1e-9 * b
    return acc


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    _rk4(RK4_STEPS)
    _grid(GRID_POINTS, GRID_PASSES)
    return time.perf_counter() - t0


def block_seconds(min_seconds: float) -> float:
    """Mean time of kernel passes run until they add up to `min_seconds`,
    at least one.  One pass samples the host's speed at one moment, so a
    long child gets more passes around it."""
    times = []
    while not times or sum(times) < min_seconds:
        times.append(kernel_seconds())
    return statistics.fmean(times)


def speed(before: float, after: float) -> float:
    """Factor that turns a child's seconds into seconds at REFERENCE_S
    speed, from the kernel times just before and just after it."""
    return REFERENCE_S / (0.5 * (before + after))
