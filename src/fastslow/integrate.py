"""Fixed-step RK4, adaptive Dormand-Prince 5(4), dense output, and
step-halving reference solutions.

All solvers record the right-hand side at every accepted node, which makes
cubic Hermite dense output exact at the nodes and third-order accurate in
between; that is enough because node spacing always resolves the fast
period by a factor >= 40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericalError(RuntimeError):
    """Integration failed: non-finite state or step size underflow."""


@dataclass
class Trajectory:
    """Solution record: times (n,), states (n, d), derivs (n, d), meta."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    meta: dict = field(default_factory=dict)


def integrate_fixed(rhs, x0, horizon_T: float, h: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta with fixed step.

    Node times are i*h (not accumulated sums) so that a run at h/2 hits
    every node of a run at h bit-exactly; the last step is shortened to
    land on horizon_T.

    rhs(t, x) receives the state as a tuple of Python floats and may
    return any sequence of d floats (tuple, list or ndarray).  The stage
    sums run component by component in the operation order of the vector
    form x + (h/6)*(((k1 + 2 k2) + 2 k3) + k4), so the states are bitwise
    those of the same scheme in ndarray arithmetic, at a fraction of the
    per-step cost for small d.
    """
    if not h > 0.0:
        raise ValueError("step must be positive")
    if h > horizon_T:
        raise ValueError("step exceeds the horizon")
    x = tuple(np.asarray(x0, dtype=float).tolist())
    n_steps = int(math.ceil(horizon_T / h - 1e-12))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, len(x)))
    derivs = np.empty_like(states)
    isfinite = math.isfinite
    times[0] = 0.0
    states[0] = x
    f = rhs(0.0, x)
    derivs[0] = f
    for i in range(n_steps):
        t = i * h
        t_next = horizon_T if i == n_steps - 1 else (i + 1) * h
        hi = t_next - t
        half = 0.5 * hi
        k1 = f
        k2 = rhs(t + half, tuple([a + half * b for a, b in zip(x, k1)]))
        k3 = rhs(t + half, tuple([a + half * b for a, b in zip(x, k2)]))
        k4 = rhs(t_next, tuple([a + hi * b for a, b in zip(x, k3)]))
        sixth = hi / 6.0
        x = tuple([a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                   for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
        if not all(map(isfinite, x)):
            raise NumericalError(f"non-finite state at t={t_next!r}: {np.array(x)}")
        f = rhs(t_next, x)
        times[i + 1] = t_next
        states[i + 1] = x
        derivs[i + 1] = f
    return Trajectory(times, states, derivs, {"method": "rk4", "h": h,
                                              "n_steps": n_steps})


# Dormand-Prince 5(4) coefficients
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate_controlled(rhs, x0, horizon_T: float, rtol: float, atol: float,
                         max_step: float = math.inf,
                         max_steps: int = 10_000_000) -> Trajectory:
    """Dormand-Prince 5(4) with a PI step-size controller.

    First-same-as-last: the recorded derivative at each node is the actual
    right-hand side there.  Aborts with NumericalError on step underflow
    or non-finite states.
    """
    if not (rtol > 0.0 and atol > 0.0):
        raise ValueError("tolerances must be positive")
    if not horizon_T > 0.0:
        raise ValueError("horizon_T must be positive")
    x = np.asarray(x0, dtype=float).copy()
    d = x.size
    t = 0.0
    f = np.asarray(rhs(t, x), float)
    h = min(max_step, horizon_T / 100.0)
    times = [0.0]
    states = [x.copy()]
    derivs = [f.copy()]
    err_old = 1e-4
    n_accept = 0
    n_reject = 0
    k = np.empty((7, d))
    min_h = 1e-14 * max(1.0, horizon_T)
    for _ in range(max_steps):
        if t >= horizon_T:
            break
        h = min(h, horizon_T - t)
        if h < min_h:
            raise NumericalError(f"step size underflow at t={t!r}")
        k[0] = f
        for i in range(1, 7):
            xi = x + h * sum((_A[i][j] * k[j] for j in range(i)), np.zeros(d))
            k[i] = rhs(t + _C[i] * h, xi)
        x_new = xi  # stage 7 uses the 5th-order weights: FSAL
        err_vec = h * sum((_E[j] * k[j] for j in range(7)), np.zeros(d))
        sc = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if not math.isfinite(err) or not np.all(np.isfinite(x_new)):
            n_reject += 1
            h *= 0.2
            continue
        if err <= 1.0:
            t = t + h
            x = x_new
            f = k[6].copy()
            times.append(t)
            states.append(x.copy())
            derivs.append(f.copy())
            n_accept += 1
            fac = 0.9 * (err ** -0.14) * (err_old ** 0.08) if err > 0.0 else 5.0
            h = min(h * min(5.0, max(0.2, fac)), max_step)
            err_old = max(err, 1e-10)
        else:
            n_reject += 1
            h = h * min(1.0, max(0.2, 0.9 * (err ** -0.14)))
    else:
        raise NumericalError("step budget exhausted")
    return Trajectory(np.array(times), np.array(states), np.array(derivs),
                      {"method": "dopri54", "rtol": rtol, "atol": atol,
                       "n_accept": n_accept, "n_reject": n_reject})


def _hermite(t, t0, t1, x0, x1, f0, f1):
    h = t1 - t0
    tau = (t - t0) / h
    tau2 = tau * tau
    tau3 = tau2 * tau
    h00 = 2.0 * tau3 - 3.0 * tau2 + 1.0
    h10 = tau3 - 2.0 * tau2 + tau
    h01 = -2.0 * tau3 + 3.0 * tau2
    h11 = tau3 - tau2
    return h00 * x0 + (h10 * h) * f0 + h01 * x1 + (h11 * h) * f1


def dense_eval(traj: Trajectory, t: float) -> np.ndarray:
    """Cubic Hermite interpolation of the trajectory at one time.

    Exact at nodes (tau = 0 and tau = 1 reproduce the stored states
    bitwise).  Times outside [t_0, t_end] by more than a 1e-9 relative
    slack are rejected.
    """
    times = traj.times
    t_end = times[-1]
    slack = 1e-9 * max(1.0, abs(t_end))
    if t < times[0] - slack or t > t_end + slack:
        raise ValueError(f"time {t!r} outside trajectory range")
    t = min(max(t, times[0]), t_end)
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    return _hermite(t, times[i], times[i + 1], traj.states[i],
                    traj.states[i + 1], traj.derivs[i], traj.derivs[i + 1])


def sample(traj: Trajectory, grid, component: int | None = None) -> np.ndarray:
    """Vectorized dense evaluation on a sorted grid.

    Returns (len(grid), d), or only column `component` as (len(grid),)
    when one is given; that column is bitwise equal to the same column of
    the full evaluation, since the Hermite arithmetic runs in the same
    order on the same operands.
    """
    times = traj.times
    grid = np.asarray(grid, float)
    t_end = times[-1]
    slack = 1e-9 * max(1.0, abs(t_end))
    if grid.size and (grid.min() < times[0] - slack or grid.max() > t_end + slack):
        raise ValueError("grid extends outside the trajectory range")
    g = np.clip(grid, times[0], t_end)
    idx = np.clip(np.searchsorted(times, g, side="right") - 1, 0, len(times) - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    h = t1 - t0
    tau = (g - t0) / h
    if component is None:
        x, f = traj.states, traj.derivs
        h = h[:, None]
        tau = tau[:, None]
    else:
        x, f = traj.states[:, component], traj.derivs[:, component]
    tau2 = tau * tau
    tau3 = tau2 * tau
    h00 = 2.0 * tau3 - 3.0 * tau2 + 1.0
    h10 = tau3 - 2.0 * tau2 + tau
    h01 = -2.0 * tau3 + 3.0 * tau2
    h11 = tau3 - tau2
    return (h00 * x[idx] + h10 * h * f[idx]
            + h01 * x[idx + 1] + h11 * h * f[idx + 1])


def reference_solution(rhs, x0, horizon_T: float, base_h: float,
                       error_cap: float | None = None) -> Trajectory:
    """Fixed-step solution at base_h/2 with a Richardson error tag.

    Runs RK4 at base_h and base_h/2; every coarse node k*base_h coincides
    bit-exactly with fine node 2k*(base_h/2) because node times are
    computed as i*h and base_h/2 is exact.  The max state discrepancy at
    shared nodes, divided by 2^4 - 1, estimates the fine run's global
    error and is stored as meta['richardson_error'].
    """
    coarse = integrate_fixed(rhs, x0, horizon_T, base_h)
    fine = integrate_fixed(rhs, x0, horizon_T, 0.5 * base_h)
    idx = np.searchsorted(fine.times, coarse.times)
    idx = np.clip(idx, 0, len(fine.times) - 1)
    if not np.array_equal(fine.times[idx], coarse.times):
        raise AssertionError("reference grids failed to align exactly")
    diff = np.max(np.abs(fine.states[idx] - coarse.states))
    est = float(diff) / 15.0
    fine.meta["richardson_error"] = est
    fine.meta["base_h"] = base_h
    if error_cap is not None and est > error_cap:
        raise NumericalError(
            f"reference error estimate {est:.3e} exceeds cap {error_cap:.3e}")
    return fine


def invert_monotone(traj: Trajectory, targets, component: int = 0) -> np.ndarray:
    """Times at which a strictly increasing component crosses the targets.

    Vectorized bisection (60 halvings) on the dense interpolant of that
    component alone; resolves times to ~1e-15 * horizon, so component
    values are matched to ~|slope|*1e-15.  Each target is bisected independently, so one
    call on concatenated targets returns the concatenated answers bitwise.
    Raises ValueError when the component's node values are not strictly
    increasing or a target lies outside their range.
    """
    targets = np.atleast_1d(np.asarray(targets, float))
    vals = traj.states[:, component]
    if not np.all(np.diff(vals) > 0.0):
        raise ValueError("component is not strictly increasing at the nodes")
    if np.any(targets < vals[0] - 1e-9) or np.any(targets > vals[-1] + 1e-9):
        raise ValueError("target outside the component's range")
    lo = np.full(targets.shape, traj.times[0])
    hi = np.full(targets.shape, traj.times[-1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        take_hi = sample(traj, mid, component=component) < targets
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return 0.5 * (lo + hi)
