"""Fixed-step RK4, adaptive Dormand-Prince 5(4), dense output, and
step-halving reference solutions.

All solvers record the right-hand side at every accepted node, which makes
cubic Hermite dense output exact at the nodes and third-order accurate in
between; that is enough because node spacing always resolves the fast
period by a factor >= 40.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np


class NumericalError(RuntimeError):
    """Integration failed: non-finite state, step size underflow, or a run
    longer than the step budget."""


_MAX_STEPS = 10_000_000  # step budget of one run
# the lab's fixed numerics: tolerances and step cap of the slow (homogenized
# and averaged) solves, and the points of every output grid over the horizon
SLOW_TOL = 1e-12
SLOW_MAX_STEP = 0.002
GRID_POINTS = 2001


@dataclass
class Trajectory:
    """Solution record: times (n,), states (n, d), derivs (n, d), meta."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    meta: dict = field(default_factory=dict)


def step_count(horizon_T: float, h: float) -> int:
    """Steps of a fixed-step run over horizon_T; NumericalError beyond the step budget."""
    steps = horizon_T / h - 1e-12 if h > 0.0 else math.inf
    if steps > _MAX_STEPS:
        raise NumericalError(f"{steps:.3g} steps exceed the step budget of {_MAX_STEPS}")
    return int(math.ceil(steps))


def integrate_fixed(rhs, x0, horizon_T: float, h: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta with fixed step on 4-component
    states, the size of both charts of the lab.

    Node times are i*h (not accumulated sums) so that a run at h/2 hits
    every node of a run at h bit-exactly; the last step is shortened to
    land on horizon_T.  rhs(t, x) receives a tuple of four Python floats and
    may return any sequence of four floats.  The stage sums are unrolled in
    the operation order of the vector form x + (h/6)*(((k1 + 2 k2) + 2 k3)
    + k4), so the states are bitwise those of the scheme in ndarray arithmetic.
    """
    if not h > 0.0:
        raise ValueError("step must be positive")
    if h > horizon_T:
        raise ValueError("step exceeds the horizon")
    x = tuple(np.asarray(x0, dtype=float).tolist())
    if len(x) != 4:
        raise ValueError(f"integrate_fixed steps 4-component states, not {len(x)}")
    x0, x1, x2, x3 = x
    n_steps = step_count(horizon_T, h)  # checked before the arrays are allocated
    states = np.empty((n_steps + 1, 4))
    derivs = np.empty_like(states)
    put = struct.Struct("4d").pack_into  # a row at a byte offset; a third of row assignment's cost
    isfinite = math.isfinite
    put(states, 0, x0, x1, x2, x3)
    f = rhs(0.0, x)
    t = 0.0  # i*h: each step's t_next but the shortened last one
    for i in range(n_steps):
        t_next = horizon_T if i == n_steps - 1 else (i + 1) * h
        hi = t_next - t
        half = 0.5 * hi
        t_half = t + half
        row = 32 * i
        a0, a1, a2, a3 = f
        put(derivs, row, a0, a1, a2, a3)
        b0, b1, b2, b3 = rhs(t_half, (x0 + half * a0, x1 + half * a1,
                                      x2 + half * a2, x3 + half * a3))
        c0, c1, c2, c3 = rhs(t_half, (x0 + half * b0, x1 + half * b1,
                                      x2 + half * b2, x3 + half * b3))
        d0, d1, d2, d3 = rhs(t_next, (x0 + hi * c0, x1 + hi * c1,
                                      x2 + hi * c2, x3 + hi * c3))
        sixth = hi / 6.0
        x0 = x0 + sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + d0)
        x1 = x1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
        x2 = x2 + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
        x3 = x3 + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
        x = (x0, x1, x2, x3)
        if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(x3)):
            raise NumericalError(f"non-finite state at t={t_next!r}: {np.array(x)}")
        put(states, row + 32, x0, x1, x2, x3)
        f = rhs(t_next, x)
        t = t_next
    derivs[-1] = f
    times = np.arange(n_steps + 1.0)  # scaled in place: i*h bitwise, as in the loop
    times *= h
    times[-1] = horizon_T
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


def _error_norm(ratios) -> float:
    """Root mean square, squares summed left to right (sum() compensates from 3.12 on):
    bitwise numpy's for fewer than 8 components, as in every slow solve of the lab."""
    s = 0.0
    for r in ratios:
        s += r * r
    return math.sqrt(s / len(ratios))


def integrate_controlled(rhs, x0, horizon_T: float, rtol: float, atol: float,
                         max_step: float = math.inf,
                         max_steps: int = _MAX_STEPS) -> Trajectory:
    """Dormand-Prince 5(4) with a PI step-size controller.

    First-same-as-last: the recorded derivative at each node is the actual
    right-hand side there.  rhs(t, x) gets a tuple of floats and returns
    as many.  Stage sums and the error estimate are unrolled per component
    in the vector form's order x + h*((0.0 + a_i0 k_0) + a_i1 k_1 + ...),
    zero terms included, so the states are bitwise those of ndarray
    arithmetic (builtin sum() compensates float sums from Python 3.12 on).
    Aborts with NumericalError on step underflow or non-finite states.
    """
    if not (rtol > 0.0 and atol > 0.0):
        raise ValueError("tolerances must be positive")
    if not horizon_T > 0.0:
        raise ValueError("horizon_T must be positive")
    x = tuple(np.asarray(x0, dtype=float).tolist())
    t = 0.0
    f = rhs(t, x)
    if len(f) != len(x):
        raise ValueError(f"rhs returned {len(f)} components for a {len(x)}-component state")
    h = min(max_step, horizon_T / 100.0)
    times, states, derivs = [0.0], [x], [f]
    err_old = 1e-4
    n_accept = n_reject = 0
    min_h = 1e-14 * max(1.0, horizon_T)
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65)) = _A
    e0, e1, e2, e3, e4, e5, e6 = _E
    for _ in range(max_steps):
        if t >= horizon_T:
            break
        h = min(h, horizon_T - t)
        if h < min_h:
            raise NumericalError(f"step size underflow at t={t!r}")
        k0 = f
        k1 = rhs(t + _C[1] * h, tuple([v + h * (0.0 + a10 * p) for v, p in zip(x, k0)]))
        k2 = rhs(t + _C[2] * h, tuple([v + h * ((0.0 + a20 * p) + a21 * q)
                                       for v, p, q in zip(x, k0, k1)]))
        k3 = rhs(t + _C[3] * h, tuple([v + h * (((0.0 + a30 * p) + a31 * q) + a32 * r)
                                       for v, p, q, r in zip(x, k0, k1, k2)]))
        k4 = rhs(t + _C[4] * h, tuple([
            v + h * ((((0.0 + a40 * p) + a41 * q) + a42 * r) + a43 * s)
            for v, p, q, r, s in zip(x, k0, k1, k2, k3)]))
        k5 = rhs(t + _C[5] * h, tuple([
            v + h * (((((0.0 + a50 * p) + a51 * q) + a52 * r) + a53 * s) + a54 * u)
            for v, p, q, r, s, u in zip(x, k0, k1, k2, k3, k4)]))
        x_new = tuple([  # stage 7 uses the 5th-order weights: FSAL
            v + h * ((((((0.0 + a60 * p) + a61 * q) + a62 * r) + a63 * s) + a64 * u) + a65 * w)
            for v, p, q, r, s, u, w in zip(x, k0, k1, k2, k3, k4, k5)])
        k6 = rhs(t + _C[6] * h, x_new)
        ratios = [  # error / (atol + rtol * max(|x|, |x_new|)) per component
            h * (((((((0.0 + e0 * p) + e1 * q) + e2 * r) + e3 * s) + e4 * u) + e5 * w) + e6 * z)
            / (atol + rtol * max(abs(v), abs(vn)))
            for v, vn, p, q, r, s, u, w, z in zip(x, x_new, k0, k1, k2, k3, k4, k5, k6)]
        err = _error_norm(ratios)
        if not math.isfinite(err) or not all(map(math.isfinite, x_new)):
            n_reject += 1
            h *= 0.2
            continue
        if err <= 1.0:
            t = t + h
            x = x_new
            f = k6
            times.append(t)
            states.append(x)
            derivs.append(f)
            n_accept += 1
            fac = 0.9 * (err ** -0.14) * (err_old ** 0.08) if err > 0.0 else 5.0
            h = min(h * min(5.0, max(0.2, fac)), max_step)
            err_old = max(err, 1e-10)
        else:
            n_reject += 1
            h = h * min(1.0, max(0.2, 0.9 * (err ** -0.14)))
    else:
        raise NumericalError("step budget exhausted")
    return Trajectory(np.array(times), np.array(states, float), np.array(derivs, float),
                      {"method": "dopri54", "rtol": rtol, "atol": atol,
                       "n_accept": n_accept, "n_reject": n_reject})


def _hermite(tau, h, x, f, i):
    # the one operation order of sample and invert_monotone; x[i], f[i],
    # x[i + 1], f[i + 1] are gathered one at a time to bound memory
    tau2 = tau * tau
    tau3 = tau2 * tau
    h01 = 3.0 * tau2 - 2.0 * tau3  # is -2 tau3 + 3 tau2 bitwise; rounding is
    h00 = 1.0 - h01                # symmetric, so this is 2 tau3 - 3 tau2 + 1
    h10 = tau3 - 2.0 * tau2 + tau
    h11 = tau3 - tau2
    return h00 * x[i] + h10 * h * f[i] + h01 * x[i + 1] + h11 * h * f[i + 1]


def sample(traj: Trajectory, grid, component: int | None = None) -> np.ndarray:
    """Cubic Hermite dense output, (len(grid), d); sample(traj, [t])[0] is
    the state at t, and a node's time gives its stored state bitwise.  With
    `component`, only that column as (len(grid),), bitwise the same values.
    Times within 1e-9 relative slack of [t_0, t_end] are clamped onto it;
    NaN and times farther out raise ValueError.
    """
    times = traj.times
    grid = np.asarray(grid, float)
    t_end = times[-1]
    slack = 1e-9 * max(1.0, abs(t_end))
    if grid.size and not (times[0] - slack <= grid.min() and grid.max() <= t_end + slack):
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
    return _hermite(tau, h, x, f, idx)


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


# most points per block of array work (bisection here, the unfolding and
# remainders of twoscale): the temporaries of a pass (64 KiB each) are then
# reused heap memory, not pages mapped afresh for every operation
_BLOCK = 8192


def invert_monotone(traj: Trajectory, targets, component: int = 0) -> np.ndarray:
    """Times at which a strictly increasing component crosses the targets.

    Bisection (60 halvings of [t_0, t_end]) on the dense interpolant of that
    component alone; resolves times to ~1e-15 * horizon.  The interpolant
    must be monotone between nodes, as phi' = omega > 0 makes every phase
    the lab inverts.  A midpoint in the target's own Hermite segment is
    evaluated with sample's arithmetic, one in a neighbouring segment by
    sample itself (rounding near a node can carry the cubic across the
    node's value), one farther out by monotonicity; so the times are
    bitwise those of calling sample at every halving, and each target's
    time does not depend on the other targets.  Raises ValueError for node
    values not strictly increasing and for NaN or out-of-range targets.
    """
    targets = np.atleast_1d(np.asarray(targets, float))
    vals = traj.states[:, component]
    if not np.all(np.diff(vals) > 0.0):
        raise ValueError("component is not strictly increasing at the nodes")
    if not np.all((vals[0] - 1e-9 <= targets) & (targets <= vals[-1] + 1e-9)):
        raise ValueError("target outside the component's range")
    blocks = np.array_split(targets.ravel(), targets.size // _BLOCK + 1)
    return np.concatenate([_bisect(traj, b, component) for b in blocks]).reshape(targets.shape)


def _bisect(traj: Trajectory, targets: np.ndarray, component: int) -> np.ndarray:
    times = traj.times
    vals, f = traj.states[:, component], traj.derivs[:, component]
    i = np.clip(np.searchsorted(vals, targets, side="right") - 1, 0, len(times) - 2)
    # sample's segment k is [e[k + 1], e[k + 2]), padded so that k = -1 and
    # k = n - 1 are empty
    e = np.concatenate([[-np.inf, -np.inf], times[1:-1], [np.inf, np.inf]])
    below, start, end, above = e[i], e[i + 1], e[i + 2], e[i + 3]
    t0 = times[i]
    h = times[i + 1] - t0
    # each target's segment end values, as rows 0 and 1
    x01, f01 = np.stack([vals[i], vals[i + 1]]), np.stack([f[i], f[i + 1]])
    lo = np.full(targets.shape, times[0])
    hi = np.full(targets.shape, times[-1])
    # once every bracket lies in its own segment, so does every later
    # midpoint (at mid = end the cubic gives the node value, as sample does)
    inside = False
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        take_hi = _hermite((mid - t0) / h, h, x01, f01, 0) < targets
        if not inside:
            take_hi = (mid < start) | ((mid < end) & take_hi)
            nb = ((below <= mid) & (mid < start)) | ((end <= mid) & (mid < above))
            if nb.any():
                take_hi[nb] = sample(traj, mid[nb], component=component) < targets[nb]
        new_lo = np.where(take_hi, mid, lo)
        new_hi = np.where(take_hi, hi, mid)
        if inside and np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break  # no bound moved, so no later pass moves one
        lo, hi = new_lo, new_hi
        inside = inside or bool(np.all(start <= lo) and np.all(hi <= end))
    return 0.5 * (lo + hi)
