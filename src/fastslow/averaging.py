"""Two-scale unfolding, windowed averages, and order estimation.

A highly oscillatory signal u_eps(t) is compared against a two-scale field
u(t, s) (slow time t, fast periodic variable s) by unfolding the signal
onto the (r, s) plane with a linear-in-s unfolding operator.  Windowed
averages over whole fast periods extract the slowly varying parts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .integrate import _BLOCK, Trajectory, invert_monotone, sample


class PhaseRangeError(ValueError):
    """epsilon too large for the phase range of the trajectory."""


_S_POINTS = 256  # fast points s per cell


def nonlinear_two_scale_error(u, limit, phase_traj: Trajectory, epsilons):
    """Sup distances between unfolded signals and their two-scale limits,
    at each epsilon of a ladder.

    u: vectorized callable (epsilon, t) returning a sequence of k signals
    (the finite-epsilon remainders), each an array over the times; it is
    called once per epsilon, in order, once every epsilon fits the range.
    limit: vectorized callable (t, s) returning the k matching limit
    surfaces, 1-periodic in s, in the same order.
    phase_traj: trajectory whose component 0 is the limit phase phi0;
    the signals are resampled at the times where phi0 passes pi*r, which
    is the slow-time change of variables that makes the fast variable
    exactly epsilon-periodic in r.  phi0 does not depend on epsilon, so
    the r-points of the whole ladder are inverted in one call, each
    distinct one once (on a dyadic ladder all lie in the finest grid).

    The unfolding is evaluated at 256 points s per cell, on a uniform
    fine r-grid of spacing epsilon/256, so every lookup lands on a
    precomputed sample; the sup runs over 512 interior slow points (three
    cells clear of the end).
    Returns one ([sup_error per signal], info dict) per epsilon.
    """
    r_max = float(phase_traj.states[-1, 0]) / math.pi
    ladder = []  # (epsilon, cells, slow r-grid); fine r-grids are eps*k/256
    for epsilon in epsilons:
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        n_cells = int(math.floor(r_max / epsilon))
        if n_cells < 4:
            raise PhaseRangeError(f"epsilon {epsilon:g}: epsilon too large: "
                                  "fewer than four fast cells in range")
        ladder.append((epsilon, n_cells, np.linspace(0.0, (n_cells - 3) * epsilon, 512)))
    # the distinct phases pi*r of the ladder, then the times phi0 passes them
    t_distinct, which = np.unique(np.pi * np.concatenate([
        r for epsilon, n_cells, r_grid in ladder
        for r in (epsilon * np.arange(_S_POINTS * n_cells + 1) / _S_POINTS, r_grid)]),
        return_inverse=True)
    t_distinct = invert_monotone(phase_traj, t_distinct, component=0)
    ends = np.cumsum([_S_POINTS * n_cells + 1 + r_grid.size for _, n_cells, r_grid in ladder])
    return [(_unfolding_errors(u, limit, epsilon, r_grid, t_distinct[idx]),
             {"cells": n_cells, "r_window": (0.0, float(r_grid[-1]))})
            for (epsilon, n_cells, r_grid), idx in zip(ladder, np.split(which, ends[:-1]))]


def _unfolding_errors(u, limit, epsilon, r_grid, t_all):
    # one epsilon (t_all: times of its fine r-grid, then of r_grid); its arrays
    # are freed before u is called again; the slow points are unfolded in
    # blocks of _BLOCK points, limit surfaces included, and max is exact, so
    # the running max per signal is the max over the whole surface
    t_fine, t_slow = t_all[:-r_grid.size], t_all[-r_grid.size:]
    cells = [np.asarray(v, float)[:-1].reshape(-1, _S_POINTS) for v in u(epsilon, t_fine)]
    q = r_grid / epsilon  # >= 0, so q - floor(q) is exact and below 1
    n = np.floor(q)
    rho = q - n
    n = n.astype(int)
    s_grid = np.arange(_S_POINTS) / _S_POINTS
    errs = np.zeros(len(cells))
    rows = _BLOCK // _S_POINTS
    for k in range(0, r_grid.size, rows):
        nk, rk = n[k:k + rows], rho[k:k + rows, None]
        limits = limit(t_slow[k:k + rows, None], s_grid[None, :])
        block = []
        for v, lim in zip(cells, limits, strict=True):
            blend = (1.0 - rk) * v[nk] + rk * v[nk + 1]
            jump = (1.0 - rk) * (v[nk + 1, :1] - v[nk, :1]) + rk * (v[nk + 2, :1] - v[nk + 1, :1])
            block.append(np.max(np.abs(blend - s_grid * jump - np.asarray(lim, float))))
        errs = np.maximum(errs, block)
    return errs.tolist()


class WindowedAverage(NamedTuple):
    """Mean of a signal over a whole-period window centered near a time."""

    value: float
    t_lo: float
    t_hi: float
    slid_left: bool
    slid_right: bool


# numpy's leggauss(10) written out: its bits follow the LAPACK, its import costs start-up
_GL_NODES = np.array([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
                      -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
                      0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
                      0.9739065285171717])
_GL_WEIGHTS = np.array([0.06667134430868814, 0.1494513491505804, 0.219086362515982,
                        0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
                        0.2692667193099965, 0.219086362515982, 0.1494513491505804,
                        0.06667134430868814])
_PERIODS = 8  # fast periods per window


def windowed_average(signal, centers, epsilon: float,
                     phase_traj: Trajectory) -> list[WindowedAverage]:
    """Average a vectorized signal over 8 whole fast periods around each
    of a sequence of centers; returns one WindowedAverage per center.

    The window edges are found by inverting the phase (component 0 of
    phase_traj), the edges of all windows in one call: the fast factor
    exp(2i*phi/eps) completes exactly 8 cycles between them, so the
    oscillatory parts of the signal cancel to high order.  Windows that
    would stick out of the time range slide inward, keeping their width;
    slid windows are flagged.
    """
    phi = sample(phase_traj, np.asarray(centers, float), component=0)
    half = math.pi * _PERIODS * epsilon / 2.0
    phi_lo_all = float(phase_traj.states[0, 0])
    phi_hi_all = float(phase_traj.states[-1, 0])
    if 2 * half > phi_hi_all - phi_lo_all:
        raise PhaseRangeError(f"epsilon {epsilon:g}: window wider than the "
                              "available phase range")
    slid_left = phi - half < phi_lo_all
    slid_right = phi + half > phi_hi_all
    lo = np.where(slid_left, phi_lo_all,
                  np.where(slid_right, phi_hi_all - 2 * half, phi - half))
    hi = np.where(slid_left, phi_lo_all + 2 * half,
                  np.where(slid_right, phi_hi_all, phi + half))
    t_edges = invert_monotone(phase_traj, np.concatenate([lo, hi]), component=0)
    # composite Gauss-Legendre: 4 panels per fast period resolves the
    # oscillation far below the other error terms
    n_panels = 4 * _PERIODS
    out = []
    for t_lo, t_hi, left, right in zip(t_edges[:phi.size].tolist(),
                                       t_edges[phi.size:].tolist(),
                                       slid_left.tolist(), slid_right.tolist()):
        bounds = np.linspace(t_lo, t_hi, n_panels + 1)
        a = bounds[:-1]
        b = bounds[1:]
        midw = 0.5 * (b - a)
        nodes = (0.5 * (a + b)[:, None] + midw[:, None] * _GL_NODES[None, :]).ravel()
        vals = np.asarray(signal(nodes), float).reshape(n_panels, _GL_NODES.size)
        integral = float(np.sum((vals * _GL_WEIGHTS[None, :]) * midw[:, None]))
        out.append(WindowedAverage(integral / (t_hi - t_lo), t_lo, t_hi, left, right))
    return out


def estimate_order(epsilons, errors) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(epsilon), with R^2.

    Returns (order, r_squared).  Requires >= 3 distinct positive
    epsilons and positive errors.
    """
    eps = np.asarray(epsilons, float)
    err = np.asarray(errors, float)
    if eps.size < 3:
        raise ValueError("need at least three epsilons for an order fit")
    if eps.size != err.size:
        raise ValueError("epsilons and errors must have equal length")
    if not np.all(eps > 0) or np.any(err <= 0):  # a NaN epsilon is not positive
        raise ValueError("epsilons and errors must be positive")
    if np.any(np.diff(np.sort(eps)) == 0):  # np.unique would import numpy.ma
        raise ValueError("epsilons must be distinct")
    x = np.log(eps)
    y = np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    # all errors equal (ss_tot = 0): R^2 is 1 for an exact fit, undefined otherwise
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0 if ss_res == 0.0 else math.nan
    return float(slope), float(r2)
