"""Oscillatory correctors, averaged second-order system, reconstruction.

The t=0 oracle values are exact dyadic rationals worked out by hand for
the standard configuration (omega = 2 + sin y, y*=0, p*=1, u*=1):
theta* = 1/4, omega = 2, omega' = 1, omega'' = 0 at the start.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fastslow as fs
from fastslow.expansion import initial_corrections, reconstruct
from fastslow.thermo import fd4_derivative


def base_at_start():
    return fs.HomogenizedState(phi0=0.0, y0=0.0, p0=1.0)


def test_corrector_values_at_start(dc, fm):
    cv = fs.correctors(base_at_start(), 0.0625, 0.04, fm, dc.theta_star)
    # phase is 0: sin terms vanish, cos terms are 1
    assert cv.theta1 == 0.0
    assert cv.phi2 == -0.0625     # -(p* omega'/omega)/(4 omega)
    assert cv.y2 == -0.015625     # -theta* (omega'/omega)/(4 omega)
    assert cv.p2 == -0.015625     # theta* p* (omega'' omega - 2 omega'^2)/(4 omega^3)


def test_initial_corrections_frozen_values(params, fm):
    corr0 = initial_corrections(params, fm)
    assert corr0.phi2_bar == 0.0625
    assert corr0.y2_bar == 0.015625
    assert corr0.p2_bar == 0.015625
    assert corr0.theta2_bar == -0.00634765625


def test_averaged_rhs_at_start(params, fm, dc):
    corr0 = initial_corrections(params, fm)
    d = fs.averaged_rhs(corr0, base_at_start(), fm, dc.theta_star)
    assert d.phi2_bar == 0.0078125
    assert d.theta2_bar == -0.0048828125
    assert d.y2_bar == 0.0078125
    assert d.p2_bar == 0.00341796875


def test_averaged_rhs_is_trajectory_derivative(expansion_run, fm, dc):
    traj, grid, base, corr = expansion_run
    d = fs.averaged_rhs(corr, base, fm, dc.theta_star)
    dt = grid[1] - grid[0]
    for name in ("phi2_bar", "theta2_bar", "y2_bar", "p2_bar"):
        fd = fd4_derivative(getattr(corr, name), dt)
        assert np.max(np.abs(fd - getattr(d, name))) <= 1e-9


def test_p2_corrector_matches_frequency_ratio_derivative(fm, dc):
    # p2 amplitude = theta* p0 / 4 * d/dy (omega'/omega^2), phase cos
    y, p0 = 0.37, 0.9
    h = 1e-6

    def ratio(v):
        w, w1, _, _ = fm.derivs(v)
        return w1 / w**2

    fd = (ratio(y + h) - ratio(y - h)) / (2 * h)
    b = fs.HomogenizedState(0.0, y, p0)
    cv = fs.correctors(b, 0.0, 0.25, fm, dc.theta_star)
    assert abs(cv.p2 - dc.theta_star * p0 / 4 * fd) <= 1e-9


def test_correctors_vanish_at_quarter_period(expansion_run, fm, dc):
    # cos(2 phi0/eps) = 0 when 2 phi0/eps = pi/2
    traj, grid, base, corr = expansion_run
    i = 800
    eps = 4.0 * base.phi0[i] / math.pi
    b = fs.HomogenizedState(base.phi0[i], base.y0[i], base.p0[i])
    cv = fs.correctors(b, corr.phi2_bar[i], float(eps), fm, dc.theta_star)
    assert abs(cv.y2) <= 1e-15
    assert abs(cv.p2) <= 1e-15
    assert abs(cv.phi2) <= 1e-15


def test_constant_frequency_kills_expansion(params):
    fmc = fs.make_frequency("constant", (2.0,))
    corr0 = initial_corrections(params, fmc)
    assert corr0.phi2_bar == 0.0 and corr0.theta2_bar == 0.0
    assert corr0.y2_bar == 0.0 and corr0.p2_bar == 0.0
    traj = fs.solve_expansion(params, fmc)
    grid = np.linspace(0.0, 1.0, 101)
    base, corr = fs.eval_expansion(traj, grid)
    for name in ("phi2_bar", "theta2_bar", "y2_bar", "p2_bar"):
        assert np.max(np.abs(getattr(corr, name))) <= 1e-12
    dcc = fs.derived_constants(params, fmc)
    cv = fs.correctors(base, corr.phi2_bar, 0.01, fmc, dcc.theta_star)
    for name in ("theta1", "phi2", "y2", "p2", "theta2"):
        assert np.max(np.abs(getattr(cv, name))) <= 1e-12


def test_reconstruction_reproduces_initial_data(expansion_run, fm, dc):
    traj, grid, base, corr = expansion_run
    b0 = fs.HomogenizedState(base.phi0[0], base.y0[0], base.p0[0])
    c0 = fs.AveragedCorrection(corr.phi2_bar[0], corr.theta2_bar[0],
                               corr.y2_bar[0], corr.p2_bar[0])
    for eps in (0.04, 0.005):
        cv0 = fs.correctors(b0, c0.phi2_bar, eps, fm, dc.theta_star)
        phi, theta, y, p = reconstruct(eps, b0, c0, cv0, dc.theta_star)
        # averaged initial data exactly cancels the correctors at t=0
        assert phi == 0.0
        assert theta == 0.25
        assert y == 0.0
        assert p == 1.0


def test_two_scale_limits_match_correctors_at_zero_fast_phase(expansion_run, fm, dc):
    traj, grid, base, corr = expansion_run
    i = 800
    s = np.arange(64) / 64
    b = fs.HomogenizedState(np.array([[base.phi0[i]]]), np.array([[base.y0[i]]]),
                            np.array([[base.p0[i]]]))
    lim = fs.two_scale_limits(b, np.array([[corr.phi2_bar[i]]]), s[None, :],
                              fm, dc.theta_star)
    assert lim.theta1.shape == (1, 64)
    # s = 0 agrees with correctors evaluated at a whole-period phase
    eps_whole = base.phi0[i] / math.pi
    bb = fs.HomogenizedState(base.phi0[i], base.y0[i], base.p0[i])
    cv = fs.correctors(bb, corr.phi2_bar[i], float(eps_whole), fm, dc.theta_star)
    for name in ("theta1", "phi2", "y2", "p2", "theta2"):
        assert abs(getattr(lim, name)[0, 0] - getattr(cv, name)) <= 1e-15
    # oscillatory parts are mean-zero trigonometric polynomials in s
    for name in ("theta1", "phi2", "y2", "p2", "theta2"):
        assert abs(np.mean(getattr(lim, name))) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(phi=st.floats(-3, 3), y=st.floats(-4, 4), p=st.floats(-2, 2),
       eps=st.floats(0.001, 0.1), phi2_bar=st.floats(-0.2, 0.2))
def test_corrector_amplitudes_bounded(phi, y, p, eps, phi2_bar):
    fm = fs.make_frequency("sine", (2.0, 1.0))
    theta_star = 0.25
    b = fs.HomogenizedState(phi, y, p)
    cv = fs.correctors(b, phi2_bar, eps, fm, theta_star)
    w, w1, w2, _ = fm.derivs(y)
    dtl = abs(p * w1 / w)
    assert abs(cv.theta1) <= theta_star * dtl / (2 * w) + 1e-15
    assert abs(cv.phi2) <= dtl / (4 * w) + 1e-15
    assert abs(cv.y2) <= theta_star * abs(w1 / w) / (4 * w) + 1e-15
    assert abs(cv.p2) <= theta_star * abs(p) * abs(w2 * w - 2 * w1 * w1) / (4 * w**3) + 1e-15


def test_residual_norms_shapes(params, fm, reference_run):
    grid = np.linspace(0.0, 1.0, 201)
    base, corr = fs.eval_expansion(fs.solve_expansion(params, fm), grid)
    runs = ((eps, reference_run(eps)) for eps in (0.04, 0.02))
    rep = fs.residual_norms(params, fm, grid, base, corr, runs)
    assert rep.epsilons == (0.04, 0.02)
    assert set(rep.families) == {"leading", "first", "second"}
    assert set(rep.families["second"]) == {"phi", "theta", "y", "p"}
    assert rep.energy_drift.shape == (2,)
    assert np.all(rep.energy_drift <= 1e-8)
    # theta residual normalizes by eps at leading order, eps^2 elsewhere
    lead = rep.families["leading"]["theta"]
    assert np.allclose(rep.normalized["leading"]["theta"], lead / np.array([0.04, 0.02]))


def test_kernels_agree_on_scalars_and_length_one_arrays(expansion_run, fm, dc):
    traj, grid, base, corr = expansion_run
    i, eps, ts = 1234, 0.01, dc.theta_star

    def at(obj, pick):
        return type(obj)(*(pick(v) for v in obj._asdict().values()))

    results = []
    for pick in (lambda v: float(v[i]), lambda v: v[i:i + 1]):
        b, c = at(base, pick), at(corr, pick)
        cv = fs.correctors(b, c.phi2_bar, eps, fm, ts)
        results.append([cv, fs.averaged_rhs(c, b, fm, ts),
                        fs.expand_thermo(b, c, ts, fm),
                        fs.energy_expansion(b, c, cv, eps, ts, fm),
                        fs.averaged_energy_bundle(b, c, fm, dc)])
    for scalar, array in zip(*results):
        for name, value in scalar._asdict().items():
            assert np.ndim(value) == 0, name
            assert getattr(array, name).shape == (1,), name
            assert getattr(array, name)[0] == value, name
