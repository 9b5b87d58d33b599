"""Leading-order averaged system: effective force -theta*omega'(y0)."""

import math

import numpy as np
import pytest

import fastslow as fs


def test_rhs_at_start(params, fm):
    # the limit field is the first three components of the joint slow field
    d = fs.expansion.expansion_field(params, fm)(0.0, (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert d[:3] == (2.0, 1.0, -0.25)  # (omega, p0, -theta* omega')


def _three_component_solve(params, fm):
    # the limit system solved on its own, with the slow solve's tolerances and cap
    theta_star = fs.derived_constants(params, fm).theta_star
    derivs = fm.scalar_derivs()

    def field(t, x):
        w, w1, _, _ = derivs(x[1])
        return w, x[2], -theta_star * w1
    return fs.integrate_controlled(field, (0.0, params.y_star, params.p_star),
                                   params.horizon_T, 1e-12, 1e-12, max_step=0.002)


@pytest.mark.parametrize("preset, coefficients, p_star, u_star, horizon_T", [
    ("sine", (2.0, 1.0), 1.0, 1.0, 1.0),
    ("fourier", (2.0, 0.25, 0.25), 1.0, 1.0, 1.0),
    ("constant", (2.0,), 1.0, 1.0, 1.0),
    ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4), -0.7, 1.5, 1.0),
    ("sine", (2.0, 1.0), 0.5, 1.0, 3.0),
])
def test_limit_columns_are_the_three_component_solve(preset, coefficients, p_star, u_star,
                                                     horizon_T):
    # the step cap sets every step of both solves here, so they agree bitwise
    fm = fs.make_frequency(preset, coefficients)
    params = fs.SystemParams(y_star=0.0, p_star=p_star, u_star=u_star, horizon_T=horizon_T)
    traj, oracle = fs.solve_homogenized(params, fm), _three_component_solve(params, fm)
    assert np.array_equal(traj.times, oracle.times)
    assert np.array_equal(traj.states, oracle.states)
    assert np.array_equal(traj.derivs, oracle.derivs)


@pytest.mark.parametrize("coefficients, y_star, p_star", [
    ((1.02, 1.0), -1.5, 0.0),   # 2.0e-11 of the largest magnitude
    ((1.05, 1.0), -1.3, -0.2),  # 9.7e-13
])
def test_limit_columns_near_the_regime_edge(coefficients, y_star, p_star):
    # the step controller acts here, and the joint solve's error norm also
    # weighs the averaged layer, so its steps are not the 3-component solve's
    fm = fs.make_frequency("sine", coefficients)
    params = fs.SystemParams(y_star=y_star, p_star=p_star, u_star=1.0, horizon_T=1.0)
    grid = np.linspace(0.0, 1.0, 2001)
    got = fs.sample(fs.solve_homogenized(params, fm), grid)
    want = fs.sample(_three_component_solve(params, fm), grid)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-10 * scale)


def test_constant_frequency_gives_free_motion(params):
    fmc = fs.make_frequency("constant", (2.0,))
    traj = fs.solve_homogenized(params, fmc)
    grid = np.linspace(0.0, 1.0, 101)
    xs = fs.sample(traj, grid)
    assert np.max(np.abs(xs[:, 1] - grid)) <= 1e-12       # y = p*t
    assert np.max(np.abs(xs[:, 2] - 1.0)) <= 1e-13         # p constant
    assert np.max(np.abs(xs[:, 0] - 2.0 * grid)) <= 1e-12  # phi = omega*t


def test_leading_energy_conserved(params, fm, dc):
    traj = fs.solve_homogenized(params, fm)
    grid = np.linspace(0.0, 1.0, 2001)
    xs = fs.sample(traj, grid)
    E0 = 0.5 * xs[:, 2] ** 2 + dc.theta_star * fm.derivs(xs[:, 1])[0]
    assert np.max(np.abs(E0 - E0[0])) <= 1e-10
    assert E0[0] == 1.0  # p*^2/2 + theta* omega(y*)


def test_phase_strictly_increasing(params, fm):
    traj = fs.solve_homogenized(params, fm)
    assert np.all(np.diff(traj.states[:, 0]) > 0)
    # phase speed stays inside the frequency band
    grid = np.linspace(0.0, 1.0, 400)
    xs = fs.sample(traj, grid)
    rates = np.gradient(xs[:, 0], grid)
    assert np.all(rates > fm.omega_lower_bound - 0.01)
    assert np.all(rates < fm.omega_upper_bound + 0.01)


def test_invert_phase_round_trip(params, fm):
    traj = fs.solve_homogenized(params, fm)
    r_max = float(traj.states[-1, 0]) / math.pi
    r = np.linspace(0.0, 0.98 * r_max, 50)
    ts = fs.invert_monotone(traj, math.pi * r)
    phis = fs.sample(traj, ts)[:, 0]
    assert np.max(np.abs(phis - math.pi * r)) <= 1e-10
    assert abs(ts[0]) <= 1e-15  # bisection pins r=0 at the left endpoint


def test_eval_homogenized_structure(params, fm):
    # the homogenized state comes out of the joint expansion solve
    traj = fs.solve_expansion(params, fm)
    grid = np.linspace(0.0, 1.0, 7)
    st, corr = fs.eval_expansion(traj, grid)
    assert st.phi0.shape == grid.shape
    xs = fs.sample(traj, grid)
    assert np.array_equal(st.y0, xs[:, 1])
    assert np.array_equal(st.p0, xs[:, 2])
    assert np.array_equal(corr.p2_bar, xs[:, 6])
