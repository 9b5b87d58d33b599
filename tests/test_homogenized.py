"""Leading-order averaged system: effective force -theta*omega'(y0)."""

import math

import numpy as np

import fastslow as fs
from fastslow.homogenized import homogenized_field


def test_rhs_at_start(fm):
    d = homogenized_field(fm, 0.25)(0.0, (0.0, 0.0, 1.0))
    assert d == (2.0, 1.0, -0.25)  # (omega, p0, -theta* omega')


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
    ts = fs.invert_monotone(traj, math.pi * r, component=0)
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
