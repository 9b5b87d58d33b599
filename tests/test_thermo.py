"""Temperature, entropy, force, energy balances, oscillator diagnostics."""

import math
import warnings

import numpy as np
import pytest

import fastslow as fs
from fastslow.expansion import initial_corrections
from fastslow.thermo import fd4_derivative


def test_thermo_state_values(params, fm, dc):
    # bath state at t = 0: theta* = 1/4, omega = 2, omega' = 1
    base = fs.HomogenizedState(phi0=0.0, y0=0.0, p0=1.0)
    corr = initial_corrections(params, fm)
    cv = fs.correctors(base, corr.phi2_bar, 0.04, fm, dc.theta_star)
    th = fs.expand_thermo(base, corr, cv, dc.theta_star, fm)
    assert th.T0 == 0.5
    assert th.S0 == 0.0  # the entropy constant pins the start to zero
    assert dc.entropy_constant == -math.log(dc.theta_star)
    assert th.F0 == 0.25


@pytest.fixture(scope="module")
def thermo_pieces(expansion_run, fm, dc):
    traj, grid, base, corr = expansion_run
    eps = 0.005
    cv = fs.correctors(base, corr.phi2_bar, eps, fm, dc.theta_star)
    th = fs.expand_thermo(base, corr, cv, dc.theta_star, fm)
    ex = fs.energy_expansion(base, corr, cv, eps, dc.theta_star, fm)
    bundle = fs.averaged_energy_bundle(base, corr, fm, dc)
    return grid, base, corr, cv, th, ex, bundle


def test_expansion_leading_terms(thermo_pieces, fm, dc):
    grid, base, corr, cv, th, ex, bundle = thermo_pieces
    w, w1, _, _ = fm.derivs(base.y0)
    assert np.array_equal(th.T0, dc.theta_star * w)
    assert np.array_equal(th.F0, dc.theta_star * w1)
    assert np.all(th.S0 == 0.0)
    assert th.T0[0] == 0.5 and th.F0[0] == 0.25


def test_entropy_coefficient_relations(thermo_pieces, fm, dc):
    grid, base, corr, cv, th, ex, bundle = thermo_pieces
    w, w1, _, _ = fm.derivs(base.y0)
    dtl = base.p0 * w1 / w
    # singly averaged = doubly averaged minus the squared first-order mean
    gap = th.S2_bar - (th.S2_doublebar - (dtl / (4 * w)) ** 2)
    assert np.max(np.abs(gap)) <= 1e-15
    assert np.array_equal(th.S2_doublebar, corr.theta2_bar / dc.theta_star)
    assert np.array_equal(th.S1_osc, cv.theta1 / dc.theta_star)
    full = ((corr.theta2_bar + cv.theta2) / dc.theta_star
            - 0.5 * (cv.theta1 / dc.theta_star) ** 2)
    assert np.max(np.abs(th.S2_full - full)) <= 1e-15


def test_closed_form_entropy_at_start(thermo_pieces, dc):
    grid, base, corr, cv, th, ex, bundle = thermo_pieces
    # (1/2)(p0 w'/2w^2)^2 + C at t=0: 1/128 - 17/512 = -13/512
    assert bundle.S2_doublebar_closed[0] == -0.025390625
    assert np.max(np.abs(corr.theta2_bar
                         - dc.theta_star * bundle.S2_doublebar_closed)) <= 1e-8


@pytest.mark.parametrize("order", [1, 2])
def test_first_order_energy_identity(thermo_pieces, order):
    # the oscillatory oscillator and slow energies cancel at first and second order
    grid, base, corr, cv, th, ex, bundle = thermo_pieces
    perp, par = getattr(ex, f"E{order}_perp_osc"), getattr(ex, f"E{order}_par_osc")
    assert np.max(np.abs(perp + par)) <= 1e-13


def test_averaged_energy_bundle_consistency(thermo_pieces, fm, dc):
    grid, base, corr, cv, th, ex, bundle = thermo_pieces
    assert np.max(np.abs(ex.E2_bar)) <= 1e-8
    recomposed = ex.E2_perp_bar + ex.E2_par_bar
    assert np.max(np.abs(bundle.E2_bar - recomposed)) <= 1e-14
    rhs = fs.averaged_rhs(corr, base, fm, dc.theta_star)
    assert np.max(np.abs(rhs.y2_bar - bundle.dE2_dp0)) <= 1e-7
    assert np.max(np.abs(rhs.p2_bar + bundle.dE2_dy0)) <= 1e-7


def test_first_law_constant_frequency_is_exact(params):
    fmc = fs.make_frequency("constant", (2.0,))
    dcc = fs.derived_constants(params, fmc)
    traj = fs.solve_expansion(params, fmc)
    grid = np.linspace(0.0, 1.0, 2001)
    base, corr = fs.eval_expansion(traj, grid)
    cv = fs.correctors(base, corr.phi2_bar, 0.01, fmc, dcc.theta_star)
    th = fs.expand_thermo(base, corr, cv, dcc.theta_star, fmc)
    ex = fs.energy_expansion(base, corr, cv, 0.01, dcc.theta_star, fmc)
    residuals = fs.check_first_law(ex.E0_perp, base.y0, th.S0, th.F0, th.T0,
                                   grid[1] - grid[0])
    assert np.max(np.abs(residuals)) == 0.0


def test_first_law_along_expansion(thermo_pieces):
    grid, base, corr, cv, th, ex, bundle = thermo_pieces
    dt = grid[1] - grid[0]
    lead = fs.check_first_law(ex.E0_perp, base.y0, th.S0, th.F0, th.T0, dt)
    assert np.max(np.abs(lead)) <= 1e-8
    literal = fs.check_first_law(ex.E2_perp_bar, corr.y2_bar, th.S2_doublebar,
                                 th.F0, th.T0, dt)
    # with the work of the second-order force through dy0 the balance closes
    second = literal - th.F2_bar * fd4_derivative(base.y0, dt)
    assert np.max(np.abs(second)) <= 1e-6
    # without it the balance misses at O(1)
    assert np.max(np.abs(literal)) > 1e-4
    assert abs(literal[0] - (-0.00634765625)) <= 1e-9


def test_fd4_derivative_accuracy_and_validation():
    t = np.linspace(0.0, 1.0, 2001)
    d = fd4_derivative(np.sin(3 * t), t[1] - t[0])
    assert np.max(np.abs(d - 3 * np.cos(3 * t))) <= 1e-9
    with pytest.raises(ValueError):
        fd4_derivative(np.zeros(4), 0.1)


def test_hertz_temperature_matches_action_times_frequency(fm):
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(10):
        E = float(rng.uniform(0.05, 2.0))
        y = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, abs(fs.hertz_temperature_oracle(E, y, fm) - E))
    assert worst <= 1e-10


def test_phase_space_volume_closed_form(fm):
    assert fs.phase_space_volume(1.0, 0.0, fm) == math.pi  # 2 pi E/omega
    assert fs.phase_space_volume(0.0, 0.3, fm) == 0.0


def test_phase_space_volume_quadrature(fm):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        E = float(rng.uniform(0.05, 2.0))
        y = float(rng.uniform(-3.0, 3.0))
        cl = fs.phase_space_volume(E, y, fm)
        qu = fs.phase_space_volume(E, y, fm, method="area-quadrature")
        worst = max(worst, abs(qu - cl) / cl)
    assert worst <= 0.005
    zero = fs.phase_space_volume(0.0, 0.3, fm, method="area-quadrature")
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    with pytest.raises(ValueError):
        fs.phase_space_volume(1.0, 0.0, fm, method="nope")


@pytest.fixture(scope="module")
def equip_refs(reference_run):
    return {eps: reference_run(eps) for eps in (0.02, 0.01)}


def test_equipartition_windowed_gap_shrinks(equip_refs, fm):
    reps = {eps: fs.equipartition_check(traj, eps, fm)
            for eps, traj in equip_refs.items()}
    assert reps[0.01].gap_max < reps[0.02].gap_max
    assert not reps[0.02].any_slid
    assert reps[0.02].centers.size == 9
    # virial-type product decays at first order in epsilon
    order = math.log(reps[0.02].xi_sup / reps[0.01].xi_sup) / math.log(2.0)
    assert order >= 0.9


def test_equipartition_degenerate_zero_action(fm):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fs.SystemParams(0.0, 1.0, 0.0, 1.0)
    eps = 0.02
    x0 = np.array([0.0, 0.0, 0.0, 1.0])
    h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
    ref = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h)
    rep = fs.equipartition_check(ref, eps, fm)
    assert rep.gap_max == 0.0
    assert rep.xi_sup == 0.0
