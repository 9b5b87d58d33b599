"""Fixed-step and adaptive integrators, dense output, Richardson reference."""

import math

import numpy as np
import pytest

import fastslow as fs


def decay(t, x):
    return tuple(-v for v in x)


# integrate_fixed steps 4-component states; these start component 0 at one
ONE = np.array([1.0, 0.0, 0.0, 0.0])
ZERO = np.zeros(4)


def test_fixed_step_is_fourth_order():
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        traj = fs.integrate_fixed(decay, ONE, 1.0, h)
        errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    order = math.log(errs[0] / errs[2]) / math.log(4)
    assert abs(order - 4.0) <= 0.1


def test_fixed_step_accuracy_at_small_h():
    traj = fs.integrate_fixed(decay, ONE, 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-10


def test_fixed_step_exact_on_constant_field():
    traj = fs.integrate_fixed(lambda t, x: np.ones(4), ZERO, 2.0, 0.125)
    assert traj.times[-1] == 2.0
    assert traj.states[-1, 0] == 2.0  # 16 exact binary steps


def test_fixed_step_node_times_are_multiples():
    traj = fs.integrate_fixed(decay, ONE, 1.0, 0.03)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)
    # interior nodes sit at i*h exactly
    assert traj.times[7] == 7 * 0.03


def test_constant_frequency_keeps_action_bitwise(fm):
    fmc = fs.make_frequency("constant", (2.0,))
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    traj = fs.integrate_fixed(fs.action_angle_field(0.01, fmc), x0, 1.0, 1e-3)
    assert np.all(traj.states[:, 1] == 0.25)
    assert np.all(traj.states[:, 3] == 1.0)


def test_controlled_energy_drift(fm):
    eps = 0.01
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    traj = fs.integrate_controlled(fs.action_angle_field(eps, fm), x0, 1.0,
                                   rtol=1e-10, atol=1e-10)
    E = np.array([fs.energy_action_angle(fs.ActionAngleState(*st), eps, fm)
                  for st in traj.states])
    assert np.max(np.abs(E - E[0])) <= 1e-8


def test_controlled_step_count_scales_with_frequency(fm):
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    n = {}
    for eps in (0.01, 0.005):
        traj = fs.integrate_controlled(fs.action_angle_field(eps, fm), x0, 1.0,
                                       rtol=1e-10, atol=1e-10)
        n[eps] = traj.times.size
    ratio = n[0.005] / n[0.01]
    assert 2 / 1.5 <= ratio <= 2 * 1.5


def test_controlled_respects_max_step():
    traj = fs.integrate_controlled(decay, np.array([1.0]), 1.0, 1e-8, 1e-8,
                                   max_step=0.01)
    assert np.max(np.diff(traj.times)) <= 0.01 + 1e-12


def test_dense_eval_exact_at_nodes(fm):
    traj = fs.integrate_fixed(fs.action_angle_field(0.02, fm),
                              np.array([0.0, 0.25, 0.0, 1.0]), 1.0, 1e-4)
    for i in (0, 400, 5000, traj.times.size - 1):
        assert np.array_equal(fs.dense_eval(traj, float(traj.times[i])),
                              traj.states[i])


def test_dense_eval_midpoint_accuracy(fm):
    eps = 0.02
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
    traj = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h)
    fine = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h / 4)
    tm = float(0.5 * (traj.times[100] + traj.times[101]))
    assert np.max(np.abs(fs.dense_eval(traj, tm) - fs.dense_eval(fine, tm))) <= 1e-10


def test_sample_matches_dense_eval(fm):
    traj = fs.integrate_fixed(fs.action_angle_field(0.04, fm),
                              np.array([0.0, 0.25, 0.0, 1.0]), 1.0, 1e-3)
    grid = np.linspace(0.0, 1.0, 101)
    xs = fs.sample(traj, grid)
    for j in (0, 17, 50, 100):
        assert np.array_equal(xs[j], fs.dense_eval(traj, float(grid[j])))


def test_richardson_reference_reports_error(fm):
    eps = 0.02
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    h1 = 2 * math.pi * eps / (40 * fm.omega_upper_bound)
    r1 = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h1)
    r2 = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h1 / 2)
    e1 = r1.meta["richardson_error"]
    e2 = r2.meta["richardson_error"]
    assert e1 > 0 and e2 > 0
    # fourth-order scheme: halving h divides the tag by ~16
    assert 12 <= e1 / e2 <= 22


def test_reference_error_cap_enforced(fm):
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    with pytest.raises(fs.NumericalError):
        fs.reference_solution(fs.action_angle_field(0.02, fm), x0, 1.0, 0.01,
                              error_cap=1e-14)


def test_nonfinite_rhs_raises():
    def bad(t, x):
        return np.full(len(x), float("nan"))
    with pytest.raises(fs.NumericalError):
        fs.integrate_fixed(bad, ONE, 1.0, 0.1)
    with pytest.raises(fs.NumericalError):
        fs.integrate_controlled(bad, np.array([1.0]), 1.0, 1e-8, 1e-8)


def test_step_larger_than_horizon_rejected():
    with pytest.raises(ValueError):
        fs.integrate_fixed(decay, ONE, 1.0, 2.0)
    with pytest.raises(ValueError):
        fs.integrate_fixed(decay, ONE, 1.0, 0.0)


def test_fixed_step_takes_four_components():
    for d in (1, 7):
        with pytest.raises(ValueError, match="4-component"):
            fs.integrate_fixed(decay, np.ones(d), 1.0, 0.1)


def test_step_budget_exhaustion_raises():
    with pytest.raises(fs.NumericalError):
        fs.integrate_controlled(decay, np.array([1.0]), 1.0, 1e-13, 1e-13,
                                max_steps=10)


def test_invert_monotone_recovers_times():
    traj = fs.integrate_fixed(lambda t, x: (2.0 + math.sin(x[0]), 0.0, 0.0, 0.0),
                              ZERO, 1.0, 1e-3)
    targets = np.linspace(0.0, float(traj.states[-1, 0]), 20)
    ts = fs.invert_monotone(traj, targets)
    vals = fs.sample(traj, ts)[:, 0]
    assert np.max(np.abs(vals - targets)) <= 1e-10


def test_sample_component_matches_full_columns(expansion_run):
    traj = expansion_run[0]
    assert traj.states.shape[1] == 7
    mids = 0.5 * (traj.times[:-1] + traj.times[1:])
    grid = np.sort(np.concatenate([traj.times, mids, np.linspace(0.0, 1.0, 997)]))
    full = fs.sample(traj, grid)
    for c in range(7):
        col = fs.sample(traj, grid, component=c)
        assert col.shape == grid.shape
        assert np.array_equal(col, full[:, c])


def _invert_full_width(traj, targets, component=0, iterations=60):
    # bisection that interpolates every column and keeps one
    lo = np.full(targets.shape, traj.times[0])
    hi = np.full(targets.shape, traj.times[-1])
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        v = fs.sample(traj, mid)[:, component]
        take_hi = v < targets
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return 0.5 * (lo + hi)


def test_invert_monotone_matches_full_width_bisection(expansion_run):
    traj = expansion_run[0]
    phi_T = float(traj.states[-1, 0])
    targets = np.concatenate([np.linspace(0.0, phi_T, 4001),
                              np.random.default_rng(7).uniform(0.0, phi_T, 500)])
    ts = fs.invert_monotone(traj, targets, component=0)
    assert np.array_equal(ts, _invert_full_width(traj, targets))
    # each target is bisected on its own: split calls give the same bits
    halves = [fs.invert_monotone(traj, part) for part in np.split(targets, [1234])]
    assert np.array_equal(np.concatenate(halves), ts)


def test_invert_monotone_rejects_a_column_that_turns_back():
    # x = sin(t) rises to 1 at t = pi/2 and falls after it
    traj = fs.integrate_fixed(lambda t, x: (math.cos(t), 0.0, 0.0, 0.0),
                              ZERO, 3.0, 1e-2)
    assert float(traj.states[-1, 0]) > 0.1
    with pytest.raises(ValueError, match="strictly increasing"):
        fs.invert_monotone(traj, np.array([0.1]))
    flat = fs.integrate_fixed(lambda t, x: ZERO, ONE, 1.0, 0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        fs.invert_monotone(flat, np.array([1.0]))


def _rk4_ndarray(rhs, x0, horizon_T, h):
    # RK4 in ndarray vector form: the oracle integrate_fixed must match bitwise
    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(math.ceil(horizon_T / h - 1e-12))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, x.size))
    derivs = np.empty_like(states)
    times[0] = 0.0
    states[0] = x
    f = np.asarray(rhs(0.0, x))
    derivs[0] = f
    for i in range(n_steps):
        t = i * h
        t_next = horizon_T if i == n_steps - 1 else (i + 1) * h
        hi = t_next - t
        k1 = f
        k2 = np.asarray(rhs(t + 0.5 * hi, x + (0.5 * hi) * k1))
        k3 = np.asarray(rhs(t + 0.5 * hi, x + (0.5 * hi) * k2))
        k4 = np.asarray(rhs(t_next, x + hi * k3))
        x = x + (hi / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f = np.asarray(rhs(t_next, x))
        times[i + 1] = t_next
        states[i + 1] = x
        derivs[i + 1] = f
    return times, states, derivs


def test_tuple_rk4_matches_ndarray_rk4():
    eps = 0.02
    T = 0.3
    for preset, coefficients in (("sine", (2.0, 1.0)),
                                 ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4)),
                                 ("constant", (2.0,))):
        fm = fs.make_frequency(preset, coefficients)
        # T/h is not an integer, so the shortened last step is compared too
        h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
        assert T / h != math.floor(T / h)
        cases = ((fs.action_angle_field(eps, fm), np.array([0.0, 0.25, 0.1, 0.9])),
                 (fs.cartesian_field(eps, fm), np.array([0.1, 0.9, 0.0, 1.0])))
        for field, x0 in cases:
            traj = fs.integrate_fixed(field, x0, T, h)
            times, coarse, derivs = _rk4_ndarray(field, x0, T, h)
            assert traj.times[-1] == T
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, coarse)
            assert np.array_equal(traj.derivs, derivs)
            ref = fs.reference_solution(field, x0, T, h)
            fine_t, fine, fine_d = _rk4_ndarray(field, x0, T, 0.5 * h)
            assert np.array_equal(ref.times, fine_t)
            assert np.array_equal(ref.states, fine)
            assert np.array_equal(ref.derivs, fine_d)
            idx = np.searchsorted(fine_t, times)
            assert ref.meta["richardson_error"] == float(
                np.max(np.abs(fine[idx] - coarse))) / 15.0
    # x' = x^2 from x = 2 blows up at t = 1/2: the state overflows mid-run
    with pytest.raises(fs.NumericalError, match=r"non-finite state at t=0\.5"):
        fs.integrate_fixed(lambda t, x: tuple(v * v for v in x),
                           np.array([2.0, 0.0, 0.0, 0.0]), 1.0, 1e-3)
