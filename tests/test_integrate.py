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
        assert np.array_equal(fs.sample(traj, [float(traj.times[i])])[0],
                              traj.states[i])


def test_dense_eval_midpoint_accuracy(fm, reference_run):
    eps = 0.02
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
    traj = reference_run(eps)  # reference_solution from x0 at base step h
    fine = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h / 4)
    tm = float(0.5 * (traj.times[100] + traj.times[101]))
    assert np.max(np.abs(fs.sample(traj, [tm])[0] - fs.sample(fine, [tm])[0])) <= 1e-10


def _dense_eval(traj, t):
    """One-time cubic Hermite evaluation, the scalar form of sample: the
    segment holding t, then the Hermite basis in sample's operation order."""
    times = traj.times
    t_end = times[-1]
    slack = 1e-9 * max(1.0, abs(t_end))
    if not times[0] - slack <= t <= t_end + slack:
        raise ValueError(f"time {t!r} outside trajectory range")
    t = min(max(t, times[0]), t_end)
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    h = times[i + 1] - times[i]
    tau = (t - times[i]) / h
    tau2 = tau * tau
    tau3 = tau2 * tau
    h00 = 2.0 * tau3 - 3.0 * tau2 + 1.0
    h10 = tau3 - 2.0 * tau2 + tau
    h01 = -2.0 * tau3 + 3.0 * tau2
    h11 = tau3 - tau2
    x, f = traj.states, traj.derivs
    return h00 * x[i] + h10 * h * f[i] + h01 * x[i + 1] + h11 * h * f[i + 1]


def test_sample_matches_dense_eval(fm):
    traj = fs.integrate_fixed(fs.action_angle_field(0.04, fm),
                              np.array([0.0, 0.25, 0.0, 1.0]), 1.0, 1e-3)
    grid = np.linspace(0.0, 1.0, 101)
    xs = fs.sample(traj, grid)
    for j in (0, 17, 50, 100):
        assert np.array_equal(xs[j], _dense_eval(traj, float(grid[j])))


def test_richardson_reference_reports_error(fm, reference_run):
    eps = 0.02
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    h1 = 2 * math.pi * eps / (40 * fm.omega_upper_bound)
    r1 = fs.reference_solution(fs.action_angle_field(eps, fm), x0, 1.0, h1)
    r2 = reference_run(eps)  # reference_solution from x0 at base step h1 / 2
    e1 = r1.meta["richardson_error"]
    e2 = r2.meta["richardson_error"]
    assert e1 > 0 and e2 > 0
    # fourth-order scheme: halving h divides the tag by ~16
    assert 12 <= e1 / e2 <= 22


def test_shared_reference_runs_are_read_only(reference_run):
    ref = reference_run(0.04)
    assert reference_run(0.04) is ref
    for a in (ref.times, ref.states, ref.derivs):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(TypeError):
        ref.meta["richardson_error"] = 0.0


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


def test_step_cap_beyond_the_budget_raises_before_the_first_step():
    # 100 steps of at most 0.01 cannot fit a budget of 10: the solver says so
    # at once instead of stepping until the budget runs out
    calls = []

    def counted(t, x):
        calls.append(t)
        return decay(t, x)
    with pytest.raises(fs.NumericalError, match="step budget"):
        fs.integrate_controlled(counted, np.array([1.0]), 1.0, 1e-8, 1e-8,
                                max_step=0.01, max_steps=10)
    assert len(calls) <= 1


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


def _assert_inverts_like_full_width_bisection(traj):
    vals = traj.states[:, 0]
    # every node value and its neighbours on both sides, both ends, targets
    # inside the 1e-9 slack beyond them, and a spread: over 8193 targets
    targets = np.concatenate([
        vals, np.nextafter(vals, -np.inf), np.nextafter(vals, np.inf),
        np.linspace(vals[0], vals[-1], max(1001, 8200 - 3 * vals.size)),
        np.random.default_rng(7).uniform(vals[0], vals[-1], 500),
        [vals[0] - 1e-9, vals[0] - 5e-10, vals[-1] + 5e-10, vals[-1] + 1e-9]])
    targets = np.sort(targets[(targets >= vals[0] - 1e-9) & (targets <= vals[-1] + 1e-9)])
    want = _invert_full_width(traj, targets)
    assert np.array_equal(fs.invert_monotone(traj, targets), want)
    # each target's time is its own: calls of one block and of two (8192
    # targets per block at most) and shuffled targets give the same bits
    for n in (1, 8191, 8192, 8193):
        assert np.array_equal(fs.invert_monotone(traj, targets[-n:]), want[-n:])
    shuffle = np.random.default_rng(8).permutation(targets.size)
    assert np.array_equal(fs.invert_monotone(traj, targets[shuffle]), want[shuffle])


def test_invert_monotone_matches_full_width_bisection(expansion_run):
    _assert_inverts_like_full_width_bisection(expansion_run[0])


def test_invert_monotone_matches_full_width_bisection_past_a_flat_node():
    # the first cubic is flat at its end node t = 1 and falls far below the
    # node's value at the first midpoint t = 1.5, in the next segment
    traj = fs.Trajectory(np.array([0.0, 1.0, 3.0]), np.array([[0.0], [1.0], [3.0]]),
                         np.array([[1.0], [1e-6], [1.0]]))
    assert fs.sample(traj, [1.5])[0, 0] > 1.0
    _assert_inverts_like_full_width_bisection(traj)
    # targets of the first segment alone: no bracket is inside it before
    # its upper end falls to the node
    below = np.array([0.99, 0.999999, np.nextafter(1.0, 0.0)])
    assert np.array_equal(fs.invert_monotone(traj, below), _invert_full_width(traj, below))


@pytest.mark.parametrize("preset, coefficients, horizon_T", [
    ("sine", (2.0, 1.0), 1.0),
    # a non-dyadic horizon: the halving midpoints round
    ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4), 1.3),
])
def test_invert_monotone_matches_sample_bisection_on_reference_runs(
        preset, coefficients, horizon_T, reference_run):
    fm = fs.make_frequency(preset, coefficients)
    _assert_inverts_like_full_width_bisection(reference_run(0.01, fm, horizon_T))


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


def test_rk4_stage_times_are_those_of_the_ndarray_form():
    # a field that reads t: each stage gets the time of the vector form,
    # i*h + 0.5*hi and t_next, the shortened last step included
    def field(t, x):
        return (math.cos(3.0 * t) * x[1], -x[0], t * t, math.sin(t) + 0.1 * x[3])

    x0 = np.array([0.3, -0.2, 0.0, 1.0])
    for T, h in ((0.3, 0.0123), (1.0, 1 / 3), (2.5, 0.01)):
        traj = fs.integrate_fixed(field, x0, T, h)
        times, states, derivs = _rk4_ndarray(field, x0, T, h)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.derivs, derivs)


def _rk4_rows(rhs, x0, horizon_T, h):
    # integrate_fixed as it was with numpy row assignments and times written
    # in the loop: the oracle of the packed rows and of the times built after it
    x = tuple(np.asarray(x0, dtype=float).tolist())
    x0, x1, x2, x3 = x
    n_steps = int(math.ceil(horizon_T / h - 1e-12))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, 4))
    derivs = np.empty_like(states)
    times[0] = 0.0
    states[0] = x
    f = rhs(0.0, x)
    derivs[0] = f
    for i in range(n_steps):
        t = i * h
        t_next = horizon_T if i == n_steps - 1 else (i + 1) * h
        hi = t_next - t
        half = 0.5 * hi
        a0, a1, a2, a3 = f
        b0, b1, b2, b3 = rhs(t + half, (x0 + half * a0, x1 + half * a1,
                                        x2 + half * a2, x3 + half * a3))
        c0, c1, c2, c3 = rhs(t + half, (x0 + half * b0, x1 + half * b1,
                                        x2 + half * b2, x3 + half * b3))
        d0, d1, d2, d3 = rhs(t_next, (x0 + hi * c0, x1 + hi * c1,
                                      x2 + hi * c2, x3 + hi * c3))
        sixth = hi / 6.0
        x0 = x0 + sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + d0)
        x1 = x1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
        x2 = x2 + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
        x3 = x3 + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
        x = (x0, x1, x2, x3)
        f = rhs(t_next, x)
        times[i + 1] = t_next
        states[i + 1] = x
        derivs[i + 1] = f
    return fs.Trajectory(times, states, derivs, {"method": "rk4", "h": h,
                                                 "n_steps": n_steps})


@pytest.mark.parametrize("preset, coefficients", [
    ("sine", (2.0, 1.0)), ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4)), ("constant", (2.0,))])
def test_packed_rows_match_the_row_writing_loop(preset, coefficients):
    fm = fs.make_frequency(preset, coefficients)
    eps = 0.02
    h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
    for field, x0 in ((fs.action_angle_field(eps, fm), np.array([0.0, 0.25, 0.1, 0.9])),
                      (fs.cartesian_field(eps, fm), np.array([0.1, 0.9, 0.0, 1.0]))):
        traj = fs.integrate_fixed(field, x0, 0.3, h)
        _assert_same_run(traj, _rk4_rows(field, x0, 0.3, h))
        assert traj.meta == {"method": "rk4", "h": h, "n_steps": traj.times.size - 1}
        n = traj.times.size - 1
        assert all(traj.times[i] == i * h for i in range(n)) and traj.times[n] == 0.3
        assert traj.states.flags.c_contiguous and traj.derivs.flags.c_contiguous


@pytest.mark.parametrize("n", range(1, 8))
def test_error_norm_matches_numpy_below_eight_components(n):
    rng = np.random.default_rng(100 + n)
    vectors = (rng.choice([-1.0, 1.0], (3000, n)) * 10.0 ** rng.uniform(-8.0, 2.0, (3000, n)))
    specials = [[math.nan] * n, [math.inf] * n, [-math.inf] + [1.0] * (n - 1),
                [1e-8] * (n - 1) + [math.nan], [-0.0] * n, [0.0] * n]
    if n > 1:
        specials.append([math.inf, math.nan] + [2.0] * (n - 2))
    for r in vectors.tolist() + specials:
        got = fs.integrate._error_norm(r)
        with np.errstate(invalid="ignore", over="ignore"):
            want = float(np.sqrt(np.mean(np.square(r))))
        assert got == want or (math.isnan(got) and math.isnan(want)), r


def _dopri_ndarray(rhs, x0, horizon_T, rtol, atol, max_step=math.inf,
                   max_steps=10_000_000):
    # Dormand-Prince in ndarray vector form: the oracle integrate_controlled
    # must match bitwise
    A, C, E = fs.integrate._A, fs.integrate._C, fs.integrate._E
    x = np.asarray(x0, dtype=float).copy()
    d = x.size
    t = 0.0
    f = np.asarray(rhs(t, x), float)
    h = min(max_step, horizon_T / 100.0)
    times, states, derivs = [0.0], [x.copy()], [f.copy()]
    err_old = 1e-4
    n_accept = n_reject = 0
    k = np.empty((7, d))
    min_h = 1e-14 * max(1.0, horizon_T)
    for _ in range(max_steps):
        if t >= horizon_T:
            break
        h = min(h, horizon_T - t)
        if h < min_h:
            raise fs.NumericalError(f"step size underflow at t={t!r}")
        k[0] = f
        for i in range(1, 7):
            xi = x + h * sum((A[i][j] * k[j] for j in range(i)), np.zeros(d))
            k[i] = rhs(t + C[i] * h, xi)
        x_new = xi
        err_vec = h * sum((E[j] * k[j] for j in range(7)), np.zeros(d))
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
        raise fs.NumericalError("step budget exhausted")
    return fs.Trajectory(np.array(times), np.array(states), np.array(derivs),
                         {"method": "dopri54", "rtol": rtol, "atol": atol,
                          "n_accept": n_accept, "n_reject": n_reject})


def _assert_same_run(traj, oracle):
    assert np.array_equal(traj.times, oracle.times)
    assert np.array_equal(traj.states, oracle.states)
    assert np.array_equal(traj.derivs, oracle.derivs)
    assert traj.meta == oracle.meta


@pytest.mark.parametrize("preset, coefficients, p_star, u_star", [
    ("sine", (2.0, 1.0), 1.0, 1.0),
    ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4), -0.7, 1.5),
])
def test_tuple_dopri_matches_ndarray_dopri_on_the_slow_fields(
        preset, coefficients, p_star, u_star):
    fm = fs.make_frequency(preset, coefficients)
    params = fs.SystemParams(y_star=0.0, p_star=p_star, u_star=u_star, horizon_T=1.0)
    exp = fs.solve_expansion(params, fm)
    _assert_same_run(exp, _dopri_ndarray(fs.expansion.expansion_field(params, fm),
                                         exp.states[0], 1.0, 1e-12, 1e-12, max_step=0.002))


def test_tuple_dopri_matches_ndarray_dopri_through_rejections(fm):
    field = fs.action_angle_field(0.01, fm)
    x0 = np.array([0.0, 0.25, 0.0, 1.0])
    traj = fs.integrate_controlled(field, x0, 1.0, rtol=1e-10, atol=1e-10)
    assert traj.meta["n_reject"] > 0
    _assert_same_run(traj, _dopri_ndarray(field, x0, 1.0, 1e-10, 1e-10))


@pytest.mark.parametrize("d", [1, 10])
def test_tuple_dopri_matches_ndarray_dopri_in_any_dimension(d):
    # d = 10: numpy sums 8 and more squared ratios pairwise, the solver left
    # to right, so the two error norms differ in the last bit at 3 of the 56
    # steps here; that moves no step size, and the runs agree bitwise
    def rates(t, x):
        return tuple(-(i + 1) * v for i, v in enumerate(x))
    x0 = np.linspace(1.0, -1.0, d)
    traj = fs.integrate_controlled(rates, x0, 1.0, 1e-8, 1e-8, max_step=0.05)
    assert traj.states.shape == (traj.times.size, d)
    _assert_same_run(traj, _dopri_ndarray(rates, x0, 1.0, 1e-8, 1e-8, max_step=0.05))
    with pytest.raises(ValueError, match="2 components for a 1-component state"):
        fs.integrate_controlled(lambda t, x: (1.0, 2.0), np.ones(1), 1.0, 1e-8, 1e-8)


def test_nan_times_and_targets_are_outside_the_range():
    traj = fs.integrate_fixed(lambda t, x: (2.0, 0.0, 0.0, 0.0), ZERO, 1.0, 0.1)
    with pytest.raises(ValueError, match="outside"):
        fs.invert_monotone(traj, [math.nan, 0.5])
    for grid in ([0.5, math.nan], [math.nan]):
        with pytest.raises(ValueError, match="outside"):
            fs.sample(traj, grid)
        with pytest.raises(ValueError, match="outside"):
            fs.sample(traj, grid, component=0)
