"""Two-scale unfolding, windowed means, convergence-order fits."""

import math

import numpy as np
import pytest

import fastslow as fs
from fastslow.averaging import WindowedAverage


@pytest.fixture(scope="module")
def osc_ref(reference_run):
    return 0.01, reference_run(0.01)


def test_windowed_average_constant_and_linear(osc_ref):
    eps, ref = osc_ref
    wa, = fs.windowed_average(lambda ts: np.full(ts.size, 3.25), [0.5], eps, ref)
    assert wa.value == pytest.approx(3.25, abs=1e-14)
    assert not wa.slid_left and not wa.slid_right
    f = lambda ts: np.sin(ts)
    g = lambda ts: ts**2
    a = fs.windowed_average(f, [0.5], eps, ref)[0].value
    b = fs.windowed_average(g, [0.5], eps, ref)[0].value
    c = fs.windowed_average(lambda ts: 2 * f(ts) - 3 * g(ts), [0.5], eps, ref)[0].value
    assert abs(c - (2 * a - 3 * b)) <= 1e-13


def test_windowed_average_cancels_oscillation(osc_ref, fm):
    eps, ref = osc_ref

    def s2_signal(ts):
        xs = fs.sample(ref, ts)
        s2, _ = fs.reduced_sincos(xs[:, 0], eps, 2)
        return s2

    wa, = fs.windowed_average(s2_signal, [0.5], eps, ref)
    assert abs(wa.value) <= 5e-3  # amplitude-1 oscillation averages out

    def sq_signal(ts):
        xs = fs.sample(ref, ts)
        s1, _ = fs.reduced_sincos(xs[:, 0], eps, 1)
        return s1**2

    wa2, = fs.windowed_average(sq_signal, [0.5], eps, ref)
    assert abs(wa2.value - 0.5) <= 1e-3


def test_windowed_average_slides_at_edges(osc_ref):
    eps, ref = osc_ref
    wa, wb = fs.windowed_average(lambda ts: np.ones(ts.size), [0.0, 1.0], eps, ref)
    assert wa.slid_left and not wa.slid_right
    assert wa.t_lo >= 0.0
    assert wb.slid_right


def _windowed_average_one(signal, t, epsilon, phase_traj, m=8):
    """The per-center routine that windowed_average replaced, kept as its oracle."""
    # the module's rule, so that only the loop is compared
    gl_nodes, gl_weights = fs.averaging._GL_NODES, fs.averaging._GL_WEIGHTS
    phi = float(fs.sample(phase_traj, np.array([t]), component=0)[0])
    half = math.pi * m * epsilon / 2.0
    phi_lo_all = float(phase_traj.states[0, 0])
    phi_hi_all = float(phase_traj.states[-1, 0])
    lo = phi - half
    hi = phi + half
    slid_left = lo < phi_lo_all
    slid_right = hi > phi_hi_all
    if slid_left:
        lo, hi = phi_lo_all, phi_lo_all + 2 * half
    elif slid_right:
        lo, hi = phi_hi_all - 2 * half, phi_hi_all
    t_edges = fs.invert_monotone(phase_traj, np.array([lo, hi]), component=0)
    t_lo, t_hi = float(t_edges[0]), float(t_edges[1])
    n_panels = 4 * m
    bounds = np.linspace(t_lo, t_hi, n_panels + 1)
    a = bounds[:-1]
    b = bounds[1:]
    midw = 0.5 * (b - a)
    nodes = (0.5 * (a + b)[:, None] + midw[:, None] * gl_nodes[None, :]).ravel()
    vals = np.asarray(signal(nodes), float).reshape(n_panels, gl_nodes.size)
    integral = float(np.sum((vals * gl_weights[None, :]) * midw[:, None]))
    return WindowedAverage(integral / (t_hi - t_lo), t_lo, t_hi,
                           slid_left, slid_right)


@pytest.mark.parametrize("m", [8])  # the one window width windowed_average takes
def test_windowed_average_over_centers_matches_one_center_at_a_time(osc_ref, m):
    eps, ref = osc_ref

    def s2_signal(ts):
        xs = fs.sample(ref, ts)
        s2, _ = fs.reduced_sincos(xs[:, 0], eps, 2)
        return xs[:, 1] * s2 + ts**2

    # windows slid at 0 and at T, interior ones, and a repeated center
    centers = [0.0, 0.01, 0.3, 0.5, 0.5, 0.7 + 1e-9, 0.99, 1.0]
    got = fs.windowed_average(s2_signal, centers, eps, ref)
    want = [_windowed_average_one(s2_signal, t, eps, ref, m=m) for t in centers]
    assert got == want  # every field, compared exactly
    assert got[0].slid_left and got[-1].slid_right
    assert not any(w.slid_left or w.slid_right for w in got[2:6])


def _exact_limit_pair(htraj):
    # a signal that IS its limit, so the unfolding error is interpolation only

    def u(epsilon, ts):
        xs = fs.sample(htraj, ts)
        s2 = np.sin(2.0 * xs[:, 0] / epsilon)
        return (xs[:, 1] + 0.1 * s2,)

    def limit(t, s):
        tt = np.asarray(t).ravel()
        xs = fs.sample(htraj, tt)
        return (xs[:, 1][:, None]
                + 0.1 * np.sin(2 * np.pi * np.asarray(s).ravel())[None, :],)

    return u, limit


def test_nonlinear_unfolding_error_of_exact_limit(params, fm):
    htraj = fs.solve_homogenized(params, fm)
    u, limit = _exact_limit_pair(htraj)
    [((err,), info)] = fs.nonlinear_two_scale_error(u, limit, htraj, [0.02])
    assert err <= 5e-4
    assert info["cells"] >= 4


@pytest.mark.parametrize("edge", ["first", "last"])
def test_unfolding_sees_a_miss_at_the_first_and_last_slow_point(params, fm, edge):
    # the slow points are unfolded in row blocks; a miss of 1.0 at one end
    # of the slow grid only must reach the sup, so no block may be dropped
    # or misaligned
    htraj = fs.solve_homogenized(params, fm)
    eps = 0.02
    u, limit = _exact_limit_pair(htraj)
    [(_, info)] = fs.nonlinear_two_scale_error(u, limit, htraj, [eps])
    r_end = info["r_window"][1]
    half_step = 0.5 * r_end / 511  # half the slow-point spacing
    r_cut = half_step if edge == "first" else r_end - half_step
    t_cut = float(fs.invert_monotone(htraj, [np.pi * r_cut])[0])

    def missing_limit(t, s):
        (surface,) = limit(t, s)
        at_edge = (t < t_cut) if edge == "first" else (t > t_cut)
        return (surface + np.where(at_edge, 1.0, 0.0),)

    [((err,), _)] = fs.nonlinear_two_scale_error(u, missing_limit, htraj, [eps])
    assert err >= 1.0 - 1e-3


def test_nonlinear_unfolding_needs_enough_cells(params, fm):
    htraj = fs.solve_homogenized(params, fm)
    calls = []

    def u(epsilon, ts):
        calls.append(epsilon)
        return (np.zeros(len(ts)),)

    # every epsilon is checked before the first signal is made
    with pytest.raises(fs.averaging.PhaseRangeError, match="^epsilon 0.5: "):
        fs.nonlinear_two_scale_error(u, lambda t, s: (0.0 * t * s,), htraj, [0.04, 0.5])
    assert calls == []


def test_unfolding_five_signals_at_once_matches_one_at_a_time(params, fm):
    htraj = fs.solve_homogenized(params, fm)
    eps = 0.02
    amps = (0.1, -0.3, 0.05, 0.7, 0.2)

    def signals(epsilon, ts):
        xs = fs.sample(htraj, ts)
        fast = np.sin(2.0 * xs[:, 0] / eps)
        return [xs[:, k % 2 + 1] + a * fast for k, a in enumerate(amps)]

    def surfaces(t, s):
        xs = fs.sample(htraj, np.asarray(t).ravel())
        fast = np.sin(2 * np.pi * np.asarray(s).ravel())[None, :]
        # the k-th surface misses its signal by a k-dependent amount
        return [xs[:, k % 2 + 1][:, None] + (1.0 + 0.01 * k) * a * fast
                for k, a in enumerate(amps)]

    [(errs, info)] = fs.nonlinear_two_scale_error(signals, surfaces, htraj, [eps])
    assert len(errs) == len(amps)
    for k in range(len(amps)):
        [((one,), one_info)] = fs.nonlinear_two_scale_error(
            lambda epsilon, ts, k=k: signals(epsilon, ts)[k:k + 1],
            lambda t, s, k=k: surfaces(t, s)[k:k + 1], htraj, [eps])
        assert one == errs[k]
        assert one_info == info
    assert len(set(errs)) == len(amps)


def test_unfolding_rejects_mismatched_signal_and_limit_counts(params, fm):
    htraj = fs.solve_homogenized(params, fm)
    with pytest.raises(ValueError):
        fs.nonlinear_two_scale_error(lambda epsilon, ts: (ts, ts),
                                     lambda t, s: (0.0 * t * s,), htraj, [0.02])


def test_estimate_order_recovers_exact_powers():
    eps = np.array([0.04, 0.02, 0.01, 0.005])
    order, r2 = fs.estimate_order(eps, 3.7 * eps**2)
    assert order == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_estimate_order_validates():
    with pytest.raises(ValueError):
        fs.estimate_order([0.1, 0.05], [1.0, 0.5])
    with pytest.raises(ValueError):
        fs.estimate_order([0.1, 0.05, 0.02], [1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        fs.estimate_order([0.1, 0.1, 0.02], [1.0, 0.5, 0.2])
    # equal epsilons apart from each other, and a NaN epsilon
    with pytest.raises(ValueError, match="distinct"):
        fs.estimate_order([0.02, 0.1, 0.02], [1.0, 0.5, 0.2])
    with pytest.raises(ValueError, match="positive"):
        fs.estimate_order([0.1, math.nan, 0.02], [1.0, 0.5, 0.2])
    with pytest.raises(ValueError):
        fs.estimate_order([0.1, 0.05, 0.02], [1.0, 0.5])


def test_estimate_order_of_equal_errors():
    # the fit of equal logs can leave a rounding residual: R^2 is then undefined
    order, r2 = fs.estimate_order([0.02, 0.01, 0.005], [32768.0] * 3)
    assert abs(order) <= 1e-12 and math.isnan(r2)
    assert fs.estimate_order([0.04, 0.02, 0.01], [1.0] * 3) == (0.0, 1.0)


def test_gauss_legendre_literals_are_the_ten_point_rule():
    nodes, weights = fs.averaging._GL_NODES, fs.averaging._GL_WEIGHTS
    want_nodes, want_weights = np.polynomial.legendre.leggauss(10)
    # within 2 ulp of numpy's values, whose last bits depend on the LAPACK
    for got, want in ((nodes, want_nodes), (weights, want_weights)):
        assert got.shape == want.shape == (10,)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert abs(float(np.sum(weights)) - 2.0) <= 4e-16
