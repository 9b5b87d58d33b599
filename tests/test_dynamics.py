"""Equations of motion and the coordinate transform between charts."""

import math

import numpy as np
import pytest

import fastslow as fs
from fastslow.dynamics import _check


def random_states(n, seed, theta_lo=1e-3):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = fs.ActionAngleState(phi=float(rng.uniform(-3, 3)),
                                theta=float(rng.uniform(theta_lo, 2.0)),
                                y=float(rng.uniform(-5, 5)),
                                p=float(rng.uniform(-2, 2)))
        yield s, float(10 ** rng.uniform(-3, -1))


def test_action_angle_rhs_at_zero_phase(fm):
    # sin(2 phi/eps) = 0 kills every epsilon-dependent term exactly
    s = fs.ActionAngleState(0.0, 0.25, 0.0, 1.0)
    d = fs.action_angle_rhs(s, 0.01, fm)
    assert d.phi == 2.0
    assert d.theta == -0.125
    assert d.y == 1.0
    assert d.p == -0.25


def test_cartesian_rhs_example(fm):
    # state (y, eta, z, zeta) = (0, 0, 1/8, 0)
    dy, deta, dz, dzeta = fs.cartesian_field(1.0, fm)(0.0, 0.0, 0.125, 0.0)
    assert dy == 0.0
    assert dz == 0.0
    assert deta == -0.03125  # -omega*omega'*z^2, exact dyadic
    assert dzeta == -0.5     # -omega^2*z


def test_rhs_validates_inputs(fm):
    with pytest.raises(ValueError):
        fs.action_angle_rhs(fs.ActionAngleState(0, 0.1, 0, 0), 0.0, fm)
    with pytest.raises(ValueError):
        fs.action_angle_rhs(fs.ActionAngleState(0, -0.1, 0, 0), 0.01, fm)


def test_expanded_and_composed_forms_agree(fm):
    worst = 0.0
    for s, eps in random_states(1000, seed=101):
        a = fs.action_angle_rhs(s, eps, fm)
        b = fs.action_angle_rhs_composed(s, eps, fm)
        worst = max(worst, abs(a.phi - b.phi), abs(a.theta - b.theta),
                    abs(a.y - b.y), abs(a.p - b.p))
    assert worst <= 1e-14


def test_transform_example(fm):
    aa = fs.to_action_angle(fs.CartesianState(0.0, 1.0, 0.0, 1.0), 0.01, fm)
    assert aa.phi == 0.0
    assert aa.theta == 0.25
    assert aa.y == 0.0
    assert aa.p == 1.0
    assert not aa.degenerate


def test_transform_round_trip(fm):
    worst = 0.0
    for s, eps in random_states(500, seed=102, theta_lo=1e-6):
        c = fs.from_action_angle(s, eps, fm)
        s2 = fs.to_action_angle(c, eps, fm)
        c2 = fs.from_action_angle(s2, eps, fm)
        worst = max(worst, abs(c.y - c2.y), abs(c.eta - c2.eta),
                    abs(c.z - c2.z), abs(c.zeta - c2.zeta))
    assert worst <= 1e-12


def test_degenerate_oscillator_flagged(fm):
    aa = fs.to_action_angle(fs.CartesianState(0.3, 1.0, 0.0, 0.0), 0.01, fm)
    assert aa.degenerate
    assert aa.theta == 0.0
    assert aa.phi == 0.0


def test_energy_values_and_split(fm):
    s = fs.ActionAngleState(0.0, 0.25, 0.0, 1.0)
    assert fs.energy_action_angle(s, 0.01, fm) == 1.0
    c = fs.from_action_angle(s, 0.01, fm)
    e_perp, e_par = fs.energy_cartesian(c, 0.01, fm)
    assert abs(e_perp + e_par - 1.0) <= 1e-14
    # at phi = 0: z = 0, zeta = sqrt(2 theta omega) = 1 and eta = p = 1
    assert (e_perp, e_par) == (0.5, 0.5)


def test_energy_agrees_across_charts(fm):
    worst = 0.0
    for s, eps in random_states(500, seed=103):
        ea = fs.energy_action_angle(s, eps, fm)
        e_perp, e_par = fs.energy_cartesian(fs.from_action_angle(s, eps, fm), eps, fm)
        ec = e_perp + e_par
        worst = max(worst, abs(ea - ec) / max(1.0, abs(ea)))
    assert worst <= 1e-13


def test_array_transform_matches_scalar(fm):
    rng = np.random.default_rng(104)
    n = 64
    Y = rng.uniform(-2, 2, n)
    ETA = rng.uniform(-1, 1, n)
    Z = rng.uniform(-0.05, 0.05, n)
    ZETA = rng.uniform(-1, 1, n)
    eps = 0.02
    aa_arr = fs.to_action_angle(fs.CartesianState(Y, ETA, Z, ZETA), eps, fm)
    PHI, THETA, YY, P = aa_arr.phi, aa_arr.theta, aa_arr.y, aa_arr.p
    assert not aa_arr.degenerate.any()
    for i in range(n):
        aa = fs.to_action_angle(
            fs.CartesianState(float(Y[i]), float(ETA[i]), float(Z[i]), float(ZETA[i])),
            eps, fm)
        assert abs(THETA[i] - aa.theta) <= 1e-15
        assert abs(P[i] - aa.p) <= 1e-15
        # compare modulo 2*pi*eps: near the branch cut either side may round across
        d = (PHI[i] - aa.phi) / (2 * math.pi * eps)
        assert abs(d - round(d)) <= 1e-9
    E = fs.energy_action_angle(fs.ActionAngleState(PHI, THETA, YY, P), eps, fm)
    s0 = fs.ActionAngleState(float(PHI[0]), float(THETA[0]), float(YY[0]), float(P[0]))
    assert abs(E[0] - fs.energy_action_angle(s0, eps, fm)) <= 1e-14
    # the inverse chart change takes the same arrays, element for element bitwise
    C = fs.from_action_angle(fs.ActionAngleState(PHI, THETA, YY, P), eps, fm)
    for i in range(n):
        c = fs.from_action_angle(fs.ActionAngleState(float(PHI[i]), float(THETA[i]),
                                                     float(YY[i]), float(P[i])), eps, fm)
        assert (C.y[i], C.eta[i], C.z[i], C.zeta[i]) == (c.y, c.eta, c.z, c.zeta)
    # a degenerate element (z = zeta = 0) has phi = 0 in both paths
    Z[3] = ZETA[3] = 0.0
    aa_arr = fs.to_action_angle(fs.CartesianState(Y, ETA, Z, ZETA), eps, fm)
    aa = fs.to_action_angle(fs.CartesianState(float(Y[3]), float(ETA[3]), 0.0, 0.0), eps, fm)
    assert aa.degenerate and aa.phi == 0.0
    assert aa_arr.phi[3] == 0.0 and aa_arr.theta[3] == 0.0
    assert np.flatnonzero(aa_arr.degenerate).tolist() == [3]


def test_field_closures_match_structured_rhs(fm):
    eps = 0.01
    f = fs.action_angle_field(eps, fm)
    x = np.array([0.3, 0.2, -0.4, 0.9])
    d = fs.action_angle_rhs(fs.ActionAngleState(*x), eps, fm)
    assert np.array_equal(f(*x), np.array([d.phi, d.theta, d.y, d.p]))


def _aa_rhs_parent(phi, theta, y, p, epsilon, fm):
    """The action-angle field as two helpers computed it before the field
    was fused: derivs and reduced_sincos, then the formula below with
    sin(4 phi/eps) from the double-angle identity."""
    w, w1, w2, _ = fm.derivs(y)
    s2, c2 = fs.reduced_sincos(phi, epsilon, 2)
    s4 = 2.0 * s2 * c2
    r = w1 / w
    phi_dot = w + epsilon * (0.5 * p * r) * s2 + (epsilon * epsilon) * (0.25 * theta * r * r) * (s2 * s2)
    theta_dot = -(theta * p * r) * c2 - epsilon * (0.25 * theta * theta * r * r) * s4
    y_dot = p + epsilon * (0.5 * theta * r) * s2
    p_dot = (-theta * w1
             + epsilon * (0.5 * theta * p * r * r) * s2
             - epsilon * (0.5 * theta * p * w2 / w) * s2
             + (epsilon * epsilon) * (0.25 * theta * theta * r * r * r) * (s2 * s2)
             - (epsilon * epsilon) * (0.25 * theta * theta * r * w2 / w) * (s2 * s2))
    return phi_dot, theta_dot, y_dot, p_dot


@pytest.mark.parametrize("preset, coefficients", [
    ("sine", (2.0, 1.0)), ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4)), ("constant", (2.0,))])
def test_fused_field_is_bitwise_the_structured_formula(preset, coefficients):
    fm = fs.make_frequency(preset, coefficients)
    rng = np.random.default_rng(21)
    edges = [(0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 1.0, -0.0), (1.5, 0.0, -2.0, 0.0),
             (0.0, 0.7, 0.0, -0.0)]
    # the reduction quotient phi/(pi eps) stays below 2^19 at eps = 0.3 and
    # 0.01 and takes the chunked path above it at eps = 1e-6; at eps = 0.3
    # the eps and eps^2 terms reach the last bits of the sums
    for eps, below in ((0.3, True), (0.01, True), (1e-6, False)):
        phi = rng.uniform(2.0, 20.0, 200) * rng.choice([-1.0, 1.0], 200)
        assert np.all((np.abs(phi / (math.pi * eps)) < 2**19) == below)
        states = edges + np.c_[phi, rng.uniform(0.0, 2.0, 200),
                               rng.uniform(-5.0, 5.0, 200),
                               rng.uniform(-2.0, 2.0, 200)].tolist()
        f = fs.action_angle_field(eps, fm)
        for x in states:
            got = f(*x)
            want = _aa_rhs_parent(*x, eps, fm)
            assert got == want
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def _cartesian_rhs_parent(y, eta, z, zeta, epsilon, fm):
    """The cartesian field as written before its common left factor
    -w/eps^2 was bound: every product left to right."""
    inv2 = 1.0 / (epsilon * epsilon)
    w, w1, _, _ = fm.derivs(y)
    return eta, -inv2 * w * w1 * z * z, zeta, -inv2 * w * w * z


@pytest.mark.parametrize("preset, coefficients", [
    ("sine", (2.0, 1.0)), ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4)), ("constant", (2.0,))])
def test_cartesian_field_is_bitwise_the_structured_formula(preset, coefficients):
    fm = fs.make_frequency(preset, coefficients)
    rng = np.random.default_rng(22)
    edges = [(0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0), (1.5, 0.0, -0.0, 0.3),
             (0.0, -0.7, 0.0, -0.0), (-2.0, 0.4, -0.0, 1.0)]
    for eps in (0.3, 0.01, 1e-6):
        # z of order eps, as on a trajectory, so that z*z/eps^2 is of order one
        states = edges + np.c_[rng.uniform(-5.0, 5.0, 200), rng.uniform(-2.0, 2.0, 200),
                               eps * rng.uniform(-2.0, 2.0, 200),
                               rng.uniform(-3.0, 3.0, 200)].tolist()
        f = fs.cartesian_field(eps, fm)
        for x in states:
            got = f(*x)
            want = _cartesian_rhs_parent(*x, eps, fm)
            assert got == want
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def _kernels(s, eps, fm):
    """Every kernel that takes one epsilon per element, on state s: each
    entry is a tuple of the kernel's outputs."""
    c = fs.from_action_angle(s, eps, fm)
    return {
        "from_action_angle": tuple(c),
        "to_action_angle": tuple(fs.to_action_angle(c, eps, fm))[:4],
        "energy_action_angle": (fs.energy_action_angle(s, eps, fm),),
        "energy_cartesian": fs.energy_cartesian(c, eps, fm),
        "action_angle_rhs_composed": tuple(fs.action_angle_rhs_composed(s, eps, fm))[:4],
        "reduced_sincos": fs.reduced_sincos(s.phi, eps, 2),
    }


def test_one_epsilon_per_element_matches_float_calls(fm):
    # 200 states, each with its own epsilon: one array call of each kernel
    # gives, element for element, the bits of the per-state float calls
    rng = np.random.default_rng(105)
    n = 200
    rows = np.c_[rng.uniform(-3, 3, n), rng.uniform(1e-6, 2.0, n), rng.uniform(-5, 5, n),
                 rng.uniform(-2, 2, n), np.float_power(10.0, rng.uniform(-3, -1, n))]
    got = _kernels(fs.ActionAngleState(*rows[:, :4].T), rows[:, 4], fm)
    per_state = [_kernels(fs.ActionAngleState(*x), e, fm) for *x, e in rows.tolist()]
    for name, arrays in got.items():
        want = np.array([[float(v) for v in k[name]] for k in per_state]).T
        assert np.array_equal(want, arrays), name


@pytest.mark.parametrize("bad", [0.0, -0.01])
def test_epsilon_array_with_a_nonpositive_element_rejected(fm, bad):
    eps = np.array([0.01, bad, 0.02])
    with pytest.raises(ValueError, match="epsilon must be positive"):
        _check(eps)
    s = fs.ActionAngleState(np.zeros(3), np.full(3, 0.5), np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="epsilon must be positive"):
        fs.from_action_angle(s, eps, fm)
