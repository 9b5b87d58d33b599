"""Equations of motion and the coordinate transform between charts."""

import math

import numpy as np
import pytest

import fastslow as fs


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
    dy, deta, dz, dzeta = fs.cartesian_field(1.0, fm)(0.0, (0.0, 0.0, 0.125, 0.0))
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
    assert abs(fs.energy_cartesian(c, 0.01, fm) - 1.0) <= 1e-14


def test_energy_agrees_across_charts(fm):
    worst = 0.0
    for s, eps in random_states(500, seed=103):
        ea = fs.energy_action_angle(s, eps, fm)
        ec = fs.energy_cartesian(fs.from_action_angle(s, eps, fm), eps, fm)
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
    PHI, THETA, YY, P, degen = fs.to_action_angle_arrays(Y, ETA, Z, ZETA, eps, fm)
    assert not degen.any()
    for i in range(n):
        aa = fs.to_action_angle(
            fs.CartesianState(float(Y[i]), float(ETA[i]), float(Z[i]), float(ZETA[i])),
            eps, fm)
        assert abs(THETA[i] - aa.theta) <= 1e-15
        assert abs(P[i] - aa.p) <= 1e-15
        # array path unwraps the angle; compare modulo 2*pi*eps
        d = (PHI[i] - aa.phi) / (2 * math.pi * eps)
        assert abs(d - round(d)) <= 1e-9
    E = fs.energy_action_angle_arrays(PHI, THETA, YY, P, eps, fm)
    s0 = fs.ActionAngleState(float(PHI[0]), float(THETA[0]), float(YY[0]), float(P[0]))
    assert abs(E[0] - fs.energy_action_angle(s0, eps, fm)) <= 1e-14


def test_field_closures_match_structured_rhs(fm):
    eps = 0.01
    f = fs.action_angle_field(eps, fm)
    x = np.array([0.3, 0.2, -0.4, 0.9])
    d = fs.action_angle_rhs(fs.ActionAngleState(*x), eps, fm)
    assert np.array_equal(f(0.0, x), np.array([d.phi, d.theta, d.y, d.p]))
