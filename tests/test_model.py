"""Frequency profiles, derivatives, and constants fixed by the initial data."""

import math

import numpy as np
import pytest

import fastslow as fs


def test_sine_preset_derivatives_at_origin(fm):
    # omega = 2 + sin(y): values at 0 are 2, 1, 0, -1
    assert fm.omega(0.0) == 2.0
    assert fm.domega(0.0) == 1.0
    assert fm.d2omega(0.0) == 0.0
    assert fm.d3omega(0.0) == -1.0
    assert fm.omega_lower_bound == 1.0
    assert fm.omega_upper_bound == 3.0


def test_fourier_preset_derivatives_at_origin():
    fmf = fs.make_frequency("fourier", (2.0, 0.25, 0.25))
    assert fmf.omega(0.0) == 2.25
    assert fmf.domega(0.0) == 0.25
    assert fmf.d2omega(0.0) == -0.25
    assert fmf.d3omega(0.0) == -0.25
    assert fmf.omega_lower_bound == 1.5
    assert fmf.omega_upper_bound == 2.5


def test_fourier_alias_names():
    for alias in ("custom-coefficients", "custom"):
        fma = fs.make_frequency(alias, (2.0, 0.25, 0.25))
        assert fma.omega(0.3) == fs.make_frequency("fourier", (2.0, 0.25, 0.25)).omega(0.3)


def test_constant_preset():
    fmc = fs.make_frequency("constant", (2.0,))
    y = np.linspace(-5, 5, 11)
    assert np.all(fmc.omega(y) == 2.0)
    assert np.all(fmc.domega(y) == 0.0)
    assert fmc.omega_lower_bound == fmc.omega_upper_bound == 2.0


@pytest.mark.parametrize("preset,coeffs", [
    ("sine", (1.0, 1.0)),          # a - |b| = 0
    ("sine", (1.0, -2.0)),
    ("constant", (0.0,)),
    ("constant", (-1.0,)),
    ("fourier", (1.0, 0.5, 0.5)),  # a0 - sum = 0
    ("fourier", (2.0, 1.0)),       # even length
    ("nope", (1.0,)),
])
def test_rejects_nonpositive_or_malformed(preset, coeffs):
    with pytest.raises(ValueError):
        fs.make_frequency(preset, coeffs)


@pytest.mark.parametrize("preset, coeffs", [
    ("constant", (2.0,)),
    ("sine", (2.0, 1.0)),
    ("fourier", (2.0, 0.25, 0.25, -0.3, 0.1)),
])
def test_derivs_follow_the_shape_of_y(preset, coeffs):
    fmx = fs.make_frequency(preset, coeffs)
    y = np.linspace(-3.0, 3.0, 7) if preset != "constant" else np.zeros(3)
    vals = fmx.derivs(y)
    singles = (fmx.omega(y), fmx.domega(y), fmx.d2omega(y), fmx.d3omega(y))
    for v, single in zip(vals, singles):
        assert isinstance(v, np.ndarray) and v.shape == y.shape
        assert np.array_equal(v, single)
    assert all(np.ndim(v) == 0 for v in fmx.derivs(0.5))


def test_array_evaluation_matches_scalar(fm):
    y = np.linspace(-7, 7, 57)
    ws = np.array([fm.omega(float(v)) for v in y])
    assert np.array_equal(fm.omega(y), ws)
    d3 = np.array([fm.d3omega(float(v)) for v in y])
    assert np.array_equal(fm.d3omega(y), d3)


def test_log_derivatives_at_origin(fm):
    ld = fs.log_derivatives(fm, 0.0)
    assert ld.L == math.log(2.0)
    assert ld.dyL == 0.5
    assert ld.dy2L == -0.25
    assert ld.dy3L == -0.25


def test_log_derivatives_at_half_pi(fm):
    # omega=3, omega'=0, omega''=-1, omega'''=0 there
    ld = fs.log_derivatives(fm, math.pi / 2)
    assert abs(ld.dyL) <= 1e-16
    assert abs(ld.dy2L + 1.0 / 3.0) <= 1e-15
    assert abs(ld.dy3L) <= 1e-15


def test_derived_constants_exact(params, fm, dc):
    assert dc.theta_star == 0.25
    assert dc.e_star == 1.0
    assert dc.entropy_constant == math.log(4.0)
    assert dc.c_sbarbar2 == -17.0 / 512.0


def test_zero_oscillator_amplitude_warns(fm):
    with pytest.warns(UserWarning):
        p = fs.SystemParams(0.0, 1.0, 0.0, 1.0)
    d = fs.derived_constants(p, fm)
    assert d.theta_star == 0.0
    assert math.isnan(d.entropy_constant)


def test_nonpositive_horizon_rejected():
    with pytest.raises(ValueError):
        fs.SystemParams(0.0, 1.0, 1.0, 0.0)


def test_finite_difference_consistency(fm):
    rep = fs.finite_difference_report(fm)
    assert set(rep) == {"domega", "d2omega", "d3omega", "dy2L", "dy3L"}
    assert max(rep.values()) <= 1e-6


def test_finite_difference_consistency_fourier():
    fmf = fs.make_frequency("fourier", (2.0, 0.25, 0.25))
    assert max(fs.finite_difference_report(fmf).values()) <= 1e-6
