"""Reduction of the fast phase k*phi/epsilon modulo 2*pi.

The reference values come from 60-digit mpmath arithmetic.  Care: the
oracle must start from the binary double (mp.mpf(x)), not from a decimal
string, or the comparison measures decimal conversion instead of the
reduction.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import fastslow as fs
from fastslow import phase

mp.mp.dps = 60


def oracle_sincos(phi: float, epsilon: float, k: int = 2):
    t = mp.mpf(k) * mp.mpf(phi) / mp.mpf(epsilon)
    return float(mp.sin(t)), float(mp.cos(t))


def test_scalar_small_quotient_vs_mpmath():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        phi = float(rng.uniform(-10, 10))
        eps = float(10 ** rng.uniform(-3, 0))
        s, c = fs.reduced_sincos(phi, eps)
        sm, cm = oracle_sincos(phi, eps)
        worst = max(worst, abs(s - sm), abs(c - cm))
    assert worst <= 1e-13


def test_scalar_split_quotient_vs_mpmath():
    # quotients of 2^19 and more take the chunked branch; below 2^40 its
    # highest 20-bit chunk is zero
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(300):
        phi = float(rng.uniform(0.5, 5.0))
        eps = float(10 ** rng.uniform(-9, -7))
        q = 2 * phi / eps / (2 * math.pi)
        assert 2**20 < q < 2**40
        s, c = fs.reduced_sincos(phi, eps)
        sm, cm = oracle_sincos(phi, eps)
        worst = max(worst, abs(s - sm), abs(c - cm))
    assert worst <= 1e-13


def test_scalar_huge_quotient_vs_mpmath():
    # beyond 2^40 all three 20-bit chunks of the quotient are in use
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        phi = float(rng.uniform(0.5, 5.0))
        eps = float(10 ** rng.uniform(-14, -13))
        assert 2 * phi / eps / (2 * math.pi) > 2**40
        s, c = fs.reduced_sincos(phi, eps)
        sm, cm = oracle_sincos(phi, eps)
        assert abs(s * s + c * c - 1.0) <= 1e-15
        worst = max(worst, abs(s - sm), abs(c - cm))
    assert worst <= 1e-13


def test_vector_path_vs_mpmath():
    rng = np.random.default_rng(10)
    worst = 0.0
    for eps in (1e-1, 1e-5, 1e-8):
        phi = rng.uniform(-10, 10, 200)
        s, c = fs.reduced_sincos_array(phi, eps)
        for i in range(phi.size):
            sm, cm = oracle_sincos(float(phi[i]), eps)
            worst = max(worst, abs(s[i] - sm), abs(c[i] - cm))
    assert worst <= 1e-13


def test_vector_agrees_with_scalar():
    rng = np.random.default_rng(11)
    for eps in (0.04, 0.005, 1e-6):
        phi = rng.uniform(-20, 20, 300)
        s, c = fs.reduced_sincos_array(phi, eps)
        for i in range(phi.size):
            ss, cc = fs.reduced_sincos(float(phi[i]), eps)
            assert s[i] == ss
            assert c[i] == cc


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("log2_quotient", [7, 21, 31, 45])
def test_scalar_and_array_reduced_phases_are_bitwise_equal(k, log2_quotient):
    rng = np.random.default_rng(14 + log2_quotient)
    phi = rng.choice([-1.0, 1.0], 400) * rng.uniform(1.0, 2.0, 400)
    eps = k * 1.5 / (2 * math.pi * 2.0**log2_quotient)
    r = phase.reducer(eps, np.rint, np.all)(phi * k)
    for i in range(phi.size):
        assert r[i] == fs.reduce_phase(float(phi[i]), eps, k)
    s, c = fs.reduced_sincos_array(phi, eps, k)
    assert np.array_equal(s, np.sin(r)) and np.array_equal(c, np.cos(r))


def test_small_quotient_shortcut_matches_chunked_path():
    # below 2^19 the high chunks are zero and subtract 0.0
    rng = np.random.default_rng(15)
    never = lambda mask: False
    for eps in (0.04, 0.005, 1e-4):
        a = 2 * rng.uniform(-20, 20, 500)
        assert np.all(np.abs(a / eps) < 2 * math.pi * 2**19)
        short = phase.reducer(eps, np.rint, np.all)(a)
        assert np.array_equal(phase.reducer(eps, np.rint, never)(a), short)
        for x in a[:50]:
            assert (phase.reducer(eps, round, never)(float(x))
                    == phase.reducer(eps, round, bool)(float(x)))


def test_reduced_value_lies_in_principal_interval():
    rng = np.random.default_rng(12)
    for _ in range(500):
        r = fs.reduce_phase(float(rng.uniform(-100, 100)), 0.01)
        assert abs(r) <= math.pi + 1e-9


def test_k_equals_four_double_angle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        phi = float(rng.uniform(-5, 5))
        eps = float(10 ** rng.uniform(-3, -1))
        s4, c4 = fs.reduced_sincos(phi, eps, k=4)
        sm, cm = oracle_sincos(phi, eps, k=4)
        assert abs(s4 - sm) <= 1e-13
        assert abs(c4 - cm) <= 1e-13


def test_epsilon_must_be_positive():
    with pytest.raises((ValueError, ZeroDivisionError)):
        fs.reduce_phase(1.0, 0.0)
