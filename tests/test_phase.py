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
        s, c = fs.reduced_sincos(phi, eps)
        for i in range(phi.size):
            sm, cm = oracle_sincos(float(phi[i]), eps)
            worst = max(worst, abs(s[i] - sm), abs(c[i] - cm))
    assert worst <= 1e-13


def test_vector_agrees_with_scalar():
    rng = np.random.default_rng(11)
    for eps in (0.04, 0.005, 1e-6):
        phi = rng.uniform(-20, 20, 300)
        s, c = fs.reduced_sincos(phi, eps)
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
        assert r[i] == phase.reducer(eps)(k * float(phi[i]))
    s, c = fs.reduced_sincos(phi, eps, k)
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
        r = phase.reducer(0.01)(2 * float(rng.uniform(-100, 100)))
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
        fs.reduced_sincos(1.0, 0.0)


def _reducer_rounding_by_rint(epsilon, rint=round, every=bool):
    """The reducer as it was when rint rounded every quotient (round gives
    an int for a float), kept as the oracle of the float-rounded quotient."""
    eh = phase._SPLIT * epsilon
    eh = eh - (eh - epsilon)
    el = epsilon - eh

    def reduce(a):
        t_hi = a / epsilon
        p = t_hi * epsilon
        th = phase._SPLIT * t_hi
        th = th - (th - t_hi)
        tl = t_hi - th
        pl = ((th * eh - p) + th * el + tl * eh) + tl * el
        t_lo = ((a - p) - pl) / epsilon

        q = rint(t_hi * phase._INV_TWO_PI)
        if every(abs(q) < phase._Q_SHORT):
            r = t_hi - q * phase._TWO_PI_1
            r -= q * phase._TWO_PI_2
        else:
            q2 = rint(q * 2.0**-40) * 2.0**40
            q1 = rint((q - q2) * 2.0**-20) * 2.0**20
            q0 = (q - q2) - q1
            r = t_hi - q2 * phase._TWO_PI_1
            r -= q1 * phase._TWO_PI_1
            r -= q0 * phase._TWO_PI_1
            r -= q2 * phase._TWO_PI_2
            r -= q1 * phase._TWO_PI_2
            r -= q0 * phase._TWO_PI_2
        r += t_lo
        r -= q * phase._TWO_PI_3
        r -= q * phase._TWO_PI_3T
        return r

    return reduce


def _same(got, want):
    # bytes, so that the sign of zero and nan count
    return np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


def _assert_reductions_agree(a, epsilon, floats=True):
    """New and old reducer, bitwise, on an array and on each element as a float."""
    with np.errstate(invalid="ignore", over="ignore"):
        got = phase.reducer(epsilon, np.rint, np.all)(a)
        want = _reducer_rounding_by_rint(epsilon, np.rint, np.all)(a)
    assert _same(got, want)
    eps = np.broadcast_to(epsilon, a.shape)
    for x, e in zip(a.tolist(), eps.tolist()) if floats else ():
        assert _same(phase.reducer(e)(x), _reducer_rounding_by_rint(e)(x)), (x, e)


def _argument_for_quotient(x):
    """An a whose quotient a * _INV_TWO_PI (at epsilon = 1) is x, or within
    an ulp of x when no float a gives x exactly."""
    a = x / phase._INV_TWO_PI
    for _ in range(4):
        got = a * phase._INV_TWO_PI
        if got == x:
            break
        a = math.nextafter(a, math.inf if got < x else -math.inf)
    return a


def test_float_rounded_quotient_matches_rint_on_random_phases():
    rng = np.random.default_rng(16)
    a = 2.0 * rng.uniform(-20.0, 20.0, 100_000)
    # with epsilon >= 1e-3 every quotient is below 2^19 and the array takes
    # the short path; below 1e-3 it holds larger ones and takes the split path
    _assert_reductions_agree(a[:50_000], 10.0 ** rng.uniform(-3.0, 0.0, 50_000))
    _assert_reductions_agree(a[50_000:], 10.0 ** rng.uniform(-9.0, -3.0, 50_000))


def test_float_rounded_quotient_at_ties_zeros_and_path_edges():
    ties = [_argument_for_quotient(s * x) for x in (0.5, 1.5, 2.5) for s in (1.0, -1.0)]
    assert [a * phase._INV_TWO_PI for a in ties] == [0.5, -0.5, 1.5, -1.5, 2.5, -2.5]
    short = np.array(ties + [0.0, -0.0, 1e-300, -1e-300])
    for e in (1.0, 2.0):
        _assert_reductions_agree(e * short, e)
        _assert_reductions_agree(e * short, np.full(short.shape, e))
    # quotients a few ulps either side of 2^19 - 1/2 (the first that rounds
    # to 2^19, where the split path starts), 2^19, 2^51, 2^52 and 2^60
    for x in (2.0**19 - 0.5, 2.0**19, 2.0**51, 2.0**52, 2.0**60):
        for s in (1.0, -1.0):
            below = [_argument_for_quotient(s * x)]
            above = below[:]
            for _ in range(3):
                below.append(math.nextafter(below[-1], 0.0))
                above.append(math.nextafter(above[-1], s * math.inf))
            if x == 2.0**19 - 0.5:
                assert abs(round(below[-1] * phase._INV_TWO_PI)) < 2**19
                assert abs(round(above[-1] * phase._INV_TWO_PI)) == 2**19
            for group in (below, above):
                _assert_reductions_agree(np.array(group), 1.0)
    # one quotient of 2^19 sends the whole array down the split path
    _assert_reductions_agree(np.append(short, _argument_for_quotient(2.0**19)), 1.0)


def test_float_rounded_quotient_keeps_nan_and_inf_behaviour():
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(Exception) as old:
            _reducer_rounding_by_rint(0.01)(a)
        with pytest.raises(type(old.value)):
            phase.reducer(0.01)(a)
    _assert_reductions_agree(np.array([0.3, math.nan, -math.inf, math.inf]), 0.01,
                             floats=False)
