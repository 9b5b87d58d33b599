"""Accurate evaluation of sin/cos of k*phi/epsilon for small epsilon.

The oscillatory terms of the model are functions of k*phi/epsilon with
k in {1, 2, 4}.  Forming t = k*phi/epsilon in double precision and calling
math.sin(t) loses absolute accuracy once t is large: the rounding error of
the division alone is t*2^-53, which for t ~ 1e6 is already ~1e-10.  The
helpers here keep the reduced phase accurate to ~2e-15 absolute for
reduction quotients up to 2^50 (and ~q*2^-102 beyond, 3e-13 near 2^60) by
carrying the division residual separately (a Dekker two-product) and
reducing the high part with a Cody-Waite scheme whose 2*pi is stored in
33-bit pieces.  Everything is float64, and one routine serves Python
floats and numpy arrays, so both give the same bits on every platform.
"""

from __future__ import annotations

import math

import numpy as np

# Pieces of 2*pi with 33 significant bits each: q*piece is exact for
# integer |q| <= 2^20.  The four pieces sum to 2*pi with residual ~3e-48.
_TWO_PI_1 = 4.0 * float.fromhex("0x1.921fb544p+0")
_TWO_PI_2 = 4.0 * float.fromhex("0x1.0b4611a6p-34")
_TWO_PI_3 = 4.0 * float.fromhex("0x1.3198a2ep-69")
_TWO_PI_3T = 4.0 * float.fromhex("0x1.b839a252049c1p-104")
_INV_TWO_PI = 0.15915494309189535

# 2^27 + 1, Dekker splitting constant for 53-bit doubles
_SPLIT = 134217729.0
# below this every 20-bit chunk of q but the lowest is zero
_Q_SHORT = 2.0**19
_ROUND = 1.5 * 2.0**52  # (x + _ROUND) - _ROUND rounds x half to even for |x| < 2^51


def reducer(epsilon, rint=round, every=bool):
    """The map a -> a/epsilon reduced modulo 2*pi into roughly [-pi, pi].

    The Dekker split of epsilon is done here, once.  epsilon may be a
    float or an array shaped like a (one epsilon per element): the split
    is elementwise.  The map takes a float or an array; every(mask) says
    whether a comparison holds for all of it (bool or np.all).  Quotients
    below 2^19 are rounded half to even in float arithmetic; larger ones,
    NaN and inf by rint (round or np.rint), and split into 20-bit chunks
    q2 + q1 + q0 (q2, q1 multiples of 2^40, 2^20), so each chunk*piece
    product stays exact below 2^60; with zero high chunks the split path
    subtracts 0.0, so both paths give the same bits.
    """
    eh = _SPLIT * epsilon
    eh = eh - (eh - epsilon)
    el = epsilon - eh

    def reduce(a):
        t_hi = a / epsilon
        # exact division residual via a two-product p + pl = t_hi*epsilon,
        # so that t_hi + t_lo = a/epsilon to ~2^-106 relative
        p = t_hi * epsilon
        th = _SPLIT * t_hi
        th = th - (th - t_hi)
        tl = t_hi - th
        pl = ((th * eh - p) + th * el + tl * eh) + tl * el
        t_lo = ((a - p) - pl) / epsilon

        q = (t_hi * _INV_TWO_PI + _ROUND) - _ROUND
        if every(abs(q) < _Q_SHORT):
            r = t_hi - q * _TWO_PI_1
            r -= q * _TWO_PI_2
        else:
            q = rint(t_hi * _INV_TWO_PI)
            q2 = rint(q * 2.0**-40) * 2.0**40
            q1 = rint((q - q2) * 2.0**-20) * 2.0**20
            q0 = (q - q2) - q1
            r = t_hi - q2 * _TWO_PI_1
            r -= q1 * _TWO_PI_1
            r -= q0 * _TWO_PI_1
            r -= q2 * _TWO_PI_2
            r -= q1 * _TWO_PI_2
            r -= q0 * _TWO_PI_2
        r += t_lo
        r -= q * _TWO_PI_3
        r -= q * _TWO_PI_3T
        return r

    return reduce


def reduced_sincos(phi, epsilon, k: int = 2):
    """sin and cos of k*phi/epsilon via accurate phase reduction: math for a
    float phi, numpy for an ndarray, each reduced phase with the same bits.
    With an array phi, epsilon may be an array of the same shape."""
    # k*phi is exact for k in {1, 2, 4}: power-of-two scaling
    if isinstance(phi, np.ndarray):
        r = reducer(epsilon, np.rint, np.all)(k * phi)
        return np.sin(r), np.cos(r)
    r = reducer(epsilon)(k * phi)
    return math.sin(r), math.cos(r)


# perfbench/tracing.py wraps this name for its phase.array_* metrics; the
# alias goes when the tracer stops looking it up
reduced_sincos_array = reduced_sincos
