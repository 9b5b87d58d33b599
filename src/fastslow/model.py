"""Frequency profiles, initial data, and derived constants.

The system under study couples a slow coordinate y to a stiff oscillator
whose frequency omega(y) must stay above a positive floor.  Everything
downstream (transforms, correctors, thermodynamic series) consumes the
frequency and its first three derivatives through this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_BOUND_SLACK = 1e-12

# each preset's default coefficients
DEFAULT_COEFFICIENTS = {
    "sine": (2.0, 1.0),
    "constant": (2.0,),
    "fourier": (2.0, 0.25, 0.25),
}


# One routine factory per profile form: (coefficients, floor, sin, cos, every) -> derivs(y),
# (omega, omega', omega'', omega''') shaped like y, with math's sin and cos for a float y
# and numpy's for an array; derivs raises ValueError unless every(omega >= floor).
_FLOOR_ERROR = "frequency fell below its positive floor"


def _sine(c, floor, sin, cos, every):
    a, b = c
    nb = -b  # -b*s is (-b)*s

    def derivs(y):
        s = sin(y)
        co = cos(y)
        w = a + b * s
        if not every(w >= floor):
            raise ValueError(_FLOOR_ERROR)
        return w, b * co, nb * s, nb * co
    return derivs


def _fourier(c, floor, sin, cos, every):
    # (k, a_k, -a_k, b_k, k^2, k^3) per harmonic, each converted to float once;
    # -a*sk is (-a)*sk, which keeps the sign of a nan that -(a*sk) flips
    harmonics = tuple((float(k), c[2 * k - 1], -c[2 * k - 1], c[2 * k], float(k * k),
                       float(k**3)) for k in range(1, len(c) // 2 + 1))

    def derivs(y):
        # y**0 is 1.0, or ones shaped like y, for every y (inf and nan too)
        w = c[0] * y**0
        w1 = w2 = w3 = 0.0 * y
        for k, a, na, b, k2, k3 in harmonics:
            ck = cos(k * y)
            sk = sin(k * y)
            ack, bsk, bck = a * ck, b * sk, b * ck
            w = w + ack + bsk
            w1 = w1 + k * (na * sk + bck)
            w2 = w2 - k2 * (ack + bsk)
            w3 = w3 + k3 * (a * sk - bck)
        if not every(w >= floor):
            raise ValueError(_FLOOR_ERROR)
        return w, w1, w2, w3
    return derivs


# a constant profile is a Fourier series with no harmonics
_ROUTINES = {"constant": _fourier, "sine": _sine, "fourier": _fourier}


class FrequencyModel(NamedTuple):
    """Frequency profile omega(y) with hand-coded derivatives.

    preset: "constant", "sine", or "fourier".
    coefficients: preset-specific, see make_frequency.
    omega_lower_bound: proven positive floor of omega over all y.
    omega_upper_bound: proven ceiling, used for step-size selection.
    """

    preset: str
    coefficients: tuple[float, ...]
    omega_lower_bound: float
    omega_upper_bound: float

    def derivs(self, y):
        """(omega, omega', omega'', omega''') at y.

        Each value has the shape of y: floats for a scalar y, arrays for an
        array y.  Raises ValueError where omega is below its floor.
        """
        if isinstance(y, np.ndarray):
            return self._evaluator(np.sin, np.cos, np.all)(y)
        return self.scalar_derivs()(y)

    def fast_step(self, epsilon, steps_per_period):
        """The fastest period 2*pi*eps/omega_upper_bound over steps_per_period."""
        return 2.0 * math.pi * epsilon / (steps_per_period * self.omega_upper_bound)

    def scalar_derivs(self):
        """derivs for a float y, with the preset's routine bound once; the
        vector fields call it at every stage."""
        return self._evaluator(math.sin, math.cos, bool)

    def _evaluator(self, sin, cos, every):
        floor = self.omega_lower_bound * (1.0 - _BOUND_SLACK)
        return _ROUTINES[self.preset](self.coefficients, floor, sin, cos, every)


@dataclass(frozen=True)
class SystemParams:
    """Initial data and horizon: y(0)=y_star, dy/dt(0)=p_star,
    oscillator velocity amplitude u_star, integration horizon horizon_T."""

    y_star: float
    p_star: float
    u_star: float
    horizon_T: float

    def __post_init__(self):
        if not self.horizon_T > 0:
            raise ValueError("horizon_T must be positive")
        if self.u_star == 0.0:  # stacklevel 3: past the generated __init__ to its caller
            warnings.warn("u_star = 0: oscillator starts with zero action, "
                          "angle variable is degenerate", stacklevel=3)


class DerivedConstants(NamedTuple):
    """Constants fixed by the initial data.

    theta_star: initial (and adiabatically conserved) action.
    e_star: total initial energy.
    entropy_constant: additive constant pinning entropy to 0 at start.
    c_sbarbar2: integration constant of the closed-form second-order
    entropy coefficient.
    """

    theta_star: float
    e_star: float
    entropy_constant: float
    c_sbarbar2: float


def make_frequency(preset: str, coefficients) -> FrequencyModel:
    """Build a validated FrequencyModel.

    constant: [w0].
    sine:     [a, b] meaning a + b*sin(y).
    fourier:  [a0, a1, b1, a2, b2, ...] meaning a0 + sum_k (a_k cos(k y) + b_k sin(k y)).
    Each has the floor c0 - sum_{k>=1} |c_k| and the ceiling c0 + sum_{k>=1} |c_k| of its
    coefficients c (sine: a -+ |b|; constant: w0), and requires a positive floor.
    """
    coeffs = tuple(float(c) for c in coefficients)
    if preset not in _ROUTINES:
        raise ValueError(f"unknown frequency preset: {preset!r}")
    if preset == "constant" and len(coeffs) != 1:
        raise ValueError("constant preset takes exactly one coefficient")
    if preset == "sine" and len(coeffs) != 2:
        raise ValueError("sine preset takes exactly two coefficients")
    if preset == "fourier" and len(coeffs) % 2 == 0:
        raise ValueError("fourier preset takes an odd number of coefficients: "
                         "a0, then (a_k, b_k) pairs")
    wiggle = sum(abs(c) for c in coeffs[1:])
    if not coeffs[0] - wiggle > 0:
        raise ValueError(f"{preset} preset needs c0 - sum_k |c_k| > 0 "
                         "to keep the frequency positive")
    return FrequencyModel(preset, coeffs, coeffs[0] - wiggle, coeffs[0] + wiggle)


def derived_constants(params: SystemParams, fm: FrequencyModel) -> DerivedConstants:
    """Constants derived from the initial data.

    theta_star = u_star^2 / (2 omega(y_star)); e_star = (p_star^2+u_star^2)/2.
    The entropy constant is -log(theta_star) so the entropy of the initial
    state is exactly zero (one of several equivalent normalizations; this
    one makes entropies directly comparable across runs).
    """
    w, w1, w2, _ = fm.derivs(params.y_star)
    theta_star = params.u_star**2 / (2.0 * w)
    e_star = 0.5 * params.p_star**2 + 0.5 * params.u_star**2
    if theta_star > 0.0:
        entropy_constant = -math.log(theta_star)
    else:
        entropy_constant = math.nan
    p = params.p_star
    c_s2 = (-0.5 * (p * w1 / (2.0 * w * w)) ** 2
            - 5.0 * theta_star * w1 * w1 / (16.0 * w**3)
            + p * p * w2 / (4.0 * w**3)
            - p * p * w1 * w1 / (4.0 * w**4))
    return DerivedConstants(theta_star, e_star, entropy_constant, c_s2)


def finite_difference_report(fm: FrequencyModel) -> dict[str, float]:
    """Max scaled deviation between hand-coded derivatives and central
    finite differences (step 1e-5) of the next-lower derivative, at 100
    evenly spaced points of [-10, 10].

    Deviation is |fd - exact| / max(1, |exact|); all five chains should
    sit well below 1e-6 for smooth presets.
    """
    ys = np.linspace(-10.0, 10.0, 100)
    h = 1e-5

    def chains(y):  # omega and its derivatives, then those of log omega
        w, w1, w2, w3 = fm.derivs(y)
        r1 = w1 / w
        r2 = w2 / w
        r3 = w3 / w
        return (w, w1, w2, w3, r1, r2 - r1 * r1, r3 - 3.0 * r1 * r2 + 2.0 * r1 * r1 * r1)

    at, up, down = chains(ys), chains(ys + h), chains(ys - h)
    out = {}
    # each chain compares chains(y)[k] with the central difference of chains(y)[k - 1]
    for nm, k in (("domega", 1), ("d2omega", 2), ("d3omega", 3), ("dy2L", 5), ("dy3L", 6)):
        fd = (up[k - 1] - down[k - 1]) / (2.0 * h)
        out[nm] = float(np.max(np.abs(fd - at[k]) / np.maximum(1.0, np.abs(at[k]))))
    return out
