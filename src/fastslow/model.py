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

import numpy as np

_BOUND_SLACK = 1e-12

# other names accepted for a preset, and each preset's default coefficients
PRESET_ALIASES = {"custom-coefficients": "fourier", "custom": "fourier"}
DEFAULT_COEFFICIENTS = {
    "sine": (2.0, 1.0),
    "constant": (2.0,),
    "fourier": (2.0, 0.25, 0.25),
}


def _mathlib(y):
    # scalar inputs go through math (cheap), arrays through numpy
    return math if isinstance(y, (float, int)) else np


@dataclass(frozen=True)
class FrequencyModel:
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

    def _check(self, w):
        lb = self.omega_lower_bound * (1.0 - _BOUND_SLACK)
        if isinstance(w, np.ndarray):
            if not np.all(w >= lb):
                raise ValueError("frequency fell below its positive floor")
        elif not w >= lb:
            raise ValueError("frequency fell below its positive floor")
        return w

    def omega(self, y):
        xp = _mathlib(y)
        c = self.coefficients
        if self.preset == "constant":
            return self.derivs(y)[0]
        if self.preset == "sine":
            return self._check(c[0] + c[1] * xp.sin(y))
        acc = c[0] * (np.ones_like(np.asarray(y, float)) if isinstance(y, np.ndarray) else 1.0)
        for j in range(1, len(c), 2):
            kk = (j + 1) // 2
            acc = acc + c[j] * xp.cos(kk * y) + c[j + 1] * xp.sin(kk * y)
        return self._check(acc)

    def domega(self, y):
        xp = _mathlib(y)
        c = self.coefficients
        if self.preset == "constant":
            return 0.0 * y
        if self.preset == "sine":
            return c[1] * xp.cos(y)
        acc = 0.0 * y
        for j in range(1, len(c), 2):
            kk = (j + 1) // 2
            acc = acc + kk * (-c[j] * xp.sin(kk * y) + c[j + 1] * xp.cos(kk * y))
        return acc

    def d2omega(self, y):
        xp = _mathlib(y)
        c = self.coefficients
        if self.preset == "constant":
            return 0.0 * y
        if self.preset == "sine":
            return -c[1] * xp.sin(y)
        acc = 0.0 * y
        for j in range(1, len(c), 2):
            kk = (j + 1) // 2
            acc = acc - kk * kk * (c[j] * xp.cos(kk * y) + c[j + 1] * xp.sin(kk * y))
        return acc

    def d3omega(self, y):
        xp = _mathlib(y)
        c = self.coefficients
        if self.preset == "constant":
            return 0.0 * y
        if self.preset == "sine":
            return -c[1] * xp.cos(y)
        acc = 0.0 * y
        for j in range(1, len(c), 2):
            kk = (j + 1) // 2
            acc = acc + kk**3 * (c[j] * xp.sin(kk * y) - c[j + 1] * xp.cos(kk * y))
        return acc

    def derivs(self, y):
        """(omega, omega', omega'', omega''') in one call; hot path.

        Each value has the shape of y: floats for a scalar y, arrays for an
        array y.
        """
        c = self.coefficients
        if self.preset == "constant":
            if isinstance(y, np.ndarray):
                zero = 0.0 * y
                return self._check(np.full_like(zero, c[0])), zero, zero, zero
            return self._check(c[0]), 0.0, 0.0, 0.0
        if self.preset == "sine":
            xp = _mathlib(y)
            s = xp.sin(y)
            co = xp.cos(y)
            b = c[1]
            return self._check(c[0] + b * s), b * co, -b * s, -b * co
        return (self.omega(y), self.domega(y), self.d2omega(y), self.d3omega(y))


@dataclass(frozen=True)
class LogDerivatives:
    """log omega and its first three y-derivatives at a point."""

    L: float
    dyL: float
    dy2L: float
    dy3L: float


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
        if self.u_star == 0.0:
            warnings.warn("u_star = 0: oscillator starts with zero action, "
                          "angle variable is degenerate", stacklevel=2)


@dataclass(frozen=True)
class DerivedConstants:
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

    constant: [w0], w0 > 0.
    sine:     [a, b] meaning a + b*sin(y), requires a - |b| > 0.
    fourier:  [a0, a1, b1, a2, b2, ...] meaning
              a0 + sum_k (a_k cos(k y) + b_k sin(k y)),
              requires a0 - sum_k (|a_k| + |b_k|) > 0.
    """
    name = PRESET_ALIASES.get(preset, preset)
    coeffs = tuple(float(c) for c in coefficients)
    if name == "constant":
        if len(coeffs) != 1:
            raise ValueError("constant preset takes exactly one coefficient")
        if not coeffs[0] > 0:
            raise ValueError("constant frequency must be positive")
        return FrequencyModel(name, coeffs, coeffs[0], coeffs[0])
    if name == "sine":
        if len(coeffs) != 2:
            raise ValueError("sine preset takes exactly two coefficients")
        lb = coeffs[0] - abs(coeffs[1])
        if not lb > 0:
            raise ValueError("sine preset needs a - |b| > 0 to keep the frequency positive")
        return FrequencyModel(name, coeffs, lb, coeffs[0] + abs(coeffs[1]))
    if name == "fourier":
        if len(coeffs) < 1 or len(coeffs) % 2 == 0:
            raise ValueError("fourier preset takes an odd number of coefficients: "
                             "a0, then (a_k, b_k) pairs")
        wiggle = sum(abs(c) for c in coeffs[1:])
        lb = coeffs[0] - wiggle
        if not lb > 0:
            raise ValueError("fourier preset needs a0 - sum|a_k|+|b_k| > 0 "
                             "to keep the frequency positive")
        return FrequencyModel(name, coeffs, lb, coeffs[0] + wiggle)
    raise ValueError(f"unknown frequency preset: {preset!r}")


def log_derivatives(fm: FrequencyModel, y) -> LogDerivatives:
    """log omega and derivatives; the corrector formulas consume these."""
    xp = _mathlib(y)
    w, w1, w2, w3 = fm.derivs(y)
    r1 = w1 / w
    r2 = w2 / w
    r3 = w3 / w
    return LogDerivatives(
        L=xp.log(w),
        dyL=r1,
        dy2L=r2 - r1 * r1,
        dy3L=r3 - 3.0 * r1 * r2 + 2.0 * r1 * r1 * r1,
    )


def derived_constants(params: SystemParams, fm: FrequencyModel) -> DerivedConstants:
    """Constants derived from the initial data.

    theta_star = u_star^2 / (2 omega(y_star)); e_star = (p_star^2+u_star^2)/2.
    The entropy constant is -log(theta_star) so the entropy of the initial
    state is exactly zero (one of several equivalent normalizations; this
    one makes entropies directly comparable across runs).
    """
    w = fm.omega(params.y_star)
    w1 = fm.domega(params.y_star)
    w2 = fm.d2omega(params.y_star)
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


def finite_difference_report(fm: FrequencyModel, n_points: int = 100,
                             step: float = 1e-5, lo: float = -10.0,
                             hi: float = 10.0, seed: int = 20260819) -> dict[str, float]:
    """Max scaled deviation between hand-coded derivatives and central
    finite differences of the next-lower derivative, at random points.

    Deviation is |fd - exact| / max(1, |exact|); all five chains should
    sit well below 1e-6 for smooth presets.
    """
    rng = np.random.default_rng(seed)
    ys = rng.uniform(lo, hi, n_points)
    h = step

    def central(f, y):
        return (f(y + h) - f(y - h)) / (2.0 * h)

    pairs = {
        "domega": (fm.domega, fm.omega),
        "d2omega": (fm.d2omega, fm.domega),
        "d3omega": (fm.d3omega, fm.d2omega),
        "dy2L": (lambda y: log_derivatives(fm, y).dy2L,
                 lambda y: log_derivatives(fm, y).dyL),
        "dy3L": (lambda y: log_derivatives(fm, y).dy3L,
                 lambda y: log_derivatives(fm, y).dy2L),
    }
    out = {}
    for nm, (exact_f, lower_f) in pairs.items():
        worst = 0.0
        for y in ys:
            ex = exact_f(float(y))
            fd = central(lower_f, float(y))
            worst = max(worst, abs(fd - ex) / max(1.0, abs(ex)))
        out[nm] = worst
    return out
