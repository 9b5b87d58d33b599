"""State representations and equations of motion at finite epsilon.

Two charts for the same flow: cartesian (y, eta, z, zeta) with the stiff
potential 0.5*omega(y)^2*z^2/eps^2, and action-angle (phi, theta, y, p)
in which the oscillation enters only through the phase phi/epsilon and the
action theta is adiabatically near-conserved.  The transforms are exact at
finite epsilon, not asymptotic.  The chart changes and energies take one
epsilon, or an epsilon array shaped like the state's fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import FrequencyModel
from .phase import reduced_sincos, reducer


class CartesianState(NamedTuple):
    """Cartesian state; fields may hold floats or equal-length arrays."""

    y: object
    eta: object
    z: object
    zeta: object


class ActionAngleState(NamedTuple):
    """Action-angle state; fields may hold floats or equal-length arrays."""

    phi: object
    theta: object
    y: object
    p: object
    degenerate: object = False


def _check(epsilon, theta=0.0) -> None:
    if not np.all(np.greater(epsilon, 0.0)):
        raise ValueError("epsilon must be positive")
    if np.any(np.less(theta, 0.0)):
        raise ValueError("theta must be nonnegative")


def action_angle_rhs(s: ActionAngleState, epsilon: float, fm: FrequencyModel) -> ActionAngleState:
    """Time derivative of the action-angle state (exact at finite epsilon)."""
    _check(epsilon, s.theta)
    d = action_angle_field(epsilon, fm)(0.0, (s.phi, s.theta, s.y, s.p))
    return ActionAngleState(*d)


def action_angle_rhs_composed(s: ActionAngleState, epsilon,
                              fm: FrequencyModel) -> ActionAngleState:
    """Equations of motion assembled from total time derivatives of
    log omega along the flow; algebraically identical to
    action_angle_rhs and used as a consistency oracle."""
    _check(epsilon, s.theta)
    w, w1, w2, _ = fm.derivs(s.y)
    s2, c2 = reduced_sincos(s.phi, epsilon, 2)
    dyL = w1 / w
    dy2L = w2 / w - dyL * dyL
    y_dot = s.p + epsilon * (0.5 * s.theta * dyL) * s2
    DtL = y_dot * dyL
    DtDyL = y_dot * dy2L
    phi_dot = w + epsilon * 0.5 * DtL * s2
    theta_dot = -s.theta * DtL * c2
    p_dot = -s.theta * w1 - epsilon * 0.5 * s.theta * DtDyL * s2
    return ActionAngleState(phi_dot, theta_dot, y_dot, p_dot)


def to_action_angle(s: CartesianState, epsilon, fm: FrequencyModel) -> ActionAngleState:
    """Exact chart change cartesian -> action-angle.

    theta = (zeta^2 + (omega z / eps)^2) / (2 omega); phi is epsilon times
    the principal oscillator angle; the slow momentum removes the
    oscillatory shear from eta exactly (no trig evaluations needed).
    At theta = 0 the angle is undefined: phi is set to 0 and the state
    is flagged degenerate.  Array fields give principal angles; samples that
    resolve the fast oscillation unwrap them as eps*np.unwrap(phi/eps).
    """
    _check(epsilon)
    w, w1, _, _ = fm.derivs(s.y)
    wz = w * s.z / epsilon
    theta = (s.zeta * s.zeta + wz * wz) / (2.0 * w)
    degenerate = theta == 0.0
    # np.arctan2 for floats too, the bits of an array call; [()] unwraps a 0-d result
    phi = np.where(degenerate, 0.0, epsilon * np.arctan2(wz, s.zeta))[()]
    # exact: sin(2 phi/eps) = z*zeta/(eps*theta), so the shear term
    # eps*(theta w'/2w)*sin(...) collapses to w'*z*zeta/(2w)
    p = s.eta - w1 * s.z * s.zeta / (2.0 * w)
    return ActionAngleState(phi, theta, s.y, p, degenerate)


def from_action_angle(s: ActionAngleState, epsilon, fm: FrequencyModel) -> CartesianState:
    """Exact chart change action-angle -> cartesian, for float or array fields."""
    _check(epsilon, s.theta)
    w, w1, _, _ = fm.derivs(s.y)
    s1, c1 = reduced_sincos(s.phi, epsilon, 1)
    amp = np.sqrt(2.0 * s.theta / w)
    z = epsilon * amp * s1
    zeta = np.sqrt(2.0 * s.theta * w) * c1
    s2 = 2.0 * s1 * c1
    eta = s.p + epsilon * (0.5 * s.theta * w1 / w) * s2
    return CartesianState(s.y, eta, z, zeta)


def energy_cartesian(s: CartesianState, epsilon, fm: FrequencyModel):
    _check(epsilon)
    wz = fm.derivs(s.y)[0] * s.z / epsilon
    # squares as products: a float's ** 2 is libm's pow, which can differ in the last bit
    return 0.5 * (s.zeta * s.zeta) + 0.5 * (wz * wz), 0.5 * (s.eta * s.eta)  # E_perp, E_par


def energy_action_angle(s: ActionAngleState, epsilon, fm: FrequencyModel):
    _check(epsilon, s.theta)
    w, w1, _, _ = fm.derivs(s.y)
    s2, _ = reduced_sincos(s.phi, epsilon, 2)
    shear = epsilon * (0.5 * s.theta * w1 / w) * s2
    return 0.5 * s.p * s.p + s.p * shear + 0.5 * shear * shear + s.theta * w


def action_angle_field(epsilon: float, fm: FrequencyModel):
    """Vector field f(t, x) for the integrators, x = (phi, theta, y, p).

    Takes any sequence of four floats and returns a tuple of floats.  The
    frequency routine and the phase reduction are bound once per field;
    the body is the only copy of the action-angle equations of motion.
    """
    _check(epsilon)
    derivs = fm.scalar_derivs()
    reduce = reducer(epsilon)
    sin, cos = math.sin, math.cos
    eps2 = epsilon * epsilon

    def f(t, x):
        phi, theta, y, p = x
        w, w1, w2, _ = derivs(y)
        r2 = reduce(2.0 * phi)
        s2, c2 = sin(r2), cos(r2)
        ss = s2 * s2
        r = w1 / w
        # recurring left factors in each term's left-to-right order: the same bits
        ht, qt = 0.5 * theta, 0.25 * theta
        htp = ht * p
        qttr = qt * theta * r
        qttrr = qttr * r
        phi_dot = w + epsilon * (0.5 * p * r) * s2 + eps2 * (qt * r * r) * ss
        theta_dot = -(theta * p * r) * c2 - epsilon * qttrr * (2.0 * s2 * c2)
        y_dot = p + epsilon * (ht * r) * s2
        p_dot = (-theta * w1
                 + epsilon * (htp * r * r) * s2
                 - epsilon * (htp * w2 / w) * s2
                 + eps2 * (qttrr * r) * ss
                 - eps2 * (qttr * w2 / w) * ss)
        return phi_dot, theta_dot, y_dot, p_dot

    return f


def cartesian_field(epsilon: float, fm: FrequencyModel):
    """Vector field f(t, x) for the integrators, x = (y, eta, z, zeta).

    Takes any sequence of four floats and returns a tuple of floats.
    """
    _check(epsilon)
    neg_inv2 = -(1.0 / (epsilon * epsilon))
    derivs = fm.scalar_derivs()

    def f(t, x):
        y, eta, z, zeta = x
        w, w1, _, _ = derivs(y)
        m = neg_inv2 * w  # the common left factor of -w*w1*z*z/eps^2 and -w*w*z/eps^2
        return eta, m * w1 * z * z, zeta, m * w * z

    return f
