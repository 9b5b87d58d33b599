"""State representations and equations of motion at finite epsilon.

Two charts for the same flow: cartesian (y, eta, z, zeta) with the stiff
potential 0.5*omega(y)^2*z^2/eps^2, and action-angle (phi, theta, y, p)
in which the oscillation enters only through the phase phi/epsilon and the
action theta is adiabatically near-conserved.  The transforms are exact at
finite epsilon, not asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FrequencyModel
from .phase import reduced_sincos, reduced_sincos_array, reducer


@dataclass(frozen=True)
class CartesianState:
    y: float
    eta: float
    z: float
    zeta: float


@dataclass(frozen=True)
class ActionAngleState:
    phi: float
    theta: float
    y: float
    p: float
    degenerate: bool = False


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")


def action_angle_rhs(s: ActionAngleState, epsilon: float, fm: FrequencyModel) -> ActionAngleState:
    """Time derivative of the action-angle state (exact at finite epsilon)."""
    _check_epsilon(epsilon)
    if s.theta < 0.0:
        raise ValueError("theta must be nonnegative")
    d = action_angle_field(epsilon, fm)(0.0, (s.phi, s.theta, s.y, s.p))
    return ActionAngleState(*d)


def action_angle_rhs_composed(s: ActionAngleState, epsilon: float,
                              fm: FrequencyModel) -> ActionAngleState:
    """Equations of motion assembled from total time derivatives of
    log omega along the flow; algebraically identical to
    action_angle_rhs and used as a consistency oracle."""
    _check_epsilon(epsilon)
    if s.theta < 0.0:
        raise ValueError("theta must be nonnegative")
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


def to_action_angle(s: CartesianState, epsilon: float, fm: FrequencyModel) -> ActionAngleState:
    """Exact chart change cartesian -> action-angle.

    theta = (zeta^2 + (omega z / eps)^2) / (2 omega); phi is epsilon times
    the principal oscillator angle; the slow momentum removes the
    oscillatory shear from eta exactly (no trig evaluations needed).
    At theta = 0 the angle is undefined: phi is set to 0 and the state
    is flagged degenerate.
    """
    _check_epsilon(epsilon)
    w, w1, _, _ = fm.derivs(s.y)
    wz = w * s.z / epsilon
    theta = (s.zeta * s.zeta + wz * wz) / (2.0 * w)
    degenerate = theta == 0.0
    phi = 0.0 if degenerate else epsilon * math.atan2(wz, s.zeta)
    # exact: sin(2 phi/eps) = z*zeta/(eps*theta), so the shear term
    # eps*(theta w'/2w)*sin(...) collapses to w'*z*zeta/(2w)
    p = s.eta - w1 * s.z * s.zeta / (2.0 * w)
    return ActionAngleState(phi, theta, s.y, p, degenerate)


def from_action_angle(s: ActionAngleState, epsilon: float, fm: FrequencyModel) -> CartesianState:
    """Exact chart change action-angle -> cartesian."""
    _check_epsilon(epsilon)
    if s.theta < 0.0:
        raise ValueError("theta must be nonnegative")
    w, w1, _, _ = fm.derivs(s.y)
    s1, c1 = reduced_sincos(s.phi, epsilon, 1)
    amp = math.sqrt(2.0 * s.theta / w)
    z = epsilon * amp * s1
    zeta = math.sqrt(2.0 * s.theta * w) * c1
    s2 = 2.0 * s1 * c1
    eta = s.p + epsilon * (0.5 * s.theta * w1 / w) * s2
    return CartesianState(s.y, eta, z, zeta)


def energy_cartesian(s: CartesianState, epsilon: float, fm: FrequencyModel) -> float:
    _check_epsilon(epsilon)
    w = fm.derivs(s.y)[0]
    return 0.5 * s.eta**2 + 0.5 * s.zeta**2 + 0.5 * (w * s.z / epsilon) ** 2


def energy_action_angle(s: ActionAngleState, epsilon: float, fm: FrequencyModel) -> float:
    _check_epsilon(epsilon)
    if s.theta < 0.0:
        raise ValueError("theta must be nonnegative")
    w, w1, _, _ = fm.derivs(s.y)
    s2, _ = reduced_sincos(s.phi, epsilon, 2)
    r = w1 / w
    shear = epsilon * (0.5 * s.theta * r) * s2
    return 0.5 * s.p**2 + s.p * shear + 0.5 * shear * shear + s.theta * w


def action_angle_field(epsilon: float, fm: FrequencyModel):
    """Vector field f(t, x) for the integrators, x = (phi, theta, y, p).

    Takes any sequence of four floats and returns a tuple of floats.  The
    frequency routine and the phase reduction are bound once per field;
    the body is the only copy of the action-angle equations of motion.
    """
    _check_epsilon(epsilon)
    derivs = fm.scalar_derivs()
    reduce = reducer(epsilon)
    sin, cos = math.sin, math.cos
    eps2 = epsilon * epsilon

    def f(t, x):
        phi, theta, y, p = x
        w, w1, w2, _ = derivs(y)
        r2 = reduce(2.0 * phi)
        s2, c2 = sin(r2), cos(r2)
        s4 = 2.0 * s2 * c2
        r = w1 / w
        phi_dot = w + epsilon * (0.5 * p * r) * s2 + eps2 * (0.25 * theta * r * r) * (s2 * s2)
        theta_dot = -(theta * p * r) * c2 - epsilon * (0.25 * theta * theta * r * r) * s4
        y_dot = p + epsilon * (0.5 * theta * r) * s2
        p_dot = (-theta * w1
                 + epsilon * (0.5 * theta * p * r * r) * s2
                 - epsilon * (0.5 * theta * p * w2 / w) * s2
                 + eps2 * (0.25 * theta * theta * r * r * r) * (s2 * s2)
                 - eps2 * (0.25 * theta * theta * r * w2 / w) * (s2 * s2))
        return phi_dot, theta_dot, y_dot, p_dot

    return f


def cartesian_field(epsilon: float, fm: FrequencyModel):
    """Vector field f(t, x) for the integrators, x = (y, eta, z, zeta).

    Takes any sequence of four floats and returns a tuple of floats.
    """
    _check_epsilon(epsilon)
    inv2 = 1.0 / (epsilon * epsilon)
    derivs = fm.scalar_derivs()

    def f(t, x):
        y, eta, z, zeta = x
        w, w1, _, _ = derivs(y)
        return eta, -inv2 * w * w1 * z * z, zeta, -inv2 * w * w * z

    return f


def to_action_angle_arrays(Y, ETA, Z, ZETA, epsilon: float, fm: FrequencyModel):
    """Vectorized chart change for sampled cartesian trajectories.

    Returns (phi_unwrapped, theta, y, p, degenerate_mask).  The angle is
    recovered per-sample in its principal branch and then unwrapped, so
    the sampling must resolve the fast oscillation (per-sample phase
    advance below pi).
    """
    _check_epsilon(epsilon)
    Y = np.asarray(Y, float)
    w, w1, _, _ = fm.derivs(Y)
    wz = w * np.asarray(Z, float) / epsilon
    theta = (np.asarray(ZETA, float) ** 2 + wz**2) / (2.0 * w)
    degenerate = theta == 0.0
    alpha = np.arctan2(wz, ZETA)
    phi = epsilon * np.unwrap(alpha)
    p = np.asarray(ETA, float) - w1 * np.asarray(Z, float) * np.asarray(ZETA, float) / (2.0 * w)
    return phi, theta, Y, p, degenerate


def energy_action_angle_arrays(PHI, THETA, Y, P, epsilon: float, fm: FrequencyModel):
    """Vectorized total energy along sampled action-angle trajectories."""
    _check_epsilon(epsilon)
    Y = np.asarray(Y, float)
    w, w1, _, _ = fm.derivs(Y)
    s2, _ = reduced_sincos_array(np.asarray(PHI, float), epsilon, 2)
    shear = epsilon * (0.5 * np.asarray(THETA, float) * w1 / w) * s2
    P = np.asarray(P, float)
    return 0.5 * P * P + P * shear + 0.5 * shear * shear + np.asarray(THETA, float) * w


def oscillator_energy_gap_arrays(PHI, THETA, Y, epsilon: float, fm: FrequencyModel):
    """Kinetic minus potential oscillator energy, theta*omega*cos(2 phi/eps).

    In the action-angle chart the oscillator's kinetic and potential parts
    are theta*omega*(1 +- cos(2 phi/eps))/2, so their gap isolates the
    double-frequency oscillation whose windowed averages vanish to second
    order.
    """
    w = fm.derivs(np.asarray(Y, float))[0]
    _, c2 = reduced_sincos_array(np.asarray(PHI, float), epsilon, 2)
    return np.asarray(THETA, float) * w * c2
