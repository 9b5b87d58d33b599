"""Second-order asymptotic reconstruction of the finite-epsilon flow.

The finite-epsilon trajectory is reproduced to o(eps^2) by the homogenized
state plus two layers of structure: oscillatory correctors (explicit
functions of the homogenized state, phase-locked to 2*phi0/eps) and slowly
varying second-order corrections obeying their own averaged ODE system.
theta is special: it has a first-order oscillatory corrector; the other
variables start correcting at second order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import ActionAngleState, action_angle_field, energy_action_angle
from .integrate import (REFERENCE_FACTOR, NumericalError, Trajectory, integrate_controlled,
                        reference_solution, sample)
from .model import FrequencyModel, SystemParams, derived_constants
from .phase import reduced_sincos


class HomogenizedState(NamedTuple):
    """Limit state: phase phi0 and slow pair (y0, p0), at action theta_star.

    Fields may hold floats or equal-length arrays; the formulas are
    arithmetic in the fields either way.
    """

    phi0: object
    y0: object
    p0: object


class CorrectorValues(NamedTuple):
    """Oscillatory correctors at given homogenized state(s).

    theta1 is the first-order action corrector; the rest are second
    order.  Each has zero average over the fast phase.
    """

    theta1: object
    phi2: object
    y2: object
    p2: object
    theta2: object


class AveragedCorrection(NamedTuple):
    """Slowly varying second-order corrections (phase averages)."""

    phi2_bar: object
    theta2_bar: object
    y2_bar: object
    p2_bar: object


class ResidualReport(NamedTuple):
    """Sup-norm distances between finite-epsilon reference runs and the
    reconstruction, per epsilon and variable.

    families maps family -> variable -> array over epsilons:
    'leading' (limit alone), 'first' (theta including its first-order
    corrector), 'second' (full reconstruction).  normalized maps the same
    keys to sup / eps^k with k the expected order (theta leading: k=1;
    everything else: k=2).
    """

    epsilons: tuple
    families: dict
    normalized: dict
    energy_drift: np.ndarray


def _corrector_core(theta_star, w, w1, w2, p0, s2, c2, phi2_bar):
    dyL = w1 / w
    DtL = p0 * dyL
    theta1 = -(theta_star * DtL / (2.0 * w)) * s2
    phi2 = -(DtL / (4.0 * w)) * c2
    y2 = -(theta_star * dyL / (4.0 * w)) * c2
    p2 = theta_star * p0 * (w2 * w - 2.0 * w1 * w1) / (4.0 * w**3) * c2
    c4 = 1.0 - 2.0 * s2 * s2
    theta2 = (-theta_star * dyL * y2
              - (p0 / w) * p2
              + (theta_star**2 * dyL * dyL / (16.0 * w)) * c4
              - (theta_star * DtL / w) * phi2_bar * c2)
    return CorrectorValues(theta1, phi2, y2, p2, theta2)


def correctors(base: HomogenizedState, phi2_bar, epsilon: float,
               fm: FrequencyModel, theta_star: float) -> CorrectorValues:
    """Oscillatory correctors at the homogenized state.

    Scalar and array fields share the extended-precision phase reduction.
    phi2_bar feeds the second-order action corrector (its phase-locked
    part multiplies cos(2 phi0/eps)).
    """
    w, w1, w2, _ = fm.derivs(base.y0)
    s2, c2 = reduced_sincos(base.phi0, epsilon, 2)
    return _corrector_core(theta_star, w, w1, w2, base.p0, s2, c2, phi2_bar)


def _averaged_core(theta_star, w, w1, w2, p0, theta2_bar, y2_bar, p2_bar):
    # d/dt (phi2_bar, theta2_bar, y2_bar, p2_bar), a tuple for the slow field
    dyL = w1 / w
    dy2L = w2 / w - dyL * dyL
    DtL = p0 * dyL
    DtDyL = p0 * dy2L
    Dt2L = -theta_star * w1 * dyL + p0 * p0 * dy2L
    return (w1 * y2_bar + theta_star * dyL * dyL / 8.0 - DtL * DtL / (8.0 * w),
            (theta_star * DtL / (4.0 * w * w)) * (Dt2L - DtL * DtL),
            p2_bar - theta_star * dyL * DtL / (4.0 * w),
            (-w1 * theta2_bar - theta_star * w2 * y2_bar
             - theta_star**2 * dyL * dy2L / 8.0
             + theta_star * DtL * DtDyL / (4.0 * w)))


def averaged_rhs(corr: AveragedCorrection, base: HomogenizedState,
                 fm: FrequencyModel, theta_star: float) -> AveragedCorrection:
    """Time derivative of the averaged second-order corrections."""
    w, w1, w2, _ = fm.derivs(base.y0)
    return AveragedCorrection(*_averaged_core(theta_star, w, w1, w2, base.p0,
                                              corr.theta2_bar, corr.y2_bar, corr.p2_bar))


def averaged_action_identity(base: HomogenizedState, corr: AveragedCorrection,
                             fm: FrequencyModel, theta_star: float):
    """Residual of the averaged action constraint; zero along the
    averaged flow started from initial_corrections."""
    w, w1, _, _ = fm.derivs(base.y0)
    dyL = w1 / w
    return (corr.theta2_bar + (base.p0 / w) * corr.p2_bar
            + theta_star * dyL * corr.y2_bar
            + theta_star**2 * dyL * dyL / (16.0 * w)
            - theta_star * (base.p0 * dyL) ** 2 / (4.0 * w * w))


def initial_corrections(params: SystemParams, fm: FrequencyModel) -> AveragedCorrection:
    """Start values of the averaged corrections.

    The reconstruction must match the exact initial state for every
    epsilon, and the oscillatory correctors at t=0 sit on their cos = 1
    branch, so each averaged correction starts at minus its corrector.
    The action corrector itself consumes phi2_bar(0), which is resolved
    first (the phi corrector does not depend on the action one).
    """
    theta_star = derived_constants(params, fm).theta_star
    w, w1, w2, _ = fm.derivs(params.y_star)
    phi2_bar0 = -_corrector_core(theta_star, w, w1, w2, params.p_star,
                                 0.0, 1.0, 0.0).phi2
    cv0 = _corrector_core(theta_star, w, w1, w2, params.p_star, 0.0, 1.0,
                          phi2_bar0)
    return AveragedCorrection(phi2_bar=phi2_bar0, theta2_bar=-cv0.theta2,
                              y2_bar=-cv0.y2, p2_bar=-cv0.p2)


def expansion_field(params: SystemParams, fm: FrequencyModel):
    """Joint vector field, tuple to tuple, for (phi0, y0, p0, phi2_bar,
    theta2_bar, y2_bar, p2_bar): the homogenized flow (omega, p0,
    -theta_star * omega'), the lab's one copy of it, drives the averaged layer."""
    theta_star = derived_constants(params, fm).theta_star
    derivs = fm.scalar_derivs()

    def f(t, x):
        _, y0, p0, _, th2b, y2b, p2b = x
        w, w1, w2, _ = derivs(y0)
        return (w, p0, -theta_star * w1,
                *_averaged_core(theta_star, w, w1, w2, p0, th2b, y2b, p2b))

    return f


def solve_expansion(params: SystemParams, fm: FrequencyModel) -> Trajectory:
    """Integrate homogenized + averaged layers jointly over [0, horizon_T],
    at integrate_controlled's fixed slow numerics and step budget."""
    init = initial_corrections(params, fm)
    x0 = np.array([0.0, params.y_star, params.p_star, *init])
    return integrate_controlled(expansion_field(params, fm), x0, params.horizon_T)


def eval_expansion(traj: Trajectory, grid):
    """Dense samples of the joint solution on a grid.

    Returns (HomogenizedState, AveragedCorrection) holding arrays.
    """
    xs = sample(traj, grid)
    return HomogenizedState(*xs[:, :3].T), AveragedCorrection(*xs[:, 3:].T)


def reconstruct(epsilon: float, base: HomogenizedState,
                corr: AveragedCorrection, cv: CorrectorValues,
                theta_star: float):
    """Assemble the second-order approximation of the finite-epsilon state.

    Returns (phi_hat, theta_hat, y_hat, p_hat); fields may be arrays.
    """
    e2 = epsilon * epsilon
    phi_hat = base.phi0 + e2 * (corr.phi2_bar + cv.phi2)
    theta_hat = theta_star + epsilon * cv.theta1 + e2 * (corr.theta2_bar + cv.theta2)
    y_hat = base.y0 + e2 * (corr.y2_bar + cv.y2)
    p_hat = base.p0 + e2 * (corr.p2_bar + cv.p2)
    return phi_hat, theta_hat, y_hat, p_hat


def two_scale_limits(base: HomogenizedState, phi2_bar, s,
                     fm: FrequencyModel, theta_star: float) -> CorrectorValues:
    """Oscillatory correctors as functions of the separated fast variable.

    Replaces the locked phase 2*phi0/eps by 2*pi*s: these are the
    two-scale limits of the rescaled correction remainders.  Broadcasting
    applies: pass base fields shaped (nt, 1) and s shaped (ns,) to get
    (nt, ns) surfaces.  The s-average of every field is zero; the slowly
    varying parts (phi2_bar etc.) are the caller's to add.
    """
    w, w1, w2, _ = fm.derivs(base.y0)
    ang = 2.0 * np.pi * np.asarray(s, float)
    s2 = np.sin(ang)
    c2 = np.cos(ang)
    return _corrector_core(theta_star, w, w1, w2, base.p0, s2, c2, phi2_bar)


def reference_run(params: SystemParams, fm: FrequencyModel, epsilon: float) -> Trajectory:
    """Step-halved action-angle reference run at one epsilon.

    The base step resolves the fastest period 2*pi*eps/omega_upper_bound
    by REFERENCE_FACTOR steps.  Raises NumericalError when the run's
    Richardson error estimate exceeds 1e-8.
    """
    dc = derived_constants(params, fm)
    x0 = np.array([0.0, dc.theta_star, params.y_star, params.p_star])
    ref = reference_solution(action_angle_field(epsilon, fm), x0, params.horizon_T,
                             fm.fast_step(epsilon, REFERENCE_FACTOR))
    if ref.meta["richardson_error"] > 1e-8:
        raise NumericalError(f"reference error estimate {ref.meta['richardson_error']:.3e} "
                             "exceeds cap 1.000e-08")
    return ref


def residual_norms(params: SystemParams, fm: FrequencyModel, grid,
                   base: HomogenizedState, corr: AveragedCorrection,
                   runs) -> ResidualReport:
    """Measure reconstruction quality across epsilons.

    base and corr are the epsilon-independent expansion sampled on grid;
    runs yields (epsilon, reference run) pairs, each compared with the
    reconstruction on that grid.
    """
    dc = derived_constants(params, fm)
    sup = lambda a: float(np.max(np.abs(a)))
    families: dict = {"leading": {}, "first": {}, "second": {}}
    eps, drift = [], []
    for epsilon, ref in runs:
        xs = sample(ref, grid)
        phi_e, theta_e, y_e, p_e = xs[:, 0], xs[:, 1], xs[:, 2], xs[:, 3]
        cv = correctors(base, corr.phi2_bar, epsilon, fm, dc.theta_star)
        phi_hat, theta_hat, y_hat, p_hat = reconstruct(epsilon, base, corr, cv,
                                                       dc.theta_star)
        for fam, var, residual in (
                ("leading", "phi", phi_e - base.phi0),
                ("leading", "theta", theta_e - dc.theta_star),
                ("leading", "y", y_e - base.y0),
                ("leading", "p", p_e - base.p0),
                ("first", "theta", theta_e - dc.theta_star - epsilon * cv.theta1),
                ("second", "phi", phi_e - phi_hat),
                ("second", "theta", theta_e - theta_hat),
                ("second", "y", y_e - y_hat),
                ("second", "p", p_e - p_hat)):
            families[fam].setdefault(var, []).append(sup(residual))
        energy = energy_action_angle(ActionAngleState(*xs.T), epsilon, fm)
        drift.append(sup(energy - dc.e_star))
        eps.append(epsilon)
        del ref  # so the next run is made with this one already freed
    families = {fam: {var: np.array(v) for var, v in d.items()}
                for fam, d in families.items()}
    normalized = {
        fam: {var: vals / np.array(eps) ** (1 if (fam, var) == ("leading", "theta") else 2)
              for var, vals in d.items()}
        for fam, d in families.items()
    }
    return ResidualReport(tuple(eps), families, normalized, np.array(drift))
