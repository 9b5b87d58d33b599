"""Second-order asymptotic reconstruction of the finite-epsilon flow.

The finite-epsilon trajectory is reproduced to o(eps^2) by the homogenized
state plus two layers of structure: oscillatory correctors (explicit
functions of the homogenized state, phase-locked to 2*phi0/eps) and slowly
varying second-order corrections obeying their own averaged ODE system.
theta is special: it has a first-order oscillatory corrector; the other
variables start correcting at second order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import action_angle_field, energy_action_angle_arrays
from .homogenized import HomogenizedState
from .integrate import (Trajectory, integrate_controlled, reference_solution,
                        sample)
from .model import (DerivedConstants, FrequencyModel, SystemParams,
                    derived_constants)
from .phase import reduced_sincos_array


@dataclass(frozen=True)
class CorrectorValues:
    """Oscillatory correctors at given homogenized state(s).

    theta1 is the first-order action corrector; the rest are second
    order.  Each has zero average over the fast phase.
    """

    theta1: object
    phi2: object
    y2: object
    p2: object
    theta2: object


@dataclass(frozen=True)
class AveragedCorrection:
    """Slowly varying second-order corrections (phase averages)."""

    phi2_bar: object
    theta2_bar: object
    y2_bar: object
    p2_bar: object


@dataclass(frozen=True)
class ResidualReport:
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
    reference_errors: np.ndarray
    theta_min: np.ndarray


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
    s2, c2 = reduced_sincos_array(base.phi0, epsilon, 2)
    return _corrector_core(theta_star, w, w1, w2, base.p0, s2, c2, phi2_bar)


def _averaged_core(theta_star, w, w1, w2, p0, theta2_bar, y2_bar, p2_bar):
    dyL = w1 / w
    dy2L = w2 / w - dyL * dyL
    DtL = p0 * dyL
    DtDyL = p0 * dy2L
    Dt2L = -theta_star * w1 * dyL + p0 * p0 * dy2L
    return AveragedCorrection(
        phi2_bar=w1 * y2_bar + theta_star * dyL * dyL / 8.0 - DtL * DtL / (8.0 * w),
        theta2_bar=(theta_star * DtL / (4.0 * w * w)) * (Dt2L - DtL * DtL),
        y2_bar=p2_bar - theta_star * dyL * DtL / (4.0 * w),
        p2_bar=(-w1 * theta2_bar - theta_star * w2 * y2_bar
                - theta_star**2 * dyL * dy2L / 8.0
                + theta_star * DtL * DtDyL / (4.0 * w)),
    )


def averaged_rhs(corr: AveragedCorrection, base: HomogenizedState,
                 fm: FrequencyModel, theta_star: float) -> AveragedCorrection:
    """Time derivative of the averaged second-order corrections."""
    w, w1, w2, _ = fm.derivs(base.y0)
    return _averaged_core(theta_star, w, w1, w2, base.p0, corr.theta2_bar,
                          corr.y2_bar, corr.p2_bar)


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
    """Joint vector field for [phi0, y0, p0, phi2_bar, theta2_bar,
    y2_bar, p2_bar]: the homogenized flow drives the averaged layer."""
    theta_star = derived_constants(params, fm).theta_star
    derivs = fm.scalar_derivs()

    def f(t, x):
        _, y0, p0, _, th2b, y2b, p2b = x
        w, w1, w2, _ = derivs(y0)
        d = _averaged_core(theta_star, w, w1, w2, p0, th2b, y2b, p2b)
        return np.array([w, p0, -theta_star * w1,
                         d.phi2_bar, d.theta2_bar, d.y2_bar, d.p2_bar])

    return f


def solve_expansion(params: SystemParams, fm: FrequencyModel,
                    rtol: float = 1e-12, atol: float = 1e-12,
                    max_step: float = 0.002) -> Trajectory:
    """Integrate homogenized + averaged layers jointly over [0, horizon_T]."""
    dc = derived_constants(params, fm)
    init = initial_corrections(params, fm)
    x0 = np.array([0.0, params.y_star, params.p_star, init.phi2_bar,
                   init.theta2_bar, init.y2_bar, init.p2_bar])
    traj = integrate_controlled(expansion_field(params, fm), x0,
                                params.horizon_T, rtol, atol, max_step=max_step)
    traj.meta["components"] = ("phi0", "y0", "p0", "phi2_bar", "theta2_bar",
                               "y2_bar", "p2_bar")
    traj.meta["theta_star"] = dc.theta_star
    return traj


def eval_expansion(traj: Trajectory, grid):
    """Dense samples of the joint solution on a grid.

    Returns (HomogenizedState, AveragedCorrection) holding arrays.
    """
    xs = sample(traj, grid)
    theta_star = traj.meta["theta_star"]
    base = HomogenizedState(phi0=xs[:, 0], y0=xs[:, 1], p0=xs[:, 2],
                            theta0=np.full(xs.shape[0], theta_star))
    corr = AveragedCorrection(phi2_bar=xs[:, 3], theta2_bar=xs[:, 4],
                              y2_bar=xs[:, 5], p2_bar=xs[:, 6])
    return base, corr


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


def reference_run(params: SystemParams, fm: FrequencyModel, epsilon: float,
                  reference_factor: float) -> Trajectory:
    """Step-halved action-angle reference run at one epsilon.

    The base step resolves the fastest period 2*pi*eps/omega_upper_bound
    by reference_factor steps.  Raises NumericalError when the run's
    Richardson error estimate exceeds 1e-8.
    """
    dc = derived_constants(params, fm)
    x0 = np.array([0.0, dc.theta_star, params.y_star, params.p_star])
    return reference_solution(action_angle_field(epsilon, fm), x0, params.horizon_T,
                              fm.fast_step(epsilon, reference_factor), error_cap=1e-8)


def _norms_for_epsilon(params: SystemParams, fm: FrequencyModel,
                       dc: DerivedConstants, grid: np.ndarray,
                       base: HomogenizedState, corr: AveragedCorrection,
                       reference_factor: float, epsilon: float):
    """Reference run at one epsilon and its distances to the reconstruction
    (base, corr) sampled on grid."""
    ref = reference_run(params, fm, epsilon, reference_factor)
    xs = sample(ref, grid)
    phi_e, theta_e, y_e, p_e = xs[:, 0], xs[:, 1], xs[:, 2], xs[:, 3]
    cv = correctors(base, corr.phi2_bar, epsilon, fm, dc.theta_star)
    phi_hat, theta_hat, y_hat, p_hat = reconstruct(epsilon, base, corr, cv,
                                                   dc.theta_star)
    sup = lambda a: float(np.max(np.abs(a)))
    energy = energy_action_angle_arrays(phi_e, theta_e, y_e, p_e, epsilon, fm)
    return {
        "leading": {"phi": sup(phi_e - base.phi0),
                    "theta": sup(theta_e - dc.theta_star),
                    "y": sup(y_e - base.y0),
                    "p": sup(p_e - base.p0)},
        "first": {"theta": sup(theta_e - dc.theta_star - epsilon * cv.theta1)},
        "second": {"phi": sup(phi_e - phi_hat),
                   "theta": sup(theta_e - theta_hat),
                   "y": sup(y_e - y_hat),
                   "p": sup(p_e - p_hat)},
        "energy_drift": sup(energy - dc.e_star),
        "reference_error": ref.meta["richardson_error"],
        "theta_min": float(np.min(theta_e)),
    }


def residual_norms(params: SystemParams, fm: FrequencyModel, epsilon_list,
                   rtol: float = 1e-12, atol: float = 1e-12,
                   max_step: float = 0.002, grid_points: int = 2001,
                   reference_factor: float = 80.0,
                   workers: int | None = None) -> ResidualReport:
    """Measure reconstruction quality across epsilons.

    The epsilon-independent expansion is solved and sampled once; each
    epsilon then gets an independent step-halved reference run compared
    on the common output grid.  The per-epsilon jobs can fan out over
    processes (workers > 1, or the FASTSLOW_WORKERS environment variable).
    Results are bitwise independent of the worker count.
    """
    eps = tuple(float(e) for e in epsilon_list)
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    if workers is None:
        try:
            workers = max(1, int(os.environ.get("FASTSLOW_WORKERS", "1")))
        except ValueError:
            workers = 1
    grid = np.linspace(0.0, params.horizon_T, grid_points)
    base, corr = eval_expansion(solve_expansion(params, fm, rtol, atol, max_step),
                                grid)
    job = partial(_norms_for_epsilon, params, fm, derived_constants(params, fm),
                  grid, base, corr, reference_factor)
    if workers > 1 and len(eps) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, eps))
    else:
        results = list(map(job, eps))
    families: dict = {"leading": {}, "first": {}, "second": {}}
    for fam in families:
        for var in results[0][fam]:
            families[fam][var] = np.array([r[fam][var] for r in results])
    normalized = {
        fam: {var: vals / np.array(eps) ** (1 if (fam, var) == ("leading", "theta") else 2)
              for var, vals in d.items()}
        for fam, d in families.items()
    }
    return ResidualReport(
        epsilons=eps,
        families=families,
        normalized=normalized,
        energy_drift=np.array([r["energy_drift"] for r in results]),
        reference_errors=np.array([r["reference_error"] for r in results]),
        theta_min=np.array([r["theta_min"] for r in results]),
    )
