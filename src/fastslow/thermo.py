"""Thermodynamic interpretation of the oscillator as a one-frequency bath.

The oscillator's mean kinetic energy over one period defines a temperature
T = theta*omega; the enclosed phase-plane area defines an entropy
S = log(theta) + const; the frequency's dependence on the slow coordinate
exerts the force F = theta*omega'.  The expansion of these state functions
along the second-order reconstruction obeys energy-balance (first-law)
relations order by order, and the averaged second-order energy is a state
function of the averaged corrections whose partial derivatives reproduce
their equations of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import windowed_average
from .dynamics import oscillator_energy_gap_arrays
from .expansion import AveragedCorrection, CorrectorValues
from .homogenized import HomogenizedState
from .integrate import GRID_POINTS, Trajectory, sample
from .model import DerivedConstants, FrequencyModel
from .phase import reduced_sincos


@dataclass(frozen=True)
class ThermoExpansion:
    """Entropy/temperature/force series along the reconstruction.

    S1_osc is the first-order entropy coefficient (purely oscillatory);
    S2_full the full second-order coefficient; S2_bar its fast-phase
    average; S2_doublebar the part that survives both averaging and the
    removal of the first-order self-interaction; F2_bar the averaged
    second-order force, whose work closes the second-order energy balance.
    """

    T0: object
    F0: object
    S0: object
    S1_osc: object
    S2_full: object
    S2_bar: object
    S2_doublebar: object
    F2_bar: object


@dataclass(frozen=True)
class EnergyExpansion:
    """Oscillator/slow energy split, order by order.

    Each second-order piece is its full coefficient minus its fast-phase
    average.  The oscillatory pieces cancel at both orders
    (E1_perp_osc + E1_par_osc = 0, E2_perp_osc + E2_par_osc = 0); the
    second-order averages E2_perp_bar + E2_par_bar vanish identically
    because total energy is conserved and matched at t = 0.
    """

    E0_perp: object
    E1_perp_osc: object
    E1_par_osc: object
    E2_perp_osc: object
    E2_par_osc: object
    E2_perp_bar: object
    E2_par_bar: object
    E2_bar: object


@dataclass(frozen=True)
class AveragedEnergyBundle:
    """Closed forms tied to the averaged second-order energy.

    S2_doublebar_closed is the closed-form doubly averaged entropy
    coefficient (a function of the homogenized state alone); the partial
    derivatives of E2_bar with respect to (y0, p0) generate the averaged
    equations of motion for (p2_bar, y2_bar) in Hamiltonian form.
    """

    S2_doublebar_closed: object
    E2_bar: object
    dE2_dy0: object
    dE2_dp0: object


@dataclass(frozen=True)
class FirstLawReport:
    """Pointwise residuals of an energy-balance check on a uniform grid."""

    residuals: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class EquipartitionReport:
    """Windowed kinetic-potential gaps and the virial-type sup norm."""

    centers: np.ndarray
    gap_max: float
    xi_sup: float
    any_slid: bool


def expand_thermo(base: HomogenizedState, corr: AveragedCorrection,
                  cv: CorrectorValues, theta_star: float,
                  fm: FrequencyModel) -> ThermoExpansion:
    """Entropy/temperature/force coefficients along the reconstruction."""
    w, w1, w2, _ = fm.derivs(base.y0)
    dyL = w1 / w
    DtL = base.p0 * dyL
    s1 = cv.theta1 / theta_star
    return ThermoExpansion(
        T0=theta_star * w,
        F0=theta_star * w1,
        # the entropy normalization pins S0 = log(theta_star) + constant to 0
        S0=0.0 * w,
        S1_osc=s1,
        S2_full=(corr.theta2_bar + cv.theta2) / theta_star - 0.5 * s1 * s1,
        S2_bar=corr.theta2_bar / theta_star - (DtL / (4.0 * w)) ** 2,
        S2_doublebar=corr.theta2_bar / theta_star,
        F2_bar=w1 * corr.theta2_bar + theta_star * w2 * corr.y2_bar,
    )


def energy_expansion(base: HomogenizedState, corr: AveragedCorrection,
                     cv: CorrectorValues, epsilon: float, theta_star: float,
                     fm: FrequencyModel) -> EnergyExpansion:
    """Energy split coefficients along the reconstruction.

    The first-order pieces are computed independently of each other (the
    oscillator part through the action corrector, the slow part through
    the momentum shear) so their cancellation is a real check.
    """
    w, w1, _, _ = fm.derivs(base.y0)
    s2, c2 = reduced_sincos(base.phi0, epsilon, 2)
    dyL = w1 / w
    DtL = base.p0 * dyL
    e1_perp = w * cv.theta1
    e1_par = (0.5 * theta_star * DtL) * s2
    e2_perp_osc = theta_star * w1 * cv.y2 + w * cv.theta2
    e2_par = (base.p0 * (corr.p2_bar + cv.p2)
              + (theta_star**2 * dyL * dyL / 8.0) * (s2 * s2)
              + theta_star * DtL * (corr.phi2_bar + cv.phi2) * c2
              + 0.5 * cv.theta1 * DtL * s2)
    e2_perp_bar = theta_star * w1 * corr.y2_bar + w * corr.theta2_bar
    e2_par_bar = (base.p0 * corr.p2_bar
                  + (theta_star * dyL / 4.0) ** 2
                  - theta_star * DtL * DtL / (4.0 * w))
    return EnergyExpansion(
        E0_perp=theta_star * w,
        E1_perp_osc=e1_perp,
        E1_par_osc=e1_par,
        E2_perp_osc=e2_perp_osc,
        E2_par_osc=e2_par - e2_par_bar,
        E2_perp_bar=e2_perp_bar,
        E2_par_bar=e2_par_bar,
        E2_bar=e2_perp_bar + e2_par_bar,
    )


def averaged_energy_bundle(base: HomogenizedState, corr: AveragedCorrection,
                           fm: FrequencyModel, theta_star: float,
                           constants: DerivedConstants) -> AveragedEnergyBundle:
    """Closed forms of the averaged second-order energy and its partials.

    E2_bar here uses the closed-form doubly averaged entropy coefficient,
    E2_bar = A_bar + F0*y2_bar + T0*S2_doublebar_closed, where the
    adiabatic (work-like) part is A_bar = p0*p2_bar + (theta*w'/(4w))^2
    - theta*w*(p0*w'/(2w^2))^2.  This collapses to an expression in
    omega and omega' alone; its partial derivatives
    with respect to (p0, y0) equal dy2_bar/dt and -dp2_bar/dt along the
    averaged flow.
    """
    p0 = base.p0
    w, w1, w2, _ = fm.derivs(base.y0)
    C = constants.c_sbarbar2
    s2dd = 0.5 * (p0 * w1 / (2.0 * w * w)) ** 2 + C
    e2_bar = (p0 * corr.p2_bar
              + theta_star**2 * w1 * w1 / (16.0 * w * w)
              - theta_star * p0 * p0 * w1 * w1 / (8.0 * w**3)
              + theta_star * w1 * corr.y2_bar
              + theta_star * w * C)
    de2_dp0 = corr.p2_bar - theta_star * p0 * w1 * w1 / (4.0 * w**3)
    de2_dy0 = (theta_star**2 * w1 * w2 / (8.0 * w * w)
               - theta_star**2 * w1**3 / (8.0 * w**3)
               - theta_star * p0 * p0 * w1 * w2 / (4.0 * w**3)
               + 3.0 * theta_star * p0 * p0 * w1**3 / (8.0 * w**4)
               + theta_star * w2 * corr.y2_bar
               + theta_star * w1 * C)
    return AveragedEnergyBundle(S2_doublebar_closed=s2dd,
                                E2_bar=e2_bar, dE2_dy0=de2_dy0,
                                dE2_dp0=de2_dp0)


def fd4_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order finite-difference time derivative on a uniform grid.

    Central five-point stencil inside, one-sided fourth-order stencils at
    the two points on each end.  Needs at least five samples.
    """
    v = np.asarray(values, float)
    if v.size < 5:
        raise ValueError("need at least five samples for the derivative stencils")
    if not dt > 0:
        raise ValueError("dt must be positive")
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * dt)
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * dt)
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * dt)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * dt)
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * dt)
    return d


def check_first_law(energy: np.ndarray, position: np.ndarray,
                    entropy: np.ndarray, force: np.ndarray,
                    temperature: np.ndarray, dt: float,
                    second_order_work: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> FirstLawReport:
    """Residual of the energy balance dE = F dy + T dS along a time grid.

    All series live on the same uniform grid with spacing dt; derivatives
    are fourth-order finite differences.  At second order the balance
    closes only when the work of the second-order force through the
    leading-order displacement is included: pass that pair as
    second_order_work = (force2, position0).
    """
    dE = fd4_derivative(energy, dt)
    dy = fd4_derivative(position, dt)
    dS = fd4_derivative(entropy, dt)
    residuals = dE - np.asarray(force, float) * dy - np.asarray(temperature, float) * dS
    if second_order_work is not None:
        f2, y0 = second_order_work
        residuals = residuals - np.asarray(f2, float) * fd4_derivative(np.asarray(y0, float), dt)
    return FirstLawReport(residuals=residuals,
                          max_residual=float(np.max(np.abs(residuals))))


def hertz_temperature_oracle(E_perp: float, y: float, fm: FrequencyModel) -> float:
    """Mean kinetic energy of one oscillator period, by direct quadrature.

    Integrates 2*E_perp*cos^2(omega t)/period over one period with
    composite Simpson on 2001 points; agrees with the closed form (the
    temperature is E_perp itself) to quadrature accuracy.  Independent of
    the expansion machinery by construction: only omega(y) enters.
    """
    if E_perp < 0:
        raise ValueError("oscillator energy must be nonnegative")
    n_samples = 2001
    w = fm.derivs(y)[0]
    period = 2.0 * math.pi / w
    ts = np.linspace(0.0, period, n_samples)
    vals = 2.0 * E_perp * np.cos(w * ts) ** 2
    h = period / (n_samples - 1)
    simpson = (h / 3.0) * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2])
                           + 2.0 * np.sum(vals[2:-2:2]))
    return float(simpson / period)


def phase_space_volume(E_perp: float, y: float, fm: FrequencyModel,
                       method: str = "closed-form") -> float:
    """Phase-plane area enclosed by the oscillator orbit of energy E_perp.

    closed-form: 2*pi*E_perp/omega.  area-quadrature: numerical area of
    the sublevel set 0.5*zeta^2 + 0.5*omega^2*q^2 <= E_perp via 2000
    midpoint slices (an independent check, accurate to ~1e-5 relative).
    """
    if E_perp < 0:
        raise ValueError("oscillator energy must be nonnegative")
    w = fm.derivs(y)[0]
    if method == "closed-form":
        area = 2.0 * math.pi * E_perp / w
    elif method == "area-quadrature":
        if E_perp == 0.0:
            area = 0.0
        else:
            n_cells = 2000
            q_max = math.sqrt(2.0 * E_perp) / w
            h = 2.0 * q_max / n_cells
            q = -q_max + h * (np.arange(n_cells) + 0.5)
            width = 2.0 * np.sqrt(np.maximum(0.0, 2.0 * E_perp - (w * q) ** 2))
            area = float(np.sum(width) * h)
    else:
        raise ValueError(f"unknown method: {method!r}")
    return area


def equipartition_check(traj: Trajectory, epsilon: float,
                        fm: FrequencyModel) -> EquipartitionReport:
    """Windowed means of the kinetic-potential gap along a fast trajectory.

    traj holds action-angle states [phi, theta, y, p].  The gap
    theta*omega*cos(2 phi/eps) is averaged over 8 whole fast periods of
    the trajectory's own phase at nine centers evenly spaced over
    [0.3 T, 0.7 T]; each mean is second-order small.  Also reports the
    sup of the virial-type product (d z/dt)*z = eps*theta*sin(2 phi/eps)
    on 2001 evenly spaced points of [0, T].
    """
    T = float(traj.times[-1])
    centers = T * np.linspace(0.3, 0.7, 9)

    def gap_signal(ts):
        xs = sample(traj, ts)
        return oscillator_energy_gap_arrays(xs[:, 0], xs[:, 1], xs[:, 2],
                                            epsilon, fm)

    windows = windowed_average(gap_signal, centers, epsilon, traj)
    grid = np.linspace(0.0, T, GRID_POINTS)
    xs = sample(traj, grid)
    s2, _ = reduced_sincos(xs[:, 0], epsilon, 2)
    xi = epsilon * xs[:, 1] * s2
    gap_max = float(np.max(np.abs([wa.value for wa in windows])))
    return EquipartitionReport(centers=centers, gap_max=gap_max,
                               xi_sup=float(np.max(np.abs(xi))),
                               any_slid=any(wa.slid_left or wa.slid_right
                                            for wa in windows))
