"""Leading-order (homogenized) dynamics: the epsilon -> 0 limit.

The oscillator collapses to an adiabatic energy reservoir theta_star *
omega(y0) that back-reacts on the slow coordinate through the force
-theta_star * omega'(y0); the limit phase phi0 accumulates omega(y0) and
is the clock against which all oscillatory structure is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from .integrate import Trajectory, integrate_controlled
from .model import FrequencyModel, SystemParams, derived_constants


@dataclass(frozen=True)
class HomogenizedState:
    """Limit state: phase phi0 and slow pair (y0, p0), at action theta_star.

    Fields may hold floats or equal-length arrays; the formulas are
    arithmetic in the fields either way.
    """

    phi0: object
    y0: object
    p0: object


def homogenized_field(fm: FrequencyModel, theta_star: float):
    """Vector field f(t, x) with x = (phi0, y0, p0), returning a tuple of
    floats; the action enters as the constant theta_star."""
    derivs = fm.scalar_derivs()

    def f(t, x):
        _, y0, p0 = x
        w, w1, _, _ = derivs(y0)
        return w, p0, -theta_star * w1

    return f


def solve_homogenized(params: SystemParams, fm: FrequencyModel,
                      rtol: float = 1e-12, atol: float = 1e-12,
                      max_step: float = 0.002) -> Trajectory:
    """Integrate the limit system over [0, horizon_T].

    States are [phi0, y0, p0] and meta records theta_star; the step cap
    keeps the dense output smooth for downstream finite differencing.
    """
    dc = derived_constants(params, fm)
    x0 = (0.0, params.y_star, params.p_star)
    traj = integrate_controlled(homogenized_field(fm, dc.theta_star), x0,
                                params.horizon_T, rtol, atol, max_step=max_step)
    traj.meta["theta_star"] = dc.theta_star
    return traj

