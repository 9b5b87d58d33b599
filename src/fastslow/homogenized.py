"""Leading-order (homogenized) dynamics: the epsilon -> 0 limit.

The oscillator collapses to an adiabatic energy reservoir theta_star *
omega(y0) that back-reacts on the slow coordinate through the force
-theta_star * omega'(y0); the limit phase phi0 accumulates omega(y0) and
is the clock against which all oscillatory structure is measured.  The
limit is the leading order of the one slow solve, columns 0-2 of
expansion.solve_expansion.
"""

from __future__ import annotations

from .expansion import solve_expansion
from .integrate import Trajectory
from .model import FrequencyModel, SystemParams


def solve_homogenized(params: SystemParams, fm: FrequencyModel) -> Trajectory:
    """The limit system over [0, horizon_T], states [phi0, y0, p0]: a view of
    the joint expansion solve.  Dense output is per column, so it samples to
    the bits of that solve's first three columns."""
    traj = solve_expansion(params, fm)
    return Trajectory(traj.times, traj.states[:, :3], traj.derivs[:, :3], traj.meta)
