"""Integrate the oscillator at one finite epsilon and watch the action.

The slow coordinate y drags the oscillator frequency omega(y)/eps up and
down; the action theta = E_perp/omega barely moves even though E_perp
itself changes at order one.  The run also checks total energy against
its exact initial value.
"""

import math

import numpy as np

import fastslow as fs

eps = 0.02
fm = fs.make_frequency("sine", (2.0, 1.0))
params = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)
dc = fs.derived_constants(params, fm)

print(f"omega = 2 + sin(y), eps = {eps}")
print(f"initial action theta* = {dc.theta_star}, total energy = {dc.e_star}")

x0 = np.array([0.0, dc.theta_star, params.y_star, params.p_star])
h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
traj = fs.reference_solution(fs.action_angle_field(eps, fm), x0,
                             params.horizon_T, h)
print(f"integrated {traj.times.size} steps, "
      f"step-doubling error tag {traj.meta['richardson_error']:.2e}")

grid = np.linspace(0.0, 1.0, 2001)
xs = fs.sample(traj, grid)
E = fs.energy_action_angle(fs.ActionAngleState(*xs.T), eps, fm)

print(f"energy drift        sup|E - 1|        = {np.max(np.abs(E - 1.0)):.3e}")
print(f"action wander       sup|theta-theta*| = {np.max(np.abs(xs[:, 1] - dc.theta_star)):.3e}"
      f"   (order eps = {eps})")

# the homogenized system replaces the oscillator by the effective
# force -theta* omega'(y); its y should match to order eps^2
htraj = fs.solve_homogenized(params, fm)
hs = fs.sample(htraj, grid)
print(f"slow coordinate gap sup|y - y0|       = {np.max(np.abs(xs[:, 2] - hs[:, 1])):.3e}"
      f"   (order eps^2 = {eps**2})")
print(f"momentum gap        sup|p - p0|       = {np.max(np.abs(xs[:, 3] - hs[:, 2])):.3e}")

# the contrast that makes theta an adiabatic invariant: the oscillator
# energy E_perp = theta*omega swings at order one while theta barely moves
w = fm.derivs(xs[:, 2])[0]
E_perp = xs[:, 1] * w
print(f"E_perp span         max - min         = {E_perp.max() - E_perp.min():.3e}"
      f"   (order one)")
print(f"theta span          max - min         = {xs[:, 1].max() - xs[:, 1].min():.3e}"
      f"   (order eps)")
i = 1000
print(f"snapshot t=0.5: y = {xs[i, 2]:+.6f}, p = {xs[i, 3]:+.6f}, "
      f"theta = {xs[i, 1]:.6f}, E_perp = {xs[i, 1] * w[i]:.6f}")
