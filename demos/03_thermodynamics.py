"""Thermodynamics of the fast oscillator treated as a one-frequency bath.

The action theta plays the role of entropy carrier: temperature is
theta*omega(y), entropy is log(theta) + const, and the force the bath
exerts on the slow coordinate is theta*omega'(y).  Along the homogenized
flow the action is constant, so dS/dt = 0 and the leading-order energy
balance dE = F dy + T dS holds with dS = 0 (adiabatic process).  The
interesting statement appears at second order, where the doubly averaged
entropy coefficient starts moving and the balance still closes once the
second-order force does the bookkeeping.
"""

import numpy as np

import fastslow as fs
from fastslow.thermo import fd4_derivative

fm = fs.make_frequency("sine", (2.0, 1.0))
params = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)
dc = fs.derived_constants(params, fm)
eps = 0.005

grid = np.linspace(0.0, 1.0, 2001)
dt = grid[1] - grid[0]
run = fs.solve_expansion(params, fm)
base, corr = fs.eval_expansion(run, grid)
cv = fs.correctors(base, corr.phi2_bar, eps, fm, dc.theta_star)

th = fs.expand_thermo(base, corr, cv, dc.theta_star, fm)
ex = fs.energy_expansion(base, corr, cv, eps, dc.theta_star, fm)
bundle = fs.averaged_energy_bundle(base, corr, fm, dc)

print("state functions at a few times (leading order)")
print(f"{'t':>5} {'T0':>10} {'F0':>10} {'S0':>4} {'S2_doublebar':>13}")
for i in (0, 500, 1000, 1500, 2000):
    print(f"{grid[i]:5.2f} {th.T0[i]:10.6f} {th.F0[i]:10.6f} "
          f"{th.S0[i]:4.1f} {th.S2_doublebar[i]:13.9f}")

##### energy balance, order by order

lead = fs.check_first_law(ex.E0_perp, base.y0, th.S0, th.F0, th.T0, dt)
print()
print(f"leading order:  max |dE0_perp - F0 dy0 - T0 dS0|        = "
      f"{np.max(np.abs(lead)):.3e}")

# at second order the balance needs the second-order force
# F2 = omega' theta2_bar + theta* omega'' y2_bar acting through dy0;
# without it the residual is the quasi-static defect, order 1e-2 here
naive = fs.check_first_law(ex.E2_perp_bar, corr.y2_bar, th.S2_doublebar,
                           th.F0, th.T0, dt)
second = naive - th.F2_bar * fd4_derivative(base.y0, dt)
print(f"second order:   max residual with F2 work term          = "
      f"{np.max(np.abs(second)):.3e}")
print(f"second order:   max residual without it (for contrast)  = "
      f"{np.max(np.abs(naive)):.3e}")

##### identities the averaged layer satisfies

print()
print(f"averaged E2 vanishes:     sup |E2_bar|                = "
      f"{np.max(np.abs(ex.E2_bar)):.3e}")
print(f"entropy closed form:      sup |theta2_bar - theta* S2ddbar(y0,p0)| = "
      f"{np.max(np.abs(corr.theta2_bar - dc.theta_star * bundle.S2_doublebar_closed)):.3e}")
rhs = fs.averaged_rhs(corr, base, fm, dc.theta_star)
print(f"Hamilton form, y2_bar:    sup |d/dt y2_bar - dE2/dp0|  = "
      f"{np.max(np.abs(rhs.y2_bar - bundle.dE2_dp0)):.3e}")
print(f"Hamilton form, p2_bar:    sup |d/dt p2_bar + dE2/dy0|  = "
      f"{np.max(np.abs(rhs.p2_bar + bundle.dE2_dy0)):.3e}")

##### Hertz temperature against direct quadrature

print()
print("temperature = twice the mean kinetic energy over one fast period")
for i in (0, 1000, 2000):
    E_perp = dc.theta_star * fm.derivs(base.y0[i])[0]
    direct = fs.hertz_temperature_oracle(E_perp, base.y0[i], fm)
    print(f"  t={grid[i]:4.2f}: T0 = {th.T0[i]:.8f}   quadrature = {direct:.8f}   "
        f"gap = {abs(th.T0[i] - direct):.1e}")
vol = fs.phase_space_volume(0.5, 0.0, fm)
print(f"enclosed phase-plane area at E_perp=1/2, omega=2: {vol:.6f} "
      f"(= 2 pi theta = {np.pi * 0.5:.6f})")
