"""Structural identities the implementation must satisfy exactly.

None of these involve integration error.  They hold pointwise at any
state, so random states make good probes, and a deliberately broken
variant shows each check has teeth.
"""

import numpy as np

import fastslow as fs

rng = np.random.default_rng(7)
fm = fs.make_frequency("sine", (2.0, 1.0))
params = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)
dc = fs.derived_constants(params, fm)
eps = 0.01

##### two algebraic forms of the same vector field

# one form writes the trig factors out, the other assembles the rhs from
# total derivatives of log omega along the flow; they must agree to
# rounding at every state
worst = 0.0
for _ in range(500):
    s = fs.ActionAngleState(phi=rng.uniform(-3, 3), theta=rng.uniform(0.05, 2.0),
                            y=rng.uniform(-2, 2), p=rng.uniform(-2, 2))
    a = fs.action_angle_rhs(s, eps, fm)
    b = fs.action_angle_rhs_composed(s, eps, fm)
    worst = max(worst, abs(a.phi - b.phi), abs(a.theta - b.theta),
                abs(a.y - b.y), abs(a.p - b.p))
print(f"rhs form equivalence, 500 random states: max gap {worst:.2e}")

##### chart changes invert each other

worst = 0.0
for _ in range(200):
    c = fs.CartesianState(y=rng.uniform(-2, 2), eta=rng.uniform(-2, 2),
                          z=rng.uniform(-0.5, 0.5) * eps, zeta=rng.uniform(-2, 2))
    back = fs.from_action_angle(fs.to_action_angle(c, eps, fm), eps, fm)
    worst = max(worst, abs(back.y - c.y), abs(back.eta - c.eta),
                abs(back.z - c.z), abs(back.zeta - c.zeta))
print(f"chart round trip, 200 random states:     max gap {worst:.2e}")

# energy must not care which chart evaluates it
c = fs.CartesianState(y=0.3, eta=0.9, z=0.4 * eps, zeta=1.1)
ea = fs.energy_action_angle(fs.to_action_angle(c, eps, fm), eps, fm)
ec = sum(fs.energy_cartesian(c, eps, fm))  # E_perp + E_par
print(f"energy across charts:                    gap {abs(ea - ec):.2e}")

##### first-order energy cancellation

# the oscillator's first-order energy and the slow kinetic shear are
# computed through different correctors yet cancel identically; flipping
# the sign of the action corrector must destroy this
grid = np.linspace(0.0, 1.0, 2001)
run = fs.solve_expansion(params, fm)
base, corr = fs.eval_expansion(run, grid)
cv = fs.correctors(base, corr.phi2_bar, eps, fm, dc.theta_star)
ex = fs.energy_expansion(base, corr, cv, eps, dc.theta_star, fm)
e1 = np.max(np.abs(ex.E1_perp_osc + ex.E1_par_osc))
e1_broken = np.max(np.abs(-ex.E1_perp_osc + ex.E1_par_osc))
print(f"first-order energy cancellation:         sup {e1:.2e}")
print(f"  same check with the sign flipped:      sup {e1_broken:.2e}  (control)")

##### a frequency that does not move

# constant omega decouples the oscillator: every corrector is zero and
# the slow motion is free flight
fm0 = fs.make_frequency("constant", (2.0,))
p0 = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)
run0 = fs.solve_expansion(p0, fm0)
base0, corr0 = fs.eval_expansion(run0, grid)
cv0 = fs.correctors(base0, corr0.phi2_bar, eps, fm0, fs.derived_constants(p0, fm0).theta_star)
sup = max(np.max(np.abs(cv0.theta1)), np.max(np.abs(cv0.y2)),
          np.max(np.abs(cv0.p2)), np.max(np.abs(cv0.theta2)),
          np.max(np.abs(corr0.y2_bar)), np.max(np.abs(corr0.p2_bar)))
print(f"constant omega, all corrections:         sup {sup:.2e}")
print(f"  free flight check |y0(1) - 1|:         {abs(base0.y0[-1] - 1.0):.2e}")
