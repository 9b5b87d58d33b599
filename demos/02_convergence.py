"""Measure convergence orders of the two-term expansion over an epsilon ladder."""

import numpy as np

import fastslow as fs

fm = fs.make_frequency("sine", (2.0, 1.0))
params = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)
epsilons = [0.04, 0.02, 0.01, 0.005]

# the eps-independent expansion, solved once and sampled on the output grid
grid = np.linspace(0.0, params.horizon_T, 2001)
base, corr = fs.eval_expansion(fs.solve_expansion(params, fm), grid)

# one reference run per epsilon, each tagged with its own step-halving error
runs = ((eps, fs.reference_run(params, fm, eps, reference_factor=80)) for eps in epsilons)
rep = fs.residual_norms(params, fm, grid, base, corr, runs)

##### residual ladder

# leading family: finite-eps trajectory minus homogenized limit, O(eps^2)
# except theta, where the first oscillatory corrector enters at O(eps);
# 'first' adds that corrector back, 'second' is the full reconstruction
print("residual sup norms over t in [0, 1]")
print(f"{'eps':>7} {'y_leading':>11} {'p_leading':>11} {'phi_leading':>12} "
      f"{'theta_first':>12} {'y_second':>11} {'E drift':>10}")
for i, eps in enumerate(epsilons):
    print(f"{eps:7.3f} {rep.families['leading']['y'][i]:11.3e} "
          f"{rep.families['leading']['p'][i]:11.3e} "
          f"{rep.families['leading']['phi'][i]:12.3e} "
          f"{rep.families['first']['theta'][i]:12.3e} "
          f"{rep.families['second']['y'][i]:11.3e} "
          f"{rep.energy_drift[i]:10.2e}")

##### fitted orders, three smallest epsilons

print()
print("log-log slopes (expect about 2 for every column)")
fit = slice(-3, None)
eps_fit = list(epsilons[fit])
for fam, var in [("leading", "y"), ("leading", "p"), ("leading", "phi"),
                 ("first", "theta")]:
    order, r2 = fs.estimate_order(eps_fit, rep.families[fam][var][fit])
    print(f"  {var}_{fam:<8} order {order:5.3f}   R^2 {r2:.6f}")

# the second family divided by eps^2 should still shrink with eps,
# which is what separates a genuine second-order expansion from a lucky fit
print()
print("second-family residuals normalized by eps^2, decreasing down the ladder")
for i, eps in enumerate(epsilons):
    n = rep.normalized["second"]
    print(f"  eps {eps:5.3f}: y {n['y'][i]:.3e}  p {n['p'][i]:.3e}  "
          f"phi {n['phi'][i]:.3e}  theta {n['theta'][i]:.3e}")
