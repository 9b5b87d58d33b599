"""Acceptance gate: every headline property of the laboratory, one test per
criterion, at its stated tolerance, on the standard desk-scale configuration
(omega = 2 + sin y, y* = 0, p* = 1, u* = 1, T = 1, eps in {0.04, 0.02, 0.01,
0.005}).  Each test records a PASS/FAIL line that is echoed after the run.
"""

import math

import numpy as np
import pytest

import fastslow as fs
from fastslow.lab import RunConfig, two_scale_error_table

EPSILONS = (0.04, 0.02, 0.01, 0.005)


def record(acceptance_lines, num, name, ok, detail):
    acceptance_lines.append(
        f"[C{num:02d} {name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def reference_runs(reference_run):
    return {eps: reference_run(eps) for eps in EPSILONS}


@pytest.fixture(scope="module")
def sweep_report(params, fm, expansion_run, reference_runs):
    traj, grid, base, corr = expansion_run
    return fs.residual_norms(params, fm, grid, base, corr, reference_runs.items())


@pytest.fixture(scope="module")
def corrector_sets(expansion_run, fm, dc):
    traj, grid, base, corr = expansion_run
    return {eps: fs.correctors(base, corr.phi2_bar, eps, fm, dc.theta_star)
            for eps in EPSILONS}


@pytest.fixture(scope="module")
def thermo_min_eps(expansion_run, corrector_sets, fm, dc):
    traj, grid, base, corr = expansion_run
    eps = min(EPSILONS)
    cv = corrector_sets[eps]
    th = fs.expand_thermo(base, corr, cv, dc.theta_star, fm)
    ex = fs.energy_expansion(base, corr, cv, eps, dc.theta_star, fm)
    bundle = fs.averaged_energy_bundle(base, corr, fm, dc)
    return th, ex, bundle


def test_c01_energy_conservation(sweep_report, reference_runs, expansion_run,
                                 acceptance_lines):
    grid = expansion_run[1]
    drift = sweep_report.energy_drift
    theta_min = [np.min(fs.sample(run, grid, component=1)) for run in reference_runs.values()]
    ok = bool(np.all(drift <= 1e-8)) and bool(np.all(np.array(theta_min) > 0))
    ok = ok and all(run.meta["richardson_error"] <= 1e-8 for run in reference_runs.values())
    record(acceptance_lines, 1, "energy-conservation", ok,
           "sup|E-1| = " + " ".join(f"{d:.2e}" for d in drift) + " (tol 1e-8)")


def test_c02_leading_order_convergence(sweep_report, acceptance_lines):
    details = []
    ok = True
    for var in ("y", "p"):
        order, r2 = fs.estimate_order(EPSILONS, sweep_report.families["leading"][var])
        ok = ok and order >= 1.9 and r2 >= 0.98
        details.append(f"{var}: order={order:.3f} R2={r2:.5f}")
    record(acceptance_lines, 2, "leading-order-convergence", ok,
           "; ".join(details) + " (need >=1.9, R2>=0.98)")


def test_c03_first_order_action_corrector(sweep_report, acceptance_lines):
    order, r2 = fs.estimate_order(EPSILONS, sweep_report.families["first"]["theta"])
    ok = order >= 1.9
    record(acceptance_lines, 3, "first-order-action-corrector", ok,
           f"order={order:.3f} R2={r2:.5f} (need >=1.9)")


def test_c04_second_order_residuals_decrease(sweep_report, acceptance_lines):
    ok = True
    details = []
    for var in ("y", "p", "phi", "theta"):
        vals = sweep_report.normalized["second"][var]
        ok = ok and bool(np.all(np.diff(vals) < 0))
        details.append(f"{var}: " + "->".join(f"{v:.2e}" for v in vals))
    record(acceptance_lines, 4, "second-order-residuals", ok,
           "sup/eps^2 " + "; ".join(details))


def test_c05_first_order_energy_cancellation(expansion_run, corrector_sets,
                                             fm, dc, acceptance_lines):
    traj, grid, base, corr = expansion_run
    worst = 0.0
    for eps, cv in corrector_sets.items():
        ex = fs.energy_expansion(base, corr, cv, eps, dc.theta_star, fm)
        worst = max(worst, float(np.max(np.abs(ex.E1_perp_osc + ex.E1_par_osc))))
    record(acceptance_lines, 5, "first-order-energy-cancellation",
           worst <= 1e-13, f"sup = {worst:.2e} (tol 1e-13)")


def test_c06_averaged_action_identity(expansion_run, fm, dc, acceptance_lines):
    traj, grid, base, corr = expansion_run
    w, w1, _, _ = fm.derivs(base.y0)
    dyL = w1 / w
    resid = (corr.theta2_bar + (base.p0 / w) * corr.p2_bar
             + dc.theta_star * dyL * corr.y2_bar
             + dc.theta_star**2 * dyL * dyL / (16.0 * w)
             - dc.theta_star * (base.p0 * dyL) ** 2 / (4.0 * w * w))
    worst = float(np.max(np.abs(resid)))
    record(acceptance_lines, 6, "averaged-action-identity", worst <= 1e-8,
           f"sup = {worst:.2e} (tol 1e-8)")


def test_c07_averaged_second_order_energy_vanishes(thermo_min_eps,
                                                   acceptance_lines):
    th, ex, bundle = thermo_min_eps
    worst = float(np.max(np.abs(ex.E2_bar)))
    record(acceptance_lines, 7, "averaged-energy-vanishes", worst <= 1e-8,
           f"sup = {worst:.2e} (tol 1e-8)")


def test_c08_closed_form_entropy(expansion_run, thermo_min_eps, dc,
                                 acceptance_lines):
    traj, grid, base, corr = expansion_run
    th, ex, bundle = thermo_min_eps
    gap = float(np.max(np.abs(corr.theta2_bar
                              - dc.theta_star * bundle.S2_doublebar_closed)))
    exact0 = (corr.theta2_bar[0] == -0.00634765625
              and dc.theta_star * bundle.S2_doublebar_closed[0] == -0.00634765625)
    ok = gap <= 1e-8 and exact0
    record(acceptance_lines, 8, "closed-form-entropy", ok,
           f"sup gap = {gap:.2e} (tol 1e-8); both routes give "
           f"-0.00634765625 at t=0: {exact0}")


def test_c09_hamilton_form(expansion_run, thermo_min_eps, fm, dc,
                           acceptance_lines):
    traj, grid, base, corr = expansion_run
    th, ex, bundle = thermo_min_eps
    rhs = fs.averaged_rhs(corr, base, fm, dc.theta_star)
    ry = float(np.max(np.abs(rhs.y2_bar - bundle.dE2_dp0)))
    rp = float(np.max(np.abs(rhs.p2_bar + bundle.dE2_dy0)))
    ok = max(ry, rp) <= 1e-7
    record(acceptance_lines, 9, "hamilton-form", ok,
           f"|dy2/dt - dE/dp| = {ry:.2e}, |dp2/dt + dE/dy| = {rp:.2e} (tol 1e-7)")


def test_c10_first_law(expansion_run, thermo_min_eps, acceptance_lines):
    traj, grid, base, corr = expansion_run
    th, ex, bundle = thermo_min_eps
    dt = grid[1] - grid[0]
    assert dt == 5e-4
    lead = fs.check_first_law(ex.E0_perp, base.y0, th.S0, th.F0, th.T0, dt)
    second = fs.check_first_law(ex.E2_perp_bar, corr.y2_bar, th.S2_doublebar,
                                th.F0, th.T0, dt,
                                second_order_work=(th.F2_bar, base.y0))
    ok = lead.max_residual <= 1e-8 and second.max_residual <= 1e-6
    record(acceptance_lines, 10, "first-law", ok,
           f"leading = {lead.max_residual:.2e} (tol 1e-8), "
           f"second = {second.max_residual:.2e} (tol 1e-6)")


def test_c11_hertz_oracles(fm, acceptance_lines):
    rng = np.random.default_rng(20260819)
    worst_t = 0.0
    worst_v = 0.0
    for _ in range(10):
        E = float(rng.uniform(0.05, 2.0))
        y = float(rng.uniform(-3.0, 3.0))
        worst_t = max(worst_t, abs(fs.hertz_temperature_oracle(E, y, fm) - E))
        cl = fs.phase_space_volume(E, y, fm)
        qu = fs.phase_space_volume(E, y, fm, method="area-quadrature")
        worst_v = max(worst_v, abs(qu - cl) / cl)
    exact_pi = fs.phase_space_volume(1.0, 0.0, fm) == math.pi
    ok = worst_t <= 1e-10 and worst_v <= 0.005 and exact_pi
    record(acceptance_lines, 11, "hertz-oracles", ok,
           f"temperature = {worst_t:.2e} (tol 1e-10), "
           f"volume quadrature = {worst_v:.2e} (tol 5e-3), "
           f"closed form at (1,0) = pi: {exact_pi}")


def test_c12_equipartition(reference_runs, fm, acceptance_lines):
    reps = [fs.equipartition_check(reference_runs[eps], eps, fm)
            for eps in EPSILONS]
    gaps = [r.gap_max for r in reps]
    xi = [r.xi_sup for r in reps]
    order, _ = fs.estimate_order(EPSILONS, xi)
    ok = bool(np.all(np.diff(gaps) < 0)) and order >= 0.9
    ok = ok and not any(r.any_slid for r in reps)
    record(acceptance_lines, 12, "equipartition", ok,
           "gaps " + "->".join(f"{g:.2e}" for g in gaps)
           + f"; virial order = {order:.3f} (need >=0.9)")


def test_c13_two_scale_convergence(reference_runs, fm, params,
                                   acceptance_lines):
    table = two_scale_error_table(RunConfig(), fm, params, reference_runs.items())
    ok = True
    details = []
    for var in ("theta1", "phi2", "y2", "p2", "theta2"):
        seq = [table[eps][var] for eps in EPSILONS]
        ok = ok and bool(np.all(np.diff(seq) < 0))
        details.append(f"{var}: " + "->".join(f"{v:.1e}" for v in seq))
    record(acceptance_lines, 13, "two-scale-convergence", ok, "; ".join(details))


def test_c14_cross_chart_validation(fm, dc, acceptance_lines):
    eps = 0.05
    h = 2 * math.pi * eps / (80 * fm.omega_upper_bound)
    aa = fs.reference_solution(fs.action_angle_field(eps, fm),
                               np.array([0.0, dc.theta_star, 0.0, 1.0]), 1.0, h)
    cart = fs.reference_solution(fs.cartesian_field(eps, fm),
                                 np.array([0.0, 1.0, 0.0, 1.0]), 1.0, h)
    grid = np.linspace(0.0, 1.0, 2001)
    xs = fs.sample(aa, grid)
    cs = fs.sample(cart, grid)
    aa_cs = fs.to_action_angle(fs.CartesianState(*cs.T), eps, fm)
    assert not aa_cs.degenerate.any()
    # the grid resolves the fast oscillation, so the principal angle unwraps
    phi, theta, y, p = eps * np.unwrap(aa_cs.phi / eps), aa_cs.theta, aa_cs.y, aa_cs.p
    sup = {"phi": float(np.max(np.abs(phi - xs[:, 0]))),
           "theta": float(np.max(np.abs(theta - xs[:, 1]))),
           "y": float(np.max(np.abs(y - xs[:, 2]))),
           "p": float(np.max(np.abs(p - xs[:, 3])))}
    ok = max(sup.values()) <= 1e-6
    record(acceptance_lines, 14, "cross-chart-validation", ok,
           " ".join(f"{k}={v:.2e}" for k, v in sup.items()) + " (tol 1e-6)")


def test_c15_degenerate_controls(params, fm, acceptance_lines):
    fmc = fs.make_frequency("constant", (2.0,))
    dcc = fs.derived_constants(params, fmc)
    x0 = np.array([0.0, dcc.theta_star, 0.0, 1.0])
    run = fs.integrate_fixed(fs.action_angle_field(0.01, fmc), x0, 1.0, 1e-3)
    theta_dev = float(np.max(np.abs(run.states[:, 1] - dcc.theta_star)))
    p_dev = float(np.max(np.abs(run.states[:, 3] - 1.0)))
    traj = fs.solve_expansion(params, fmc)
    base, corr = fs.eval_expansion(traj, np.linspace(0.0, 1.0, 201))
    cv = fs.correctors(base, corr.phi2_bar, 0.01, fmc, dcc.theta_star)
    cmax = max(float(np.max(np.abs(getattr(cv, n))))
               for n in ("theta1", "phi2", "y2", "p2", "theta2"))
    cmax = max(cmax, *(float(np.max(np.abs(getattr(corr, n))))
                       for n in ("phi2_bar", "theta2_bar", "y2_bar", "p2_bar")))
    fd = max(fs.finite_difference_report(fm).values())
    ok = theta_dev <= 1e-12 and p_dev <= 1e-12 and cmax <= 1e-12 and fd <= 1e-6
    record(acceptance_lines, 15, "degenerate-controls", ok,
           f"theta dev = {theta_dev:.1e}, p dev = {p_dev:.1e}, "
           f"correctors = {cmax:.1e} (tol 1e-12); derivative FD = {fd:.2e} (tol 1e-6)")
