"""Two-scale unfolding: separate slow drift from the locked fast oscillation."""

import math

import numpy as np

import fastslow as fs

fm = fs.make_frequency("sine", (2.0, 1.0))
params = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)
dc = fs.derived_constants(params, fm)

##### warm-up on a synthetic signal

# with the phase phi0(t) = pi*t the slow variable r is t itself, so the
# signal v = sin(t) + 0.3 sin(2 pi t/eps) should unfold onto the surface
# sin(t) + 0.3 sin(2 pi s): the fast factor riding on the slow drift
clock = fs.integrate_fixed(lambda *x: (math.pi, 0.0, 0.0, 0.0), np.zeros(4),
                           1.0, 1e-3)


def surface(t, s_arr):
    return (np.sin(t) + 0.3 * np.sin(2 * math.pi * s_arr),)


def v(eps, times):
    return (np.sin(times) + 0.3 * np.sin(2 * math.pi * times / eps),)


# one call unfolds the whole ladder: the phase is inverted once for all
ladder = (0.04, 0.02, 0.01)
print("synthetic unfolding of v = sin(t) + 0.3 sin(2 pi t/eps)")
prev = None
for eps, ((err,), info) in zip(ladder, fs.nonlinear_two_scale_error(v, surface, clock,
                                                                    ladder)):
    note = "" if prev is None else f"   ratio {prev / err:5.2f}"
    print(f"  eps {eps:5.3f}: sup gap {err:.3e} over {info['cells']} cells{note}")
    prev = err
print("  (order eps^2: the ratio approaches 4)")

##### the real thing: rescaled action remainder

# the finite-eps action minus its limit, divided by eps, unfolds onto a
# surface in (slow time, fast variable); the claim is that the surface
# converges to the first corrector with 2 phi0/eps replaced by 2 pi s
etraj = fs.solve_expansion(params, fm)


def limit(t, s_arr):
    tt = np.asarray(t).ravel()
    ss = np.asarray(s_arr).ravel()
    base, corr = fs.eval_expansion(etraj, tt)
    b = fs.HomogenizedState(base.phi0[:, None], base.y0[:, None], base.p0[:, None])
    cv = fs.two_scale_limits(b, corr.phi2_bar[:, None], ss[None, :],
                             fm, dc.theta_star)
    return (cv.theta1,)


print()
def u(eps, times):
    # called once per epsilon, so each reference run is made, used and freed
    # before the next
    ref = fs.reference_run(params, fm, eps)
    xs = fs.sample(ref, times)
    return ((xs[:, 1] - dc.theta_star) / eps,)


print("unfolding error of (theta - theta*)/eps against the corrector surface")
prev = None
for eps, ((err,), info) in zip(ladder, fs.nonlinear_two_scale_error(u, limit, etraj,
                                                                    ladder)):
    note = "" if prev is None else f"   ratio {prev / err:5.2f}"
    print(f"  eps {eps:5.3f}: sup error {err:.3e} over {info['cells']} cells{note}")
    prev = err

##### windowed averages kill the locked oscillation

# kinetic minus potential oscillator energy oscillates at twice the fast
# frequency with O(1) amplitude; averaging over whole periods leaves only
# an O(eps^2) remainder, which is the virial statement at this order
print()
print("windowed average of the kinetic-potential gap (8 fast periods per window)")
for eps in (0.02, 0.01):
    ref = fs.reference_run(params, fm, eps)
    rep = fs.equipartition_check(ref, eps, fm)
    print(f"  eps {eps:5.3f}: max |window mean| {rep.gap_max:.3e} "
          f"over {rep.centers.size} centers, raw amplitude about "
          f"{dc.theta_star * fm.omega_upper_bound:.2f}")
