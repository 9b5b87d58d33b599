"""The mirror symmetry y -> -y, omega(y) -> omega(-y) of the equations of motion.

H = eta^2/2 + zeta^2/2 + omega(y)^2 z^2/(2 eps^2) keeps its form when y, its
momentum and the odd part of omega change sign: sine (a, b) becomes (a, -b),
and Fourier's sine coefficients b_k change sign.  Every operation of the lab
commutes with negation in IEEE arithmetic (sin is odd, cos even), so the
mirrored runs are the exact mirror images: the odd columns negate and the
others stay, value for value, through the thermodynamic kernels too.
"""

import numpy as np
import pytest

import fastslow as fs
from fastslow import lab

# (preset, coefficients, y*, p*, u*) and the mirrored coefficients
_CASES = {
    "sine": (("sine", (2.0, 1.0), 0.3, 1.0, 1.0), (2.0, -1.0)),
    "fourier-B": (("fourier", (3.0, 0.5, 0.5, 0.3, -0.4), 0.0, -0.7, 1.5),
                  (3.0, 0.5, -0.5, 0.3, 0.4)),
}


@pytest.fixture(params=list(_CASES), scope="module")
def pair(request):
    """(params, fm) of a case and of its mirror image."""
    (preset, coeffs, y_star, p_star, u_star), mirrored = _CASES[request.param]
    params = fs.SystemParams(y_star=y_star, p_star=p_star, u_star=u_star, horizon_T=1.0)
    image = fs.SystemParams(y_star=-y_star, p_star=-p_star, u_star=u_star, horizon_T=1.0)
    return (params, fs.make_frequency(preset, coeffs)), (image, fs.make_frequency(preset, mirrored))


def _assert_mirrored(got, want, odd):
    """got is want with the columns in odd negated, the others unchanged."""
    sign = np.ones(want.shape[-1])
    sign[list(odd)] = -1.0
    assert np.array_equal(got, want * sign)


def test_reference_run_is_the_mirror_image(pair):
    (params, fm), (image, fm_image) = pair
    ref = fs.reference_run(params, fm, 0.04)
    mirror = fs.reference_run(image, fm_image, 0.04)
    assert np.array_equal(mirror.times, ref.times)
    # (phi, theta, y, p): y and p negate, phi and theta stay
    _assert_mirrored(mirror.states, ref.states, odd=(2, 3))
    _assert_mirrored(mirror.derivs, ref.derivs, odd=(2, 3))


def test_slow_solve_and_correctors_are_the_mirror_image(pair):
    (params, fm), (image, fm_image) = pair
    traj, mirror = fs.solve_expansion(params, fm), fs.solve_expansion(image, fm_image)
    assert np.array_equal(mirror.times, traj.times)
    # (phi0, y0, p0, phi2_bar, theta2_bar, y2_bar, p2_bar)
    _assert_mirrored(mirror.states, traj.states, odd=(1, 2, 5, 6))

    grid = np.linspace(0.0, 1.0, 2001)
    theta_star = fs.derived_constants(params, fm).theta_star
    assert fs.derived_constants(image, fm_image).theta_star == theta_star
    cvs = []
    for t, f in ((traj, fm), (mirror, fm_image)):
        base, corr = fs.eval_expansion(t, grid)
        cvs.append(fs.correctors(base, corr.phi2_bar, 0.005, f, theta_star))
    # (theta1, phi2, y2, p2, theta2): y2 and p2 negate
    _assert_mirrored(np.transpose(cvs[1]), np.transpose(cvs[0]), odd=(2, 3))


# fields that negate under the mirror; every other field stays
_ODD_FIELDS = {"F0", "F2_bar", "y2_bar", "p2_bar", "dE2_dp0"}


def test_thermo_kernels_are_the_mirror_image(pair):
    grid = np.linspace(0.0, 1.0, 2001)
    records = []
    for params, f in pair:
        dc = fs.derived_constants(params, f)
        ts = dc.theta_star
        base, corr = fs.eval_expansion(fs.solve_expansion(params, f), grid)
        cv = fs.correctors(base, corr.phi2_bar, 0.005, f, ts)
        bundle = fs.averaged_energy_bundle(base, corr, f, dc)
        records.append({
            "expand_thermo": fs.expand_thermo(base, corr, ts, f)._asdict(),
            "energy_expansion": fs.energy_expansion(base, corr, cv, 0.005, ts, f)._asdict(),
            "averaged_rhs": fs.averaged_rhs(corr, base, f, ts)._asdict(),
            "averaged_action_identity": {
                "residual": fs.expansion.averaged_action_identity(base, corr, f, ts)},
            # dE2_dy0 is left out: numpy's power need not be odd, (-x)**3 != -(x**3)
            "averaged_energy_bundle": {name: getattr(bundle, name) for name in
                                       ("S2_doublebar_closed", "E2_bar", "dE2_dp0")},
        })
    for kernel, fields in records[0].items():
        for name, value in fields.items():
            sign = -1.0 if name in _ODD_FIELDS else 1.0
            assert np.array_equal(records[1][kernel][name], sign * value), (kernel, name)


# (preset, coefficients) of the default config and of Fourier B
_FIELD_CASES = {"sine": ("sine", (2.0, 1.0)), "fourier-B": ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4))}


@pytest.mark.parametrize("case", list(_FIELD_CASES))
def test_both_fields_are_time_reversible_on_the_check_lattice(case):
    # f(R x) = -R f(x), with R(phi, theta, y, p) = (-phi, theta, y, -p) and
    # R(y, eta, z, zeta) = (y, -eta, z, -zeta), on check's 1,000 states, each with its
    # own epsilon; the sign flips are exact, through the phase reduction too
    fm = fs.make_frequency(*_FIELD_CASES[case])
    s, e = lab._identity_states(1e-3)
    c = fs.from_action_angle(s, e, fm)
    for x, xc, eps in zip(np.c_[s.phi, s.theta, s.y, s.p].tolist(),
                          np.c_[c.y, c.eta, c.z, c.zeta].tolist(), e.tolist()):
        phi, theta, y, p = x
        f = fs.action_angle_field(eps, fm)
        d_phi, d_theta, d_y, d_p = f(phi, theta, y, p)
        assert f(-phi, theta, y, -p) == (d_phi, -d_theta, -d_y, d_p)
        yc, eta, z, zeta = xc
        g = fs.cartesian_field(eps, fm)
        g_y, g_eta, g_z, g_zeta = g(yc, eta, z, zeta)
        assert g(yc, -eta, z, -zeta) == (-g_y, g_eta, -g_z, g_zeta)


@pytest.mark.parametrize("eps", [0.04, 0.005])
def test_rk4_runs_scale_exactly_in_time(eps):
    # doubling every frequency coefficient, p* and u* and halving the horizon runs
    # the same motion twice as fast: the fast step halves with 1/omega, times halve,
    # phi, y and z stay, theta, p, eta and zeta double and every energy quadruples,
    # bit for bit, since every product scales by a power of two
    runs = []
    for lam in (1.0, 2.0):
        fm = fs.make_frequency("sine", (2.0 * lam, lam))
        params = fs.SystemParams(y_star=0.0, p_star=lam, u_star=lam, horizon_T=1.0 / lam)
        theta_star = fs.derived_constants(params, fm).theta_star
        h = fm.fast_step(eps, fs.integrate.STEP_FACTOR)
        aa = fs.integrate_fixed(fs.action_angle_field(eps, fm),
                                np.array([0.0, theta_star, 0.0, lam]), params.horizon_T, h)
        cart = fs.integrate_fixed(fs.cartesian_field(eps, fm),
                                  np.array([0.0, lam, 0.0, lam]), params.horizon_T, h)
        energies = (fs.energy_action_angle(fs.ActionAngleState(*aa.states.T), eps, fm),
                    *fs.energy_cartesian(fs.CartesianState(*cart.states.T), eps, fm))
        runs.append((aa, cart, energies))
    (aa, cart, energies), (aa2, cart2, energies2) = runs
    for run, scaled in ((aa, aa2), (cart, cart2)):
        assert np.array_equal(scaled.times, 0.5 * run.times)
    # (phi, theta, y, p) and (y, eta, z, zeta)
    assert np.array_equal(aa2.states, aa.states * [1.0, 2.0, 1.0, 2.0])
    assert np.array_equal(cart2.states, cart.states * [1.0, 2.0, 1.0, 2.0])
    for e, e2 in zip(energies, energies2):
        assert np.array_equal(e2, 4.0 * e)


# (p*, u*) at y* = 0 of the default config and of Fourier B
_SLOW_CASES = {"sine": (1.0, 1.0), "fourier-B": (-0.7, 1.5)}


@pytest.mark.parametrize("case", list(_SLOW_CASES))
def test_slow_field_is_time_reversible_at_the_solve_nodes(case):
    # f(t, R x) = -R f(t, x) with R = diag(-1, 1, -1, -1, 1, 1, -1) on (phi0, y0,
    # p0, phi2_bar, theta2_bar, y2_bar, p2_bar), bitwise at every 7th node of the
    # slow solve: the field is even in y0 and in the averaged layer's
    # theta2_bar and y2_bar, odd in p0 and p2_bar
    fm = fs.make_frequency(*_FIELD_CASES[case])
    params = fs.SystemParams(y_star=0.0, p_star=_SLOW_CASES[case][0],
                             u_star=_SLOW_CASES[case][1], horizon_T=1.0)
    traj = fs.solve_expansion(params, fm)
    f = fs.expansion.expansion_field(params, fm)
    R = (-1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0)

    def reflect(v):
        return tuple(r * c for r, c in zip(R, v))
    states = traj.states[::7].tolist()
    assert len(states) == 72
    for t, x in zip(traj.times[::7].tolist(), states):
        assert f(t, reflect(x)) == tuple(-c for c in reflect(f(t, x)))


@pytest.mark.parametrize("case", list(_SLOW_CASES))
def test_slow_layer_scales_in_time(case):
    # lambda = 2: doubling every frequency coefficient, p* and u* and halving the
    # horizon runs the slow layer twice as fast; on each solve's own 2,001-point
    # grid p0, theta2_bar and p2_bar double and the rest stay.  Not bitwise, as
    # the RK4 runs are: SLOW_TOL and SLOW_MAX_STEP do not scale, so the doubled
    # solve takes other steps.  Within 1e-10 of each column's largest magnitude
    preset, coeffs = _FIELD_CASES[case]
    p_star, u_star = _SLOW_CASES[case]
    layers = []
    for lam in (1.0, 2.0):
        fm = fs.make_frequency(preset, tuple(lam * c for c in coeffs))
        params = fs.SystemParams(y_star=0.0, p_star=lam * p_star, u_star=lam * u_star,
                                 horizon_T=1.0 / lam)
        grid = np.linspace(0.0, params.horizon_T, 2001)
        layers.append(fs.sample(fs.solve_expansion(params, fm), grid))
    # (phi0, y0, p0, phi2_bar, theta2_bar, y2_bar, p2_bar)
    want = layers[0] * [1.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(layers[1] - want), axis=0) <= 1e-10 * scale)
