"""The mirror symmetry y -> -y, omega(y) -> omega(-y) of the equations of motion.

H = eta^2/2 + zeta^2/2 + omega(y)^2 z^2/(2 eps^2) keeps its form when y, its
momentum and the odd part of omega change sign: sine (a, b) becomes (a, -b),
and Fourier's sine coefficients b_k change sign.  Every operation of the lab
commutes with negation in IEEE arithmetic (sin is odd, cos even), so the
mirrored runs are the exact mirror images: the odd columns negate and the
others stay, value for value.
"""

import numpy as np
import pytest

import fastslow as fs

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
    ref = fs.reference_run(params, fm, 0.04, 80.0)
    mirror = fs.reference_run(image, fm_image, 0.04, 80.0)
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
