"""Frequency profiles, derivatives, and constants fixed by the initial data."""

import math

import numpy as np
import pytest

import fastslow as fs


def test_sine_preset_derivatives_at_origin(fm):
    # omega = 2 + sin(y): values at 0 are 2, 1, 0, -1
    assert fm.derivs(0.0) == (2.0, 1.0, 0.0, -1.0)
    assert fm.omega_lower_bound == 1.0
    assert fm.omega_upper_bound == 3.0


def test_fourier_preset_derivatives_at_origin():
    fmf = fs.make_frequency("fourier", (2.0, 0.25, 0.25))
    assert fmf.derivs(0.0) == (2.25, 0.25, -0.25, -0.25)
    assert fmf.omega_lower_bound == 1.5
    assert fmf.omega_upper_bound == 2.5


def test_constant_preset():
    fmc = fs.make_frequency("constant", (2.0,))
    y = np.linspace(-5, 5, 11)
    w, w1, _, _ = fmc.derivs(y)
    assert np.all(w == 2.0)
    assert np.all(w1 == 0.0)
    assert fmc.omega_lower_bound == fmc.omega_upper_bound == 2.0


@pytest.mark.parametrize("preset,coeffs", [
    ("sine", (1.0, 1.0)),          # a - |b| = 0
    ("sine", (1.0, -2.0)),
    ("constant", (0.0,)),
    ("constant", (-1.0,)),
    ("fourier", (1.0, 0.5, 0.5)),  # a0 - sum = 0
    ("fourier", (2.0, 1.0)),       # even length
    ("nope", (1.0,)),
])
def test_rejects_nonpositive_or_malformed(preset, coeffs):
    with pytest.raises(ValueError):
        fs.make_frequency(preset, coeffs)


@pytest.mark.parametrize("preset, coeffs", [
    ("constant", (2.0,)),
    ("sine", (2.0, 1.0)),
    ("fourier", (2.0, 0.25, 0.25, -0.3, 0.1)),
])
def test_derivs_follow_the_shape_of_y(preset, coeffs):
    fmx = fs.make_frequency(preset, coeffs)
    y = np.linspace(-3.0, 3.0, 7) if preset != "constant" else np.zeros(3)
    for v in fmx.derivs(y):
        assert isinstance(v, np.ndarray) and v.shape == y.shape
    assert all(np.ndim(v) == 0 for v in fmx.derivs(0.5))


def test_array_evaluation_matches_scalar():
    # every preset, and Fourier with two harmonics; the sign of zero counts,
    # so a float call has the bits of the array call
    y = np.concatenate([np.linspace(-7, 7, 57), [-0.0, 0.0]])
    for preset, coeffs in [("sine", (2.0, 1.0)), ("constant", (2.0,)),
                           ("fourier", (2.0, 0.25, 0.25)),
                           ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4))]:
        fmx = fs.make_frequency(preset, coeffs)
        for k, v in enumerate(fmx.derivs(y)):
            want = np.array([fmx.derivs(float(e))[k] for e in y])
            assert np.array_equal(v, want), (preset, coeffs, k)
            assert np.array_equal(np.signbit(v), np.signbit(want)), (preset, coeffs, k)


def _four_method_arithmetic(preset, c, y):
    """(omega, omega', omega'', omega''') as the former per-derivative
    methods computed them: their derivs for the sine preset, and omega,
    domega, d2omega, d3omega one after the other for fourier and for
    constant, a Fourier series with no harmonics."""
    xp = np if isinstance(y, np.ndarray) else math
    if preset == "sine":
        s = xp.sin(y)
        co = xp.cos(y)
        return c[0] + c[1] * s, c[1] * co, -c[1] * s, -c[1] * co
    harmonics = [(j, (j + 1) // 2) for j in range(1, len(c), 2)]
    w = c[0] * (np.ones_like(np.asarray(y, float)) if isinstance(y, np.ndarray) else 1.0)
    for j, kk in harmonics:
        w = w + c[j] * xp.cos(kk * y) + c[j + 1] * xp.sin(kk * y)
    w1 = 0.0 * y
    for j, kk in harmonics:
        w1 = w1 + kk * (-c[j] * xp.sin(kk * y) + c[j + 1] * xp.cos(kk * y))
    w2 = 0.0 * y
    for j, kk in harmonics:
        w2 = w2 - kk * kk * (c[j] * xp.cos(kk * y) + c[j + 1] * xp.sin(kk * y))
    w3 = 0.0 * y
    for j, kk in harmonics:
        w3 = w3 + kk**3 * (c[j] * xp.sin(kk * y) - c[j + 1] * xp.cos(kk * y))
    return w, w1, w2, w3


def _same_bits(a, b):
    return (type(a) is type(b) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("preset, coeffs", [
    ("constant", (2.0,)),
    ("sine", (2.0, 1.0)),
    ("fourier", (2.0,)),
    ("fourier", (2.0, 0.0, 0.0)),  # signed zeros reach the sums
    ("fourier", (2.0, 0.25, 0.25)),
    ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4)),
])
def test_preset_routines_keep_the_four_method_arithmetic(preset, coeffs):
    fmx = fs.make_frequency(preset, coeffs)
    ys = np.array([-11.5, -math.pi, -2.0, -0.3, -0.0, 0.0, 0.7, 3.0, 9.25])
    bound = fmx.scalar_derivs()
    for y in [float(v) for v in ys]:
        want = _four_method_arithmetic(preset, coeffs, y)
        for got in (fmx.derivs(y), bound(y)):
            assert all(_same_bits(g, w) for g, w in zip(got, want, strict=True)), y
    want = _four_method_arithmetic(preset, coeffs, ys)
    assert all(_same_bits(g, w) for g, w in zip(fmx.derivs(ys), want, strict=True))


@pytest.mark.parametrize("coeffs", [(2.0, 1.0), (2.0, -0.5), (2.0, 0.0), (2.0, -0.0)])
def test_sine_routine_keeps_the_bits_of_its_formula(coeffs):
    # bytes, so that the sign of a nan and of a zero count: (-b)*s, not -(b*s)
    def same(got, want):
        return all(type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
                   for g, w in zip(got, want, strict=True))

    unchecked = lambda mask: True
    ys = [-11.5, -math.pi, -0.3, -0.0, 0.0, 0.7, 3.0, 1e300, math.nan]
    scalar = fs.model._sine(coeffs, -math.inf, math.sin, math.cos, unchecked)
    for y in ys:
        assert same(scalar(y), _four_method_arithmetic("sine", coeffs, y)), y
    arr = np.array(ys + [math.inf, -math.inf])
    with np.errstate(invalid="ignore"):
        want = _four_method_arithmetic("sine", coeffs, arr)
        got = fs.model._sine(coeffs, -math.inf, np.sin, np.cos, unchecked)(arr)
    assert same(got, want)


def _fourier_integer_factors(c, y, sin, cos):
    """The Fourier routine as it was before its harmonics were prepared: it
    indexes the raw coefficients and multiplies by the integers k, k*k and
    k**3."""
    w = c[0] * y**0
    w1 = w2 = w3 = 0.0 * y
    for j in range(1, len(c), 2):
        k = (j + 1) // 2
        ck = cos(k * y)
        sk = sin(k * y)
        w = w + c[j] * ck + c[j + 1] * sk
        w1 = w1 + k * (-c[j] * sk + c[j + 1] * ck)
        w2 = w2 - k * k * (c[j] * ck + c[j + 1] * sk)
        w3 = w3 + k**3 * (c[j] * sk - c[j + 1] * ck)
    return w, w1, w2, w3


@pytest.mark.parametrize("coeffs", [
    (2.0,),
    (2.0, 0.0, -0.0),
    (2.0, 0.25, 0.25),
    (3.0, 0.5, 0.5, 0.3, -0.4),
    (9.0, 0.1, -0.2, 0.3, -0.4, 0.5, 0.6, -0.7, 0.8),
])
def test_prepared_fourier_harmonics_keep_the_integer_factor_bits(coeffs):
    def same(got, want):
        # bytes, so that nan matches nan and the sign of zero counts
        return all(type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
                   for g, w in zip(got, want, strict=True))

    # a floor check that always passes, so that nan reaches the comparison
    unchecked = lambda mask: True
    scalar = fs.model._fourier(coeffs, -math.inf, math.sin, math.cos, unchecked)
    ys = [-11.5, -math.pi, -0.3, -0.0, 0.0, 0.7, 3.0, 9.25, 1e300, math.nan,
          math.inf, -math.inf]
    for y in ys:
        try:
            want = _fourier_integer_factors(coeffs, y, math.sin, math.cos)
        except ValueError:  # math.sin(inf)
            with pytest.raises(ValueError):
                scalar(y)
            continue
        assert same(scalar(y), want), y
    arr = np.array(ys)
    with np.errstate(invalid="ignore"):
        want = _fourier_integer_factors(coeffs, arr, np.sin, np.cos)
        got = fs.model._fourier(coeffs, -math.inf, np.sin, np.cos, unchecked)(arr)
    assert same(got, want)


@pytest.mark.parametrize("preset, coeffs", [
    ("constant", (2.0,)), ("sine", (2.0, 1.0)), ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4))])
def test_scalar_and_array_derivs_agree_and_check_the_floor_alike(preset, coeffs):
    fmx = fs.make_frequency(preset, coeffs)
    ys = np.linspace(-7.0, 7.0, 57)
    scalar = fmx.scalar_derivs()
    columns = fmx.derivs(ys)
    # equal values; the constant preset's zero derivatives are 0.0 * y for an
    # array, so their sign follows y's
    for i, y in enumerate(ys.tolist()):
        assert [float(c[i]) for c in columns] == list(scalar(y))
    # a claimed floor above omega at y = 0, and below it at some other y
    w0 = fmx.derivs(0.0)[0]
    bad = fs.FrequencyModel(preset, fmx.coefficients, w0 * (1.0 + 1e-9), fmx.omega_upper_bound)
    messages = set()
    for call in (lambda: bad.derivs(0.0), lambda: bad.scalar_derivs()(0.0),
                 lambda: bad.derivs(ys), lambda: bad.derivs(np.array([0.0]))):
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"frequency fell below its positive floor"}
    if preset != "constant":
        above = ys[columns[0] > w0 * (1.0 + 1e-6)]
        assert above.size and np.all(bad.derivs(above)[0] == fmx.derivs(above)[0])
        assert bad.derivs(float(above[0])) == fmx.derivs(float(above[0]))


def test_frequency_below_its_floor_raises():
    # a claimed floor of 1.5, which 2 + sin(y) breaks at y = -pi/2 (omega = 1)
    bad = fs.FrequencyModel("sine", (2.0, 1.0), 1.5, 3.0)
    y = -math.pi / 2
    assert bad.derivs(0.0)[0] == 2.0
    calls = (lambda: bad.derivs(y),
             lambda: bad.derivs(np.array([0.0, y])),
             lambda: fs.action_angle_field(0.01, bad)(0.0, (0.0, 0.25, y, 1.0)),
             lambda: fs.cartesian_field(0.01, bad)(0.0, (y, 1.0, 0.0, 1.0)))
    for call in calls:
        with pytest.raises(ValueError, match="below its positive floor"):
            call()


def test_derived_constants_exact(params, fm, dc):
    assert dc.theta_star == 0.25
    assert dc.e_star == 1.0
    assert dc.entropy_constant == math.log(4.0)
    assert dc.c_sbarbar2 == -17.0 / 512.0


def test_zero_oscillator_amplitude_warns(fm):
    with pytest.warns(UserWarning):
        p = fs.SystemParams(0.0, 1.0, 0.0, 1.0)
    d = fs.derived_constants(p, fm)
    assert d.theta_star == 0.0
    assert math.isnan(d.entropy_constant)


def test_zero_oscillator_amplitude_warning_names_the_caller():
    with pytest.warns(UserWarning, match="u_star = 0") as caught:
        fs.SystemParams(0.0, 1.0, 0.0, 1.0)
    assert caught[0].filename == __file__


def test_nonpositive_horizon_rejected():
    with pytest.raises(ValueError):
        fs.SystemParams(0.0, 1.0, 1.0, 0.0)


def test_finite_difference_consistency(fm):
    rep = fs.finite_difference_report(fm)
    assert set(rep) == {"domega", "d2omega", "d3omega", "dy2L", "dy3L"}
    assert max(rep.values()) <= 1e-6


def _finite_difference_report_per_point(fm):
    """finite_difference_report as a loop of float calls computed it."""
    ys = np.linspace(-10.0, 10.0, 100)
    h = 1e-5

    def central(f, y):
        return (f(y + h) - f(y - h)) / (2.0 * h)

    def nth(k):
        return lambda y: fm.derivs(y)[k]

    def nth_log(k):  # the k-th y-derivative of log omega, k = 1, 2, 3
        def f(y):
            w, w1, w2, w3 = fm.derivs(y)
            r1 = w1 / w
            r2 = w2 / w
            r3 = w3 / w
            return (r1, r2 - r1 * r1, r3 - 3.0 * r1 * r2 + 2.0 * r1 * r1 * r1)[k - 1]
        return f

    pairs = {
        "domega": (nth(1), nth(0)),
        "d2omega": (nth(2), nth(1)),
        "d3omega": (nth(3), nth(2)),
        "dy2L": (nth_log(2), nth_log(1)),
        "dy3L": (nth_log(3), nth_log(2)),
    }
    out = {}
    for nm, (exact_f, lower_f) in pairs.items():
        worst = 0.0
        for y in ys:
            ex = exact_f(float(y))
            fd = central(lower_f, float(y))
            worst = max(worst, abs(fd - ex) / max(1.0, abs(ex)))
        out[nm] = worst
    return out


@pytest.mark.parametrize("preset, coeffs", [
    ("sine", (2.0, 1.0)), ("fourier", (3.0, 0.5, 0.5, 0.3, -0.4)), ("constant", (2.0,))])
def test_finite_difference_report_equals_the_per_point_loop(preset, coeffs):
    fmx = fs.make_frequency(preset, coeffs)
    assert fs.finite_difference_report(fmx) == _finite_difference_report_per_point(fmx)


def test_finite_difference_consistency_fourier():
    fmf = fs.make_frequency("fourier", (2.0, 0.25, 0.25))
    assert max(fs.finite_difference_report(fmf).values()) <= 1e-6
