"""Configuration parsing, file outputs, CLI exit codes, determinism."""

import ast
import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fastslow as fs
from fastslow import lab
from fastslow.lab import (TWO_SCALE_VARIABLES, RunConfig, parse_config_text,
                          two_scale_error_table, write_csv)
from fastslow.model import DEFAULT_COEFFICIENTS


def file_hashes(d, skip=("manifest.json",)):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.name not in skip}


def assert_canonical_csvs(out):
    """Every numeric cell c of every CSV in out is '%.17g' % float(c): the
    columns named "variable" hold names, every other column numbers."""
    files = sorted(out.glob("*.csv"))
    assert files
    for path in files:
        header, *rows = path.read_text().splitlines()
        numeric = [i for i, name in enumerate(header.split(",")) if name != "variable"]
        for row in rows:
            cells = row.split(",")
            assert all("%.17g" % float(cells[i]) == cells[i] for i in numeric), (path.name, row)


def test_default_config_echo_round_trips():
    cfg = RunConfig()
    again = parse_config_text(cfg.echo())
    assert again == cfg
    assert again.echo() == cfg.echo()


def test_echo_round_trip_preserves_derived_constants():
    cfg = RunConfig(y_star=0.123456789012345678, p_star=0.7,
                    u_star=1.3, epsilons=(0.03, 0.007))
    again = parse_config_text(cfg.echo())
    fm = cfg.frequency()
    a = fs.derived_constants(cfg.params(), fm)
    b = fs.derived_constants(again.params(), again.frequency())
    assert a == b  # bit-identical floats survive the text round trip


@pytest.mark.parametrize("preset", ["constant", "fourier"])
def test_preset_without_coefficients_takes_its_defaults(tmp_path, preset):
    # the coefficients used to default to sine's two, which the constant and
    # fourier presets reject, so the one-line config exited 2
    config = tmp_path / "preset.txt"
    config.write_text(f"frequency.preset = {preset}\n")
    cfg = parse_config_text(config.read_text())
    assert cfg.frequency_coefficients == DEFAULT_COEFFICIENTS[preset]
    assert parse_config_text(cfg.echo()) == cfg
    assert fs.main(["thermo", "--config", str(config), "--out", str(tmp_path / "o"),
                    "--epsilon", "0.04,0.02"]) == 0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# a comment\n\nrun.horizon_T = 2.0\n")
    assert cfg.horizon_T == 2.0


_REJECTED_WHEN_PARSED = [
    "bogus.key = 1",
    "run.horizon_T == 1",
    "run.horizon_T = abc",
    "run.epsilons = ",
    "run.epsilons = 0.01,0.02",       # increasing
    "run.epsilons = 0.02,-0.01",
    "run.horizon_T = -1",
    "frequency.preset = sine\nfrequency.coefficients = 1,1",
    "debug.flip_theta1_sign = maybe",
    "just a line without equals",
    "run.epsilons = 0.04,nan",
    "integrate.step_factor = inf",
    "run.horizon_T = inf",
    "initial.u_star = inf",
    "initial.y_star = nan",
    "frequency.coefficients = 2,-inf",
    "run.epsilons = 0.04\nrun.epsilons = 0.02",  # a repeated key
    # keys that are gone: whatever value they carry, the key is unknown
    "integrate.max_slow_step = nan",
    "integrate.max_slow_step = -inf",
    "output.grid_points = 3",
    "output.grid_points = 1000000000000",
]
# (config, command, keys its error names): parsed fine, rejected by the command
_REJECTED_BY_COMMAND = [
    ("run.horizon_T = 1e-4", "simulate", ("integrate.step_factor", "run.horizon_T")),
    ("run.horizon_T = 1e-4", "sweep", ("integrate.reference_factor", "run.horizon_T")),
    ("integrate.step_factor = 0.01", "simulate", ("integrate.step_factor", "run.horizon_T")),
    ("integrate.reference_factor = 1e-3", "sweep",
     ("integrate.reference_factor", "run.horizon_T")),
    ("integrate.reference_factor = 1e-3", "thermo",
     ("integrate.reference_factor", "run.horizon_T")),
    ("integrate.reference_factor = 1e-3", "twoscale",
     ("integrate.reference_factor", "run.horizon_T")),
    ("initial.u_star = 0", "thermo", ("initial.u_star",)),
    # both terms of the step overflow, and inf / inf is a NaN step
    ("run.epsilons = 1e308\nintegrate.step_factor = 1e308", "simulate",
     ("integrate.step_factor = 1e+308", "epsilon 1e+308")),
    # one ulp below RK4's stability bound pi/sqrt(2) on the cartesian fast oscillator,
    # and a config whose cartesian energies reached inf below it
    ("frequency.preset = constant\nintegrate.step_factor = 2.2214414690791826", "simulate",
     ("integrate.step_factor = 2.2214414690791826", "pi/sqrt(2) = 2.221441469079183")),
    ("frequency.preset = constant\ninitial.y_star = -135.43058254588348\n"
     "integrate.step_factor = 1.9642449042076022\nrun.epsilons = 0.002928,0.001096", "simulate",
     ("integrate.step_factor = 1.9642449042076022", "pi/sqrt(2)")),
]


@pytest.mark.parametrize(
    "text, command, keys",
    [(t, None, ()) for t in _REJECTED_WHEN_PARSED] + _REJECTED_BY_COMMAND,
    ids=_REJECTED_WHEN_PARSED + [f"{c}: {t}" for t, c, _ in _REJECTED_BY_COMMAND])
@pytest.mark.filterwarnings("ignore:u_star = 0")
def test_bad_configs_rejected(text, command, keys, tmp_path, capsys):
    if command is None:
        with pytest.raises(lab.ConfigError):
            parse_config_text(text)
        return
    parse_config_text(text)
    config = tmp_path / "bad.txt"
    config.write_text(text + "\n")
    assert fs.main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert all(key in err for key in keys)
    assert list(tmp_path.iterdir()) == [config]


# the values of a config's numeric keys, drawn from one pool per config, so
# that tiny coefficients meet tiny step factors
_VALUE_POOLS = {
    "ordinary": ("0.04", "0.5", "1", "2", "40", "80"),
    "tiny": ("5e-324", "1e-310", "1e-300", "1e-150", "1e-30"),
    "huge": ("1e30", "1e150", "1e300", "1.7976931348623157e308"),
    "zero": ("0", "-0.0"),
    "negative": ("-1", "-1e-300", "-1e300"),
    "nonfinite": ("nan", "inf", "-inf", "1e400"),
}
_VALUE_POOLS["mixed"] = tuple(v for pool in _VALUE_POOLS.values() for v in pool)
# per pool, a strategy for each value kind of lab._KEY_FIELDS
_VALUES = {name: {str: st.sampled_from(("sine", "constant", "fourier", "cosine")),
                  float: st.sampled_from(pool),
                  "floats": st.lists(st.sampled_from(pool), min_size=1,
                                     max_size=5).map(",".join),
                  "bool": st.sampled_from(("true", "false", "maybe"))}
           for name, pool in _VALUE_POOLS.items()}
_KEYS = sorted(k for k in lab._KEY_FIELDS if k != "output.dir")
_STEP_KEYS = ("integrate.step_factor", "integrate.reference_factor")


@st.composite
def _config_texts(draw):
    values = draw(st.sampled_from(list(_VALUES.values())))
    keys = draw(st.lists(st.sampled_from(_KEYS), unique=True, max_size=6))
    lines = [f"{key} = {draw(values[lab._KEY_FIELDS[key][1]])}" for key in keys]
    lines += draw(st.lists(st.sampled_from(("no equals sign", "no.such.key = 1",
                                            "run.horizon_T = one", "run.epsilons = ,",
                                            "initial.y_star = 0")), max_size=1))
    return "\n".join(lines)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=_config_texts())
# the two configs whose step divisor underflows, which the draws rarely meet
@example(text="frequency.coefficients = 1e-300,1e-301\nintegrate.reference_factor = 1e-150")
@example(text="frequency.preset = constant\nfrequency.coefficients = 1e-300\n"
              "integrate.step_factor = 1e-300")
# the config whose step is inf / inf
@example(text="run.epsilons = 1e308\nintegrate.step_factor = 1e308")
@pytest.mark.filterwarnings("ignore:u_star = 0")
def test_any_config_text_parses_or_is_rejected_and_its_step_check_classifies(text):
    # no solve: a text parses or raises ConfigError (exit 2), and the step checks
    # that every command but check runs first pass or raise ConfigError or
    # NumericalError (exit 3), never another exception; a NaN step is a
    # ConfigError
    try:
        cfg = parse_config_text(text)
    except lab.ConfigError:
        return
    fm = cfg.frequency()
    for key in _STEP_KEYS:
        factor = getattr(cfg, lab._KEY_FIELDS[key][0])
        with np.errstate(all="ignore"):  # the step in numpy floats, which do not raise
            nan_step = np.isnan(2.0 * math.pi * np.float64(cfg.epsilons[0])
                                / (np.float64(factor) * fm.omega_upper_bound))
        try:
            lab._step_fits(cfg, fm, key)
        except lab.ConfigError:
            continue
        except fs.NumericalError:
            pass
        assert not nan_step, f"{key}: a NaN step passed the step check"


@pytest.mark.parametrize("command", ["sweep", "simulate", "twoscale"])
def test_zero_action_accepted_outside_thermo(tmp_path, command):
    config = tmp_path / "zero.txt"
    config.write_text("initial.u_star = 0\n")
    out = tmp_path / "out"
    # twoscale's trend gates need two epsilons; its remainders of theta1, y2,
    # p2 and theta2 are then at rounding level and must pass as such
    epsilons = "0.04,0.02" if command == "twoscale" else "0.04"
    with pytest.warns(UserWarning, match="zero action"):
        rc = fs.main([command, "--config", str(config), "--out", str(out),
                      "--epsilon", epsilons])
    assert rc == 0


# the five keys that fixed the slow solves, the output grid and the
# equipartition window, each at the one value it ever took, and the two
# aliases of fourier: each is unknown now, and its error names it
_REMOVED_OPTIONS = {
    "integrate.rtol": "integrate.rtol = 1e-12",
    "integrate.atol": "integrate.atol = 1e-12",
    "integrate.max_slow_step": "integrate.max_slow_step = 0.002",
    "output.grid_points": "output.grid_points = 2001",
    "averaging.window_periods": "averaging.window_periods = 8",
    "custom": "frequency.preset = custom",
    "custom-coefficients": None,  # given as --preset
}


@pytest.mark.parametrize("name", _REMOVED_OPTIONS)
def test_removed_options_exit_2(tmp_path, capsys, name):
    args = ["--preset", name]
    if _REMOVED_OPTIONS[name] is not None:
        config = tmp_path / "removed.txt"
        config.write_text(_REMOVED_OPTIONS[name] + "\n")
        args = ["--config", str(config)]
    assert fs.main(["check", *args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(name) in err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = fs.main(["check", "--config", str(tmp_path / "nope.txt")])
    assert rc == 2


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.txt"
    cfgfile.write_bytes(b"\xff\xfe\x00bad")
    rc = fs.main(["check", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err


def test_step_factor_at_the_rk4_bound_keeps_the_cartesian_energy(tmp_path):
    # the smallest factor accepted (one ulp below exits 2): the energies stay bounded,
    # where at 2.22 they reach 330.9
    config = tmp_path / "bound.txt"
    config.write_text("frequency.preset = constant\n"
                      f"integrate.step_factor = {math.pi / math.sqrt(2.0)!r}\n")
    out = tmp_path / "o"
    assert fs.main(["simulate", "--config", str(config), "--epsilon", "0.04,0.001",
                    "--out", str(out)]) == 0
    for eps in ("0.04", "0.001"):
        E = np.loadtxt(out / f"cart_eps{eps}.csv", delimiter=",", skiprows=1)[:, 5]
        assert np.max(np.abs(E)) <= 1.0 + 1e-9, eps


@pytest.mark.parametrize("command, blocked", [("twoscale", "summary.txt"),
                                              ("check", "check.json")])
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, command, blocked):
    # a directory where an output file goes is bad configuration, as an --out
    # that cannot be made is
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    assert fs.main([command, "--epsilon", "0.04", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and blocked in err
    assert "Traceback" not in err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    assert fs.main(["check", "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


def test_bad_epsilon_flag_exits_2(tmp_path, capsys):
    assert fs.main(["check", "--epsilon", "abc", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--epsilon", "", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--epsilon", "nan", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--epsilon", "0.04,inf", "--out", str(tmp_path)]) == 2
    assert fs.main(["sweep", "--epsilon", "nan", "--out", str(tmp_path)]) == 2
    assert fs.main(["simulate", "--epsilon", "inf", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--preset", "unknown", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert fs.main(["twoscale", "--epsilon", "0.04,0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: epsilons must be strictly decreasing\n")


def _write_csv_per_cell(path, header, columns):
    """The per-cell writer that write_csv replaced, kept as its oracle."""
    def fmt(x):
        if isinstance(x, float):
            return f"{x:.17g}"
        if isinstance(x, str):
            return x
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return f"{float(x):.17g}"
    rows = [",".join(header), *(",".join(map(fmt, row)) for row in zip(*columns))]
    path.write_text("\n".join(rows) + "\n")


def _float_classes():
    """About 10^6 floats, by class, of every kind that write_csv's numpy
    kernel computes or hands to Python's %."""
    rng = np.random.default_rng(20261019)

    def sign(n):
        return rng.choice([-1.0, 1.0], n)

    powers = [np.array([float(f"1e{e}") for e in range(-40, 20)])]
    for toward in (np.inf, 0.0):
        w = powers[0]
        for _ in range(4):
            w = np.nextafter(w, toward)
            powers.append(w)
    # exact ties of the 17th digit: x = o 2^-(j + 1), o odd, has the decimal
    # exponent 16 - j and x 10^j = o 5^j / 2, half an odd integer
    ties = np.concatenate([
        (2 * np.floor(rng.uniform(2e16 / 5**j, min(2e17 / 5**j, 2.0**53), 8334) / 2) + 1)
        * 2.0 ** -(j + 1) for j in range(1, 25)])
    return {
        "normals scaled by 10^U(-35, 20)":
            rng.standard_normal(400_000) * 10 ** rng.uniform(-35, 20, 400_000),
        "binades 2^-120 to 2^60":
            np.ldexp(sign(400_000) * rng.uniform(1, 2, 400_000), rng.integers(-120, 61, 400_000)),
        "powers of ten 1e-40 to 1e19, +-4 ulps": np.concatenate(powers) * [[1.0], [-1.0]],
        "17-digit ties": ties * sign(ties.size),
        "30% exact zeros of both signs": rng.standard_normal(50_000) * (rng.random(50_000) > 0.3),
        "specials": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e300,
                              0.5 + 2**-18, 0.99999999999999999, 1e17, np.nextafter(1e17, 0),
                              1e-30, np.nextafter(1e-30, 0), 2.2250738585072014e-308,
                              1.7976931348623157e308, 1e-5, 1e-9, 1e-10, 1e16]),
    }


@pytest.mark.filterwarnings("error")
def test_write_csv_matches_per_cell_writer(tmp_path):
    array = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300, 0.1])
    columns = [array,
               [np.float64(v) for v in array[::-1]],
               [float(v) / 3.0 for v in array],
               ["a", "theta_first", "", "y_second", "x", "nan", "1", "-0"]]
    header = ["ndarray", "np_float64", "float", "str"]
    write_csv(tmp_path / "new.csv", header, columns)
    _write_csv_per_cell(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    write_csv(tmp_path / "empty.csv", ["a", "b"], [[], []])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    # the numpy kernel and its fallback to % on every class of float
    for name, values in _float_classes().items():
        write_csv(tmp_path / "new.csv", ["x"], [values.ravel()])
        _write_csv_per_cell(tmp_path / "old.csv", ["x"], [values.ravel().tolist()])
        new = (tmp_path / "new.csv").read_text().splitlines()
        old = (tmp_path / "old.csv").read_text().splitlines()
        assert new == old, (name, next((a, b) for a, b in zip(new, old) if a != b))


def test_check_command_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "chk"
    rc = fs.main(["check", "--out", str(out), "--epsilon", "0.04,0.02"])
    assert rc == 0
    report = json.loads((out / "check.json").read_text())
    assert all(entry["pass"] for entry in report.values())
    assert "first_order_energy_identity" in report
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check"
    assert set(manifest["files"]) == {"check.txt", "check.json"}


def _lattice_row(k, theta_lo):
    """Row k of check's fixed lattice, one float at a time: the fractional
    parts of k*sqrt(2), ..., k*sqrt(11) placed in the ranges of phi, theta,
    y, p and log10(epsilon)."""
    ranges = ((-3.0, 3.0), (theta_lo, 2.0), (-5.0, 5.0), (-2.0, 2.0), (-3.0, -1.0))
    phi, theta, y, p, log_e = (lo + (hi - lo) * (k * math.sqrt(q) % 1.0)
                               for (lo, hi), q in zip(ranges, (2.0, 3.0, 5.0, 7.0, 11.0)))
    return fs.ActionAngleState(phi=phi, theta=theta, y=y, p=p), 10 ** log_e


def _identity_loops_per_state(fm):
    """check's eom_form_equivalence, transform_round_trip and
    energy_agreement as two loops of float calls computed them, and the
    (phi, theta, y, p, epsilon) rows of each loop."""
    rows = ([], [])
    worst_eq = 0.0
    for k in range(1, 1001):
        s, e = _lattice_row(k, 1e-3)
        rows[0].append((s.phi, s.theta, s.y, s.p, e))
        d1 = fs.action_angle_rhs(s, e, fm)
        d2 = fs.action_angle_rhs_composed(s, e, fm)
        worst_eq = max(worst_eq, abs(d1.phi - d2.phi), abs(d1.theta - d2.theta),
                       abs(d1.y - d2.y), abs(d1.p - d2.p))
    worst_rt = 0.0
    worst_en = 0.0
    for k in range(1, 1001):
        s, e = _lattice_row(k, 1e-6)
        rows[1].append((s.phi, s.theta, s.y, s.p, e))
        c = fs.from_action_angle(s, e, fm)
        s2 = fs.to_action_angle(c, e, fm)
        c2 = fs.from_action_angle(s2, e, fm)
        worst_rt = max(worst_rt, abs(c.y - c2.y), abs(c.eta - c2.eta),
                       abs(c.z - c2.z), abs(c.zeta - c2.zeta))
        ea = fs.energy_action_angle(s, e, fm)
        e_perp, e_par = fs.energy_cartesian(c, e, fm)
        worst_en = max(worst_en, abs(ea - (e_perp + e_par)) / max(1.0, abs(ea)))
    return {"eom_form_equivalence": worst_eq, "transform_round_trip": worst_rt,
            "energy_agreement": worst_en}, rows


@pytest.mark.parametrize("flags, preset", [([], "sine"), (["--preset", "fourier"], "fourier")],
                         ids=["default", "fourier"])
def test_check_identities_equal_the_per_state_loops(tmp_path, monkeypatch, flags, preset):
    # check makes each block of states in one array pass and runs the kernels
    # on arrays; its states and its maxima must be those of the per-state
    # float loops, bit for bit
    draw = lab._identity_states
    drawn = []

    def recorded(theta_lo):
        s, e = draw(theta_lo)
        drawn.append(np.c_[s.phi, s.theta, s.y, s.p, e])
        return s, e

    monkeypatch.setattr(lab, "_identity_states", recorded)
    assert fs.main(["check", "--out", str(tmp_path), *flags]) == 0
    report = json.loads((tmp_path / "check.json").read_text())
    want, rows = _identity_loops_per_state(fs.make_frequency(preset, DEFAULT_COEFFICIENTS[preset]))
    assert len(drawn) == 2
    assert all(np.array_equal(got, block) for got, block in zip(drawn, rows))
    assert {name: report[name]["value"] for name in want} == want


def test_sign_flip_control_fails_check(tmp_path):
    cfgfile = tmp_path / "flip.txt"
    cfgfile.write_text("debug.flip_theta1_sign = true\n"
                       "run.epsilons = 0.04\n")
    rc = fs.main(["check", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads((tmp_path / "o" / "check.json").read_text())
    assert not report["first_order_energy_identity"]["pass"]
    assert not report["second_order_energy_identity"]["pass"]


def test_check_fails_on_a_nan_identity(tmp_path, monkeypatch):
    # a NaN first-order identity at the last epsilon, which a builtin max()
    # over the epsilons used to drop, so check passed; check.json stays
    # strict JSON, with null for the NaN
    energy_expansion = fs.thermo.energy_expansion

    def nan_at_last_epsilon(base, corr, cv, epsilon, theta_star, fm):
        ex = energy_expansion(base, corr, cv, epsilon, theta_star, fm)
        if epsilon != 0.005:
            return ex
        return ex._replace(E1_perp_osc=np.where(
            np.arange(ex.E1_perp_osc.size) == 7, np.nan, ex.E1_perp_osc))

    monkeypatch.setattr(fs.thermo, "energy_expansion", nan_at_last_epsilon)
    assert fs.main(["check", "--out", str(tmp_path)]) == 1

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((tmp_path / "check.json").read_text(), parse_constant=reject)
    entry = report["first_order_energy_identity"]
    assert entry["value"] is None and not entry["pass"]
    assert ("[FAIL] first_order_energy_identity: value=nan"
            in (tmp_path / "check.txt").read_text())


def test_check_rejects_an_epsilon_whose_phase_split_overflows(tmp_path, capsys):
    # at 1e-300 the Dekker split of 2*phi/epsilon in the phase reduction
    # overflows; check rejects the epsilon before any corrector is made
    assert fs.main(["check", "--epsilon", "1e-300", "--out", str(tmp_path / "a")]) == 2
    assert "configuration error: run.epsilons: epsilon 1e-300" in capsys.readouterr().err
    assert not (tmp_path / "a" / "check.json").exists()
    assert fs.main(["check", "--epsilon", "1e-299", "--out", str(tmp_path / "b")]) == 0


_FOURIER_B = ("frequency.preset = fourier\n"
              "frequency.coefficients = 3,0.5,0.5,0.3,-0.4\n"
              "initial.p_star = -0.7\ninitial.u_star = 1.5\n")


@pytest.mark.parametrize("config, flip_fails", [
    ("", True), (_FOURIER_B, True), ("frequency.preset = constant\n", False)],
    ids=["sine", "fourier-b", "constant"])
def test_second_order_energy_identity_gate(tmp_path, config, flip_fails):
    # E2_perp_osc + E2_par_osc vanishes on the default ladder, and a flipped
    # theta1 corrector breaks it wherever theta1 is not zero (constant: it is)
    def identity(flip):
        cfgfile = tmp_path / f"flip{flip}.txt"
        cfgfile.write_text(config + f"debug.flip_theta1_sign = {str(flip).lower()}\n")
        out = tmp_path / f"o{flip}"
        fs.main(["check", "--config", str(cfgfile), "--out", str(out)])
        return json.loads((out / "check.json").read_text())["second_order_energy_identity"]

    entry = identity(False)
    assert entry["pass"] and entry["value"] <= 1e-13 and entry["tolerance"] == 1e-13
    flipped = identity(True)
    assert flipped["pass"] != flip_fails
    if flip_fails:
        assert flipped["value"] > 1e-3


def test_simulate_outputs_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert fs.main(["simulate", "--out", str(d1), "--epsilon", "0.04"]) == 0
    assert fs.main(["simulate", "--out", str(d2), "--epsilon", "0.04"]) == 0
    assert file_hashes(d1) == file_hashes(d2)
    names = set(file_hashes(d1))
    assert names == {"traj_eps0.04.csv", "cart_eps0.04.csv",
                     "homogenized.csv", "averaged.csv"}
    header = (d1 / "traj_eps0.04.csv").read_text().splitlines()[0]
    assert header == "t,phi,theta,y,p,E,E_perp,E_par"
    assert_canonical_csvs(d1)


def test_simulate_writes_the_cartesian_split_of_energy_cartesian(tmp_path):
    assert fs.main(["simulate", "--out", str(tmp_path), "--epsilon", "0.04"]) == 0
    t, y, eta, z, zeta, E, e_perp, e_par = np.loadtxt(tmp_path / "cart_eps0.04.csv",
                                                      delimiter=",", skiprows=1).T
    fm = RunConfig().frequency()
    split = fs.energy_cartesian(fs.CartesianState(y, eta, z, zeta), 0.04, fm)
    assert np.array_equal(e_perp, split[0]) and np.array_equal(e_par, split[1])
    assert np.array_equal(E, e_perp + e_par)
    # the split in the order simulate wrote it with its own formula
    w = fm.derivs(y)[0]
    assert np.array_equal(e_perp, 0.5 * zeta**2 + 0.5 * (w * z / 0.04) ** 2)
    assert np.array_equal(e_par, 0.5 * eta**2)


def test_simulate_names_files_by_the_shortest_repr_of_epsilon(tmp_path):
    # '%g' prints both epsilons as 0.04, which would name one pair of files twice
    assert fs.main(["simulate", "--out", str(tmp_path), "--epsilon", "0.04000001,0.04"]) == 0
    assert set(file_hashes(tmp_path)) == {
        "traj_eps0.04000001.csv", "cart_eps0.04000001.csv", "traj_eps0.04.csv",
        "cart_eps0.04.csv", "homogenized.csv", "averaged.csv"}
    assert len(json.loads((tmp_path / "manifest.json").read_text())["files"]) == 6


def test_simulate_makes_one_slow_solve(tmp_path, monkeypatch):
    # homogenized.csv and averaged.csv are columns of the one joint solve
    solves = []
    solve = fs.integrate.integrate_controlled

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)
    for mod in [m for n, m in sys.modules.items() if n.partition(".")[0] == "fastslow"]:
        for name, value in list(vars(mod).items()):
            if value is solve:
                monkeypatch.setattr(mod, name, counted)
    out = tmp_path / "o"
    assert fs.main(["simulate", "--out", str(out), "--epsilon", "0.04"]) == 0
    assert len(solves) == 1
    monkeypatch.undo()
    cfg = RunConfig()
    grid = lab._grid(cfg)
    xs = fs.sample(fs.solve_expansion(cfg.params(), cfg.frequency()), grid)
    hom = np.loadtxt(out / "homogenized.csv", delimiter=",", skiprows=1)
    avg = np.loadtxt(out / "averaged.csv", delimiter=",", skiprows=1)
    assert np.array_equal(hom[:, 0], grid) and np.array_equal(avg[:, 0], grid)
    assert np.array_equal(hom[:, 1:4], xs[:, :3])
    assert np.array_equal(avg[:, 1:], xs[:, 3:])


def test_sweep_gates_and_run_records(tmp_path):
    d1 = tmp_path / "a"
    assert fs.main(["sweep", "--epsilon", "0.04,0.02,0.01", "--out", str(d1)]) == 0
    summary = (d1 / "summary.txt").read_text()
    assert "FAIL" not in summary
    rows = (d1 / "residuals.csv").read_text().splitlines()
    assert rows[0] == "epsilon,variable,sup_norm,normalized_norm"
    assert len(rows) == 1 + 3 * 9  # 3 epsilons x (4 leading + 1 first + 4 second)
    assert_canonical_csvs(d1)
    runs = json.loads((d1 / "manifest.json").read_text())["runs"]
    assert [r["epsilon"] for r in runs] == [0.04, 0.02, 0.01]
    assert all(0.0 < r["richardson_error"] <= 1e-8 for r in runs)
    assert all(0.0 < r["theta_min"] < 1.0 for r in runs)


def test_sweep_with_two_epsilons_skips_order_fit(tmp_path):
    out = tmp_path / "s"
    assert fs.main(["sweep", "--epsilon", "0.04,0.02", "--out", str(out)]) == 0
    assert "order gates skipped" in (out / "summary.txt").read_text()


def test_twoscale_single_epsilon_reports_only(tmp_path):
    out = tmp_path / "t"
    assert fs.main(["twoscale", "--epsilon", "0.04", "--out", str(out)]) == 0
    rows = (out / "twoscale.csv").read_text().splitlines()
    assert rows[0] == "epsilon,variable,sup_error"
    assert len(rows) == 6  # five variables
    assert_canonical_csvs(out)
    assert "no trend gate" in (out / "summary.txt").read_text()
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [sorted(r) for r in runs] == [["epsilon", "richardson_error", "theta_min"]]
    assert runs[0]["epsilon"] == 0.04
    assert 0.0 < runs[0]["richardson_error"] <= 1e-8
    assert 0.0 < runs[0]["theta_min"] < 1.0


@pytest.mark.parametrize("command", ["sweep", "thermo", "twoscale"])
def test_ladder_holds_one_reference_run_at_a_time(tmp_path, monkeypatch, command):
    # every earlier run must be collected before the next one is made, so
    # the ladder's memory holds a single run; reference_run makes each run
    # with the reference_solution it finds in its module
    made = []
    solve = fs.expansion.reference_solution

    def tracked(*args, **kwargs):
        gc.collect()
        assert [r() for r in made] == [None] * len(made)
        run = solve(*args, **kwargs)
        made.append(weakref.ref(run))
        return run

    monkeypatch.setattr(fs.expansion, "reference_solution", tracked)
    assert fs.main([command, "--epsilon", "0.04,0.02,0.01", "--out", str(tmp_path)]) == 0
    assert len(made) == 3


def _two_scale_error_table_per_epsilon(cfg, fm, params, runs):
    """The per-epsilon loop that the ladder call replaced, each epsilon with
    its own phase inversion, kept as the oracle of two_scale_error_table;
    runs maps each epsilon to its reference run."""
    theta_star = fs.derived_constants(params, fm).theta_star
    etraj = fs.solve_expansion(params, fm)

    def limit(t, s):
        base, corr = fs.eval_expansion(etraj, t.ravel())
        b = fs.HomogenizedState(base.phi0[:, None], base.y0[:, None], base.p0[:, None])
        cv = fs.two_scale_limits(b, corr.phi2_bar[:, None], s.ravel()[None, :],
                                 fm, theta_star)
        return (cv.theta1, corr.phi2_bar[:, None] + cv.phi2, corr.y2_bar[:, None] + cv.y2,
                corr.p2_bar[:, None] + cv.p2, corr.theta2_bar[:, None] + cv.theta2)

    out = {}
    for eps in cfg.epsilons:
        ref = runs[eps]
        n_cells = int(math.floor(float(etraj.states[-1, 0]) / math.pi / eps))
        r_fine = eps * np.arange(256 * n_cells + 1) / 256
        r_grid = np.linspace(0.0, (n_cells - 3) * eps, 512)
        t_all = fs.invert_monotone(etraj, np.pi * np.concatenate([r_fine, r_grid]))
        t_fine, t_slow = t_all[:r_fine.size], t_all[r_fine.size:]
        xs = fs.sample(ref, t_fine)
        base, corr = fs.eval_expansion(etraj, t_fine)
        cv = fs.correctors(base, corr.phi2_bar, eps, fm, theta_star)
        theta1 = (xs[:, 1] - theta_star) / eps
        signals = (theta1, (xs[:, 0] - base.phi0) / eps**2, (xs[:, 2] - base.y0) / eps**2,
                   (xs[:, 3] - base.p0) / eps**2, (theta1 - cv.theta1) / eps)
        n = np.floor(r_grid / eps)
        rho = r_grid / eps - n
        n = n.astype(int)
        j = np.arange(256)
        s_grid = j / 256
        cells = n[:, None] * 256 + j[None, :]
        errs = []
        for v, lim in zip(signals, limit(t_slow[:, None], s_grid[None, :])):
            blend = (1.0 - rho)[:, None] * v[cells] + rho[:, None] * v[cells + 256]
            jump = ((1.0 - rho) * (v[(n + 1) * 256] - v[n * 256])
                    + rho * (v[(n + 2) * 256] - v[(n + 1) * 256]))
            errs.append(float(np.max(np.abs(blend - s_grid[None, :] * jump[:, None] - lim))))
        out[eps] = dict(zip(TWO_SCALE_VARIABLES, errs))
    return out


@pytest.mark.parametrize("preset, epsilons", [
    ("sine", (0.04, 0.02, 0.01, 0.005)),
    # no coarser fine grid lies in a finer one
    ("fourier", (0.04, 0.03, 0.011)),
])
def test_two_scale_table_matches_per_epsilon_unfolding(preset, epsilons, reference_run):
    cfg = RunConfig(frequency_preset=preset,
                    frequency_coefficients=fs.model.DEFAULT_COEFFICIENTS[preset],
                    epsilons=epsilons)
    fm, params = cfg.frequency(), cfg.params()
    runs = {eps: reference_run(eps, fm) for eps in epsilons}  # at cfg's params and factor
    table = two_scale_error_table(cfg, fm, params, runs.items())
    assert table == _two_scale_error_table_per_epsilon(cfg, fm, params, runs)
    assert list(table) == list(epsilons)


def test_two_scale_table_rejects_a_run_for_another_epsilon(params, fm, reference_run):
    cfg = RunConfig(epsilons=(0.04, 0.02))
    ref = reference_run(0.04)
    with pytest.raises(ValueError, match="epsilon 0.02"):
        two_scale_error_table(cfg, fm, params, [(0.04, ref), (0.01, ref)])


def test_two_scale_table_traced_peak_is_bounded(reference_run):
    # remainders and unfolding run in blocks of 8,192 points, so the peak no
    # longer holds the full-length temporaries or the 512 x 256 limit
    # surfaces (11.6 MiB before, 1.9 MiB after, on Linux x86-64)
    cfg = RunConfig(epsilons=(0.04,))
    fm, params = cfg.frequency(), cfg.params()
    ref = reference_run(0.04)
    tracemalloc.start()
    try:
        two_scale_error_table(cfg, fm, params, [(0.04, ref)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_preset_and_epsilon_flags_land_in_manifest(tmp_path):
    out = tmp_path / "m"
    rc = fs.main(["simulate", "--preset", "constant", "--epsilon", "0.04",
                  "--out", str(out)])
    assert rc == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert "frequency.preset = constant" in echo
    assert "run.epsilons = 0.04" in echo
    assert_canonical_csvs(out)  # the constant preset's all-zero columns


@pytest.mark.parametrize("command", ["sweep", "twoscale"])
def test_constant_preset_tables_are_canonical(tmp_path, command):
    # zero and rounding-level cells; sweep's orders.csv is then header only
    out = tmp_path / command
    assert fs.main([command, "--preset", "constant", "--epsilon", "0.04",
                    "--out", str(out)]) == 0
    assert_canonical_csvs(out)
    if command == "sweep":
        assert (out / "orders.csv").read_text() == "variable,order,r_squared\n"


def test_thermo_command_structure(tmp_path):
    out = tmp_path / "th"
    rc = fs.main(["thermo", "--epsilon", "0.04,0.02", "--out", str(out)])
    assert rc == 0
    rows = (out / "thermo.csv").read_text().splitlines()
    assert rows[0] == "t,T0,F0,S0,S2_doublebar,E2_perp_bar,E2_par_bar,first_law_residual"
    assert len(rows) == 2002
    assert_canonical_csvs(out)
    summary = (out / "thermo_summary.txt").read_text()
    assert "FAIL" not in summary
    assert "entropy normalization" in summary
    # reported, never asserted: an [INFO] line, not a gate that cannot fail
    assert "\n[INFO] quasi-static gap (work of second-order force), reported" in summary
    assert "[PASS] quasi-static" not in summary
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["epsilon"] for r in runs] == [0.04, 0.02]
    assert all(0.0 < r["richardson_error"] <= 1e-8 for r in runs)
    assert all(0.0 < r["theta_min"] < 1.0 for r in runs)


def test_thermo_passes_equipartition_gaps_at_rounding_level(tmp_path):
    # a constant frequency leaves only rounding noise in the windowed gaps,
    # which need not fall from one epsilon to the next
    out = tmp_path / "c"
    assert fs.main(["thermo", "--preset", "constant", "--epsilon", "0.04,0.02",
                    "--out", str(out)]) == 0
    assert ("[PASS] windowed equipartition gap decreasing across epsilons: residual at "
            "rounding level") in (out / "thermo_summary.txt").read_text()
    assert_canonical_csvs(out)


@pytest.mark.parametrize("command, epsilon", [("twoscale", "0.5"), ("thermo", "0.9"),
                                              ("twoscale", "0.5,0.04"),
                                              ("thermo", "0.5,0.04")])
def test_epsilon_too_large_for_the_phase_range_exits_2(tmp_path, capsys,
                                                       command, epsilon):
    rc = fs.main([command, "--epsilon", epsilon, "--out", str(tmp_path)])
    assert rc == 2
    reason = {"twoscale": "epsilon too large: fewer than four fast cells in range",
              "thermo": "window wider than the available phase range"}[command]
    # the message names the epsilon that does not fit, the largest
    assert capsys.readouterr().err == (
        f"configuration error: run.epsilons: epsilon {epsilon.split(',')[0]}: {reason}\n")


@pytest.mark.parametrize("command", ["sweep", "thermo", "twoscale"])
def test_reference_error_cap_applies_to_every_command(tmp_path, command):
    # factor 10 leaves the eps = 0.04 run above the 1e-8 Richardson cap
    cfgfile = tmp_path / "coarse.txt"
    cfgfile.write_text("integrate.reference_factor = 10\n"
                       "run.epsilons = 0.04,0.02\n")
    rc = fs.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 3


@pytest.mark.parametrize("command, key", [("sweep", "integrate.reference_factor"),
                                          ("thermo", "integrate.reference_factor"),
                                          ("twoscale", "integrate.reference_factor"),
                                          ("simulate", "integrate.step_factor")])
def test_huge_step_factor_exhausts_the_step_budget(tmp_path, capsys, command, key):
    # about 1.2e16 steps: refused before any array is allocated, exit 3
    cfgfile = tmp_path / "huge.txt"
    cfgfile.write_text(f"{key} = 1e15\n")
    rc = fs.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:") and "step budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, epsilon", [("sweep", "1e-9"), ("thermo", "1e-9"),
                                              ("twoscale", "1e-9"), ("thermo", "1e-300"),
                                              ("sweep", "0.04,5e-324")])
def test_tiny_epsilon_exhausts_the_step_budget_before_any_solve(tmp_path, capsys,
                                                                command, epsilon):
    # twoscale used to build its unfolding grid (1.44 TiB at 1e-9) and thermo
    # its correctors (an overflow at 1e-300) before the budget was checked;
    # at 5e-324 the fine step underflows to zero
    rc = fs.main([command, "--epsilon", epsilon, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:") and "step budget" in err
    assert "Traceback" not in err


def test_slow_solve_past_the_step_budget_exits_3(tmp_path, capsys):
    # 5e8 steps of at most 0.002: refused before the first step, not after
    # ten million of them
    cfgfile = tmp_path / "long.txt"
    cfgfile.write_text("run.horizon_T = 1e6\n")
    rc = fs.main(["check", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:") and "step budget" in err


@pytest.mark.parametrize("command", ["check", "thermo"])
@pytest.mark.parametrize("key", ["initial.u_star", "initial.p_star"])
def test_overflowing_initial_data_exits_3(tmp_path, capsys, command, key):
    # the square of 1e200 overflows a float in derived_constants
    cfgfile = tmp_path / "huge.txt"
    cfgfile.write_text(f"{key} = 1e200\n")
    rc = fs.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


# a float division by zero on extreme data is a numerical failure, as an overflow is;
# a step whose divisor underflows names the step factor, its value and the epsilon
@pytest.mark.parametrize("command, text, names", [
    ("sweep", "frequency.coefficients = 1e-300,1e-301\nintegrate.reference_factor = 1e-150\n",
     "integrate.reference_factor = 1e-150 times the largest frequency 1.1e-300 underflows "
     "to zero in the step at epsilon 0.04"),
    ("simulate", "frequency.preset = constant\nfrequency.coefficients = 1e-300\n"
                 "integrate.step_factor = 1e-300\n",
     "integrate.step_factor = 1e-300 times the largest frequency 1e-300 underflows "
     "to zero in the step at epsilon 0.04"),
    ("check", "frequency.preset = constant\nfrequency.coefficients = 1e-100\n", ""),
], ids=["sweep-fast-step", "simulate-fast-step", "check-derived-constants"])
def test_division_by_zero_exits_3(tmp_path, capsys, command, text, names):
    cfgfile = tmp_path / "tiny.txt"
    cfgfile.write_text(text)
    rc = fs.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:")
    assert names in err
    assert "Traceback" not in err


def test_sweep_with_equal_errors_fails_its_order_gate(tmp_path, capsys):
    # at y_star = 1e20 the leading y residuals are all equal: the fit has no R^2
    cfgfile = tmp_path / "far.txt"
    cfgfile.write_text("frequency.coefficients = 1,0.99\ninitial.y_star = 1e20\n")
    rc = fs.main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "[FAIL] order y_leading >= 1.9, R^2 >= 0.98: order=0.000 R^2=nan" in out
    assert "Traceback" not in err


def test_public_names_resolve():
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []


def _names_used(source: str) -> set:
    """Identifiers a Python source reads, imports or names in a string that is
    itself Python code (the benchmark names the functions it wraps that way)."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names_used(node.value)
            except SyntaxError:  # prose, not code
                pass
    return used


def test_public_names_are_used_outside_their_module():
    # a name stays in fastslow only if the system uses it: another module of the
    # package, a demo or the benchmark; RunConfig is what load_config returns
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "fastslow"
    files = ([p for p in package.glob("*.py") if p.name != "__init__.py"]
             + list((root / "demos").glob("*.py")) + list((root / "perfbench").glob("*.py")))
    uses = {p: _names_used(p.read_text()) for p in files}
    unused = [name for name in fs.__all__
              if not any(name in names for p, names in uses.items()
                         if p != package / (getattr(fs, name).__module__.rpartition(".")[2] + ".py"))]
    assert unused == ["RunConfig"]


# where the records live; only those the system uses are in fastslow itself
_RECORD_MODULES = (fs, fs.averaging, fs.expansion, fs.thermo)
# callers build the records positionally, as in ActionAngleState(*d)
_RECORD_FIELDS = {
    "WindowedAverage": "value t_lo t_hi slid_left slid_right",
    "CartesianState": "y eta z zeta",
    "ActionAngleState": "phi theta y p degenerate",
    "HomogenizedState": "phi0 y0 p0",
    "CorrectorValues": "theta1 phi2 y2 p2 theta2",
    "AveragedCorrection": "phi2_bar theta2_bar y2_bar p2_bar",
    "ResidualReport": "epsilons families normalized energy_drift",
    "FrequencyModel": "preset coefficients omega_lower_bound omega_upper_bound",
    "DerivedConstants": "theta_star e_star entropy_constant c_sbarbar2",
    "ThermoExpansion": "T0 F0 S0 S1_osc S2_full S2_bar S2_doublebar F2_bar",
    "EnergyExpansion": ("E0_perp E1_perp_osc E1_par_osc E2_perp_osc E2_par_osc "
                        "E2_perp_bar E2_par_bar E2_bar"),
    "AveragedEnergyBundle": "S2_doublebar_closed E2_bar dE2_dy0 dE2_dp0",
    "EquipartitionReport": "centers gap_max xi_sup any_slid",
}


@pytest.mark.parametrize("name", _RECORD_FIELDS)
def test_records_keep_their_fields_in_order_and_are_frozen(name):
    cls = next(getattr(m, name) for m in _RECORD_MODULES if hasattr(m, name))
    fields = tuple(_RECORD_FIELDS[name].split())
    assert cls._fields == fields
    rec = cls(*range(len(fields)))
    assert [getattr(rec, f) for f in fields] == list(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], -1)


def test_action_angle_state_is_not_degenerate_by_default():
    assert fs.ActionAngleState(0.0, 1.0, 0.0, 1.0).degenerate is False


def test_only_three_public_types_are_dataclasses():
    # dataclass code generation is most of the package's import time
    kept = [n for n in fs.__all__ if dataclasses.is_dataclass(getattr(fs, n))]
    assert sorted(kept) == ["RunConfig", "SystemParams", "Trajectory"]


def test_main_in_process_leaves_the_collector_unfrozen(tmp_path):
    # only `python -m fastslow` freezes the import heap, never a library caller
    before = gc.get_freeze_count()
    assert fs.main(["check", "--out", str(tmp_path), "--epsilon", "0.04"]) == 0
    assert gc.get_freeze_count() == before


def _python_m_fastslow(tmp_path, command, config_text=None):
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "fastslow", command,
            "--out", str(tmp_path / "o")]
    if config_text is not None:
        (tmp_path / "cfg.txt").write_text(config_text)
        argv += ["--config", str(tmp_path / "cfg.txt")]
    env = dict(os.environ, PYTHONPATH=str(Path(fs.__file__).parents[1]))
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)


def test_python_m_fastslow_check_passes(tmp_path):
    proc = _python_m_fastslow(tmp_path, "check")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("[PASS] derivative_consistency:")


def test_no_command_imports_numpy_ma_or_numpy_random(tmp_path):
    # each import costs a process about 10-14 ms: every point set of the
    # commands is fixed, and estimate_order finds equal epsilons without np.unique
    env = dict(os.environ, PYTHONPATH=str(Path(fs.__file__).parents[1]))
    for command in lab._COMMANDS:
        argv = [sys.executable, "-X", "importtime", "-m", "fastslow", command,
                "--epsilon", "0.04,0.02,0.01", "--out", str(tmp_path / command)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
        assert "numpy" in imported
        assert imported & {"numpy.ma", "numpy.random"} == set(), command


@pytest.mark.parametrize("text, code", [("no.such.key = 1\n", 2),
                                        ("run.horizon_T = 1e6\n", 3)],
                         ids=["unknown-key", "past-the-step-budget"])
def test_python_m_fastslow_exit_codes(tmp_path, text, code):
    proc = _python_m_fastslow(tmp_path, "check", text)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
