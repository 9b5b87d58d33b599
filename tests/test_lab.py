"""Configuration parsing, file outputs, CLI exit codes, determinism."""

import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

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
]


@pytest.mark.parametrize(
    "text, command, keys",
    [(t, None, ()) for t in _REJECTED_WHEN_PARSED] + _REJECTED_BY_COMMAND,
    ids=_REJECTED_WHEN_PARSED + [f"{c}: {t}" for t, c, _ in _REJECTED_BY_COMMAND])
@pytest.mark.filterwarnings("ignore:u_star = 0")
def test_bad_configs_rejected(text, command, keys, tmp_path, capsys):
    if command is None:
        with pytest.raises(fs.ConfigError):
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


def _identity_loops_per_state(fm):
    """check's eom_form_equivalence, transform_round_trip and
    energy_agreement as two loops of float calls computed them, and the
    (phi, theta, y, p, epsilon) rows each loop drew."""
    rng = np.random.default_rng(12345)
    rows = ([], [])
    worst_eq = 0.0
    for _ in range(1000):
        s = fs.ActionAngleState(phi=float(rng.uniform(-3, 3)),
                                theta=float(rng.uniform(1e-3, 2.0)),
                                y=float(rng.uniform(-5, 5)),
                                p=float(rng.uniform(-2, 2)))
        e = float(10 ** rng.uniform(-3, -1))
        rows[0].append((s.phi, s.theta, s.y, s.p, e))
        d1 = fs.action_angle_rhs(s, e, fm)
        d2 = fs.action_angle_rhs_composed(s, e, fm)
        worst_eq = max(worst_eq, abs(d1.phi - d2.phi), abs(d1.theta - d2.theta),
                       abs(d1.y - d2.y), abs(d1.p - d2.p))
    worst_rt = 0.0
    worst_en = 0.0
    for _ in range(1000):
        s = fs.ActionAngleState(phi=float(rng.uniform(-3, 3)),
                                theta=float(rng.uniform(1e-6, 2.0)),
                                y=float(rng.uniform(-5, 5)),
                                p=float(rng.uniform(-2, 2)))
        e = float(10 ** rng.uniform(-3, -1))
        rows[1].append((s.phi, s.theta, s.y, s.p, e))
        c = fs.from_action_angle(s, e, fm)
        s2 = fs.to_action_angle(c, e, fm)
        c2 = fs.from_action_angle(s2, e, fm)
        worst_rt = max(worst_rt, abs(c.y - c2.y), abs(c.eta - c2.eta),
                       abs(c.z - c2.z), abs(c.zeta - c2.zeta))
        ea = fs.energy_action_angle(s, e, fm)
        ec = fs.energy_cartesian(c, e, fm)
        worst_en = max(worst_en, abs(ea - ec) / max(1.0, abs(ea)))
    return {"eom_form_equivalence": worst_eq, "transform_round_trip": worst_rt,
            "energy_agreement": worst_en}, rows


@pytest.mark.parametrize("flags, preset", [([], "sine"), (["--preset", "fourier"], "fourier")],
                         ids=["default", "fourier"])
def test_check_identities_equal_the_per_state_loops(tmp_path, monkeypatch, flags, preset):
    # check draws each block of states in one call and runs the kernels on
    # arrays; its states and its maxima must be those of the per-state float
    # loops, bit for bit
    draw = lab._identity_states
    drawn = []

    def recorded(rng, theta_lo):
        s, e = draw(rng, theta_lo)
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
        return dataclasses.replace(ex, E1_perp_osc=np.where(
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
        n, rho = fs.floor_frac(r_grid / eps)
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
def test_two_scale_table_matches_per_epsilon_unfolding(preset, epsilons):
    cfg = RunConfig(frequency_preset=preset,
                    frequency_coefficients=fs.model.DEFAULT_COEFFICIENTS[preset],
                    epsilons=epsilons)
    fm, params = cfg.frequency(), cfg.params()
    runs = {eps: fs.reference_run(params, fm, eps, cfg.reference_factor)
            for eps in epsilons}
    table = two_scale_error_table(cfg, fm, params, runs.items())
    assert table == _two_scale_error_table_per_epsilon(cfg, fm, params, runs)
    assert list(table) == list(epsilons)


def test_two_scale_table_rejects_a_run_for_another_epsilon(params, fm):
    cfg = RunConfig(epsilons=(0.04, 0.02))
    ref = fs.reference_run(params, fm, 0.04, cfg.reference_factor)
    with pytest.raises(ValueError, match="epsilon 0.02"):
        two_scale_error_table(cfg, fm, params, [(0.04, ref), (0.01, ref)])


def test_two_scale_table_traced_peak_is_bounded():
    # remainders and unfolding run in blocks of 8,192 points, so the peak no
    # longer holds the full-length temporaries or the 512 x 256 limit
    # surfaces (11.6 MiB before, 1.9 MiB after, on Linux x86-64)
    cfg = RunConfig(epsilons=(0.04,))
    fm, params = cfg.frequency(), cfg.params()
    ref = fs.reference_run(params, fm, 0.04, cfg.reference_factor)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = fs.main([command, "--epsilon", epsilon, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:") and "step budget" in err
    assert "Traceback" not in err


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


def test_public_names_resolve():
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []
