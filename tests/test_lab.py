"""Configuration parsing, file outputs, CLI exit codes, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

import fastslow as fs
from fastslow.lab import RunConfig, parse_config_text, write_csv


def file_hashes(d, skip=("manifest.json",)):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.name not in skip}


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
    "output.grid_points = 3",
    "integrate.rtol = 0",
    "frequency.preset = sine\nfrequency.coefficients = 1,1",
    "debug.flip_theta1_sign = maybe",
    "just a line without equals",
    "run.epsilons = 0.04,nan",
    "integrate.step_factor = inf",
    "run.horizon_T = inf",
    "initial.u_star = inf",
    "initial.y_star = nan",
    "frequency.coefficients = 2,-inf",
    "integrate.max_slow_step = nan",
    "integrate.max_slow_step = -inf",
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


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_zero_action_accepted_outside_thermo(tmp_path, command):
    config = tmp_path / "zero.txt"
    config.write_text("initial.u_star = 0\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="zero action"):
        rc = fs.main([command, "--config", str(config), "--out", str(out),
                      "--epsilon", "0.04"])
    assert rc == 0


def test_max_slow_step_inf_means_no_cap():
    assert parse_config_text("integrate.max_slow_step = inf").max_slow_step == math.inf


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = fs.main(["check", "--config", str(tmp_path / "nope.txt")])
    assert rc == 2


def test_bad_epsilon_flag_exits_2(tmp_path):
    assert fs.main(["check", "--epsilon", "abc", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--epsilon", "", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--epsilon", "nan", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--epsilon", "0.04,inf", "--out", str(tmp_path)]) == 2
    assert fs.main(["sweep", "--epsilon", "nan", "--out", str(tmp_path)]) == 2
    assert fs.main(["simulate", "--epsilon", "inf", "--out", str(tmp_path)]) == 2
    assert fs.main(["check", "--preset", "unknown", "--out", str(tmp_path)]) == 2


def _write_csv_per_cell(path, header, columns):
    """The per-cell writer that write_csv replaced, kept as its oracle."""
    def fmt(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return f"{float(x):.17g}"
    rows = [",".join(header)]
    for i in range(len(columns[0])):
        rows.append(",".join(fmt(col[i]) for col in columns))
    path.write_text("\n".join(rows) + "\n")


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


def test_sign_flip_control_fails_check(tmp_path):
    cfgfile = tmp_path / "flip.txt"
    cfgfile.write_text("debug.flip_theta1_sign = true\n"
                       "run.epsilons = 0.04\n")
    rc = fs.main(["check", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads((tmp_path / "o" / "check.json").read_text())
    assert not report["first_order_energy_identity"]["pass"]


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


def test_sweep_gates_and_worker_invariance(tmp_path, monkeypatch):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--epsilon", "0.04,0.02,0.01"]
    assert fs.main(args + ["--out", str(d1)]) == 0
    monkeypatch.setenv("FASTSLOW_WORKERS", "2")
    assert fs.main(args + ["--out", str(d2)]) == 0
    assert file_hashes(d1) == file_hashes(d2)
    summary = (d1 / "summary.txt").read_text()
    assert "FAIL" not in summary
    rows = (d1 / "residuals.csv").read_text().splitlines()
    assert rows[0] == "epsilon,variable,sup_norm,normalized_norm"
    assert len(rows) == 1 + 3 * 9  # 3 epsilons x (4 leading + 1 first + 4 second)
    runs = json.loads((d1 / "manifest.json").read_text())["runs"]
    assert runs == json.loads((d2 / "manifest.json").read_text())["runs"]
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
    assert "no trend gate" in (out / "summary.txt").read_text()
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [sorted(r) for r in runs] == [["epsilon", "richardson_error"]]
    assert runs[0]["epsilon"] == 0.04
    assert 0.0 < runs[0]["richardson_error"] <= 1e-8


def test_preset_and_epsilon_flags_land_in_manifest(tmp_path):
    out = tmp_path / "m"
    rc = fs.main(["simulate", "--preset", "constant", "--epsilon", "0.04",
                  "--out", str(out)])
    assert rc == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert "frequency.preset = constant" in echo
    assert "run.epsilons = 0.04" in echo


def test_thermo_command_structure(tmp_path):
    out = tmp_path / "th"
    rc = fs.main(["thermo", "--epsilon", "0.04,0.02", "--out", str(out)])
    assert rc == 0
    rows = (out / "thermo.csv").read_text().splitlines()
    assert rows[0] == "t,T0,F0,S0,S2_doublebar,E2_perp_bar,E2_par_bar,first_law_residual"
    assert len(rows) == 2002
    summary = (out / "thermo_summary.txt").read_text()
    assert "FAIL" not in summary
    assert "entropy normalization" in summary
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["epsilon"] for r in runs] == [0.04, 0.02]
    assert all(0.0 < r["richardson_error"] <= 1e-8 for r in runs)
    assert all(0.0 < r["theta_min"] < 1.0 for r in runs)


@pytest.mark.parametrize("command, epsilon", [("twoscale", "0.5"), ("thermo", "0.9")])
def test_epsilon_too_large_for_the_phase_range_exits_2(tmp_path, capsys,
                                                       command, epsilon):
    rc = fs.main([command, "--epsilon", epsilon, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "run.epsilons" in err


@pytest.mark.parametrize("command", ["sweep", "thermo", "twoscale"])
def test_reference_error_cap_applies_to_every_command(tmp_path, command):
    # factor 10 leaves the eps = 0.04 run above the 1e-8 Richardson cap
    cfgfile = tmp_path / "coarse.txt"
    cfgfile.write_text("integrate.reference_factor = 10\n"
                       "run.epsilons = 0.04,0.02\n")
    rc = fs.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_public_names_resolve():
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []
