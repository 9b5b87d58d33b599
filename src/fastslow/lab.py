"""Run configuration, file outputs, and the command-line interface.

Five commands: simulate (write trajectories), sweep (convergence orders),
thermo (thermodynamic series and balances), twoscale (unfolding errors),
check (analytic identity suite).  All outputs are deterministic: rerunning
a command with the same configuration reproduces every data file bitwise.

Configuration files are flat "section.key = value" lines; unknown and
repeated keys are rejected.  Exit codes: 0 success, 1 a quantitative
gate failed, 2 bad configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import averaging, dynamics, expansion, integrate, model, phase, thermo
from .integrate import NumericalError


class ConfigError(ValueError):
    """Bad configuration file or option."""


def _key(key: str, default):
    """A RunConfig field, set by the config line `key = value`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated description of a run."""

    frequency_preset: str = _key("frequency.preset", "sine")
    frequency_coefficients: tuple = _key("frequency.coefficients",
                                         model.DEFAULT_COEFFICIENTS["sine"])
    y_star: float = _key("initial.y_star", 0.0)
    p_star: float = _key("initial.p_star", 1.0)
    u_star: float = _key("initial.u_star", 1.0)
    horizon_T: float = _key("run.horizon_T", 1.0)
    epsilons: tuple = _key("run.epsilons", (0.04, 0.02, 0.01, 0.005))
    step_factor: float = _key("integrate.step_factor", 40.0)
    reference_factor: float = _key("integrate.reference_factor", 80.0)
    out_dir: str = _key("output.dir", "runs")
    flip_theta1_sign: bool = _key("debug.flip_theta1_sign", False)

    def frequency(self) -> model.FrequencyModel:
        return model.make_frequency(self.frequency_preset,
                                    self.frequency_coefficients)

    def params(self) -> model.SystemParams:
        return model.SystemParams(self.y_star, self.p_star, self.u_star,
                                  self.horizon_T)

    def echo(self) -> str:
        """Canonical flat-text form; reparsing reproduces this config."""
        lines = [f"{key} = {_echo_value(getattr(self, name), kind)}"
                 for key, (name, kind) in _KEY_FIELDS.items()]
        return "\n".join(lines) + "\n"


# config key -> (field name, value kind), the kind read from the annotation
_KEY_FIELDS = {f.metadata["key"]: (f.name, {"str": str, "float": float, "tuple": "floats",
                                            "bool": "bool"}[f.type])
               for f in fields(RunConfig)}


def _echo_value(value, kind) -> str:
    if kind == "floats":
        return ",".join(repr(v) for v in value)
    if kind == "bool":
        return "true" if value else "false"
    return repr(value) if kind is float else str(value)


def _parse_value(val: str, kind):
    if kind == "floats":
        parsed = tuple(float(x) for x in val.split(",") if x.strip() != "")
        if not parsed:
            raise ValueError("empty list")
        return parsed
    if kind == "bool":
        if val.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return val.lower() == "true"
    return kind(val)


def parse_config_text(text: str) -> RunConfig:
    """Parse flat key = value lines into a validated RunConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, kind = _KEY_FIELDS[key]
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[name] = _parse_value(val, kind)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    # a preset without coefficients takes its own defaults, as --preset does
    preset = values.get("frequency_preset", "sine")
    values.setdefault("frequency_coefficients", model.DEFAULT_COEFFICIENTS.get(
        preset, model.DEFAULT_COEFFICIENTS["sine"]))
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        return parse_config_text(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {p} is not UTF-8 text: {e}") from e


def validate_config(cfg: RunConfig) -> None:
    for key, (name, kind) in _KEY_FIELDS.items():
        if kind in (float, "floats") and not np.all(np.isfinite(getattr(cfg, name))):
            raise ConfigError(f"{key} must be finite")
    if any(e <= 0 for e in cfg.epsilons):
        raise ConfigError("epsilons must be positive")
    if len(cfg.epsilons) > 1 and any(b >= a for a, b in zip(cfg.epsilons, cfg.epsilons[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    if not (cfg.step_factor > 0 and cfg.reference_factor > 0):
        raise ConfigError("step factors must be positive")
    try:  # the commands build both again, from a config that passed here
        cfg.frequency()
        cfg.params()
    except ValueError as e:
        raise ConfigError(str(e)) from e


# 10^j = _POW_HI + _POW_LO, j = 16 - X for each decimal exponent X in [-30, 16]
_POW_HI = np.array([float(10**j) for j in range(47)])
_POW_LO = np.array([float(10**j - int(h)) for j, h in enumerate(_POW_HI.tolist())])
# the ASCII digits of 0..9999, four bytes read as one uint32
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()


def _cell_layouts() -> np.ndarray:
    """The 43 byte slots of a '%.17g' cell by (X + 30, n, sign bit), X the decimal
    exponent and n the significant digits: sign, "0.000" of 1e-4 <= |v| < 1, 17 digits
    each with a point slot after it, "e-dd".  A slot that shows a digit holds 255."""
    X = np.arange(-30, 17)[:, None, None, None]
    n = np.arange(18)[:, None, None]
    i = np.arange(17)
    fixed = X >= -4  # C's %g: fixed notation for -4 <= X < 17
    cells = np.zeros((47, 18, 2, 43), np.uint8)
    np.copyto(cells[..., :1], np.uint8(ord("-")), where=np.arange(2)[:, None] == 1)
    np.copyto(cells[..., 1:6], np.frombuffer(b"0.000", np.uint8),
              where=fixed & (X < 0) & (np.arange(5) < 1 - X))
    np.copyto(cells[..., 6:39:2], np.uint8(255), where=(i < n) | fixed & (i <= X))
    np.copyto(cells[..., 7:39:2], np.uint8(ord(".")),
              where=(i[:16] == np.where(fixed, X, 0)) & (i[:16] + 1 < n))
    exponents = b"".join(b"e-%02d" % -x for x in range(-30, -4))
    cells[:26, ..., 39:] = np.frombuffer(exponents, np.uint8).reshape(26, 1, 1, 4)
    return cells.reshape(-1, 43)


_LAYOUTS = _cell_layouts()


def _format_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each v of the 1-d x, in rows of 43 slots (0 shows nothing).  For
    0 and 1e-30 <= |v| < 1e17, with X a guess of the decimal exponent, |v| 10^(16 - X) is
    p = |v| _POW_HI plus t, p's exact error plus |v| _POW_LO, within 1e-14; it rounds
    half to even to 17 digits N.  Ties, near-ties, a wrong guess (N not in [10^16, 10^17))
    and all other values go to Python's %."""
    a = np.abs(x)
    zero = x == 0.0
    fast = (a >= 1e-30) & (a < 1e17)
    a = np.where(fast, a, 1.0)  # no log10 of 0, and no NaN cast to int
    X = np.floor(np.log10(a)).astype(np.int64)
    j = np.clip(16 - X, 0, 46)
    hi = _POW_HI.take(j)
    (ah, al), (hh, hl) = phase._split(a), phase._split(hi)
    p = a * hi
    t = ((((ah * hh - p) + ah * hl) + al * hh) + al * hl) + a * _POW_LO.take(j)
    frac = t - np.floor(t)
    below = p.astype(np.int64) + np.floor(t).astype(np.int64)
    N = below + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 1e-6) & (below >= 10**16) & (N < 10**17)
    groups = np.stack([N // 10**16, N // 10**12 % 10**4, N // 10**8 % 10**4,
                       N // 10**4 % 10**4, N % 10**4], axis=1)
    digits = _DIGITS4.take(groups).view(np.uint8)[:, 3:]
    n = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)
    cells = _LAYOUTS.take(((np.clip(X, -30, 16) + 30) * 18 + n) * 2 + np.signbit(x), axis=0)
    cells[:, 6:39:2] &= digits
    cells[zero, 6] = ord("0")  # zero took the digits of 1.0
    slow = np.flatnonzero(~(fast | zero))
    cells[slow] = np.array(["%.17g" % v for v in x[slow].tolist()], "S43").view((np.uint8, 43))
    return cells


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write columns (same length) as CSV.  Each column holds only str,
    written as is, or only numbers, written as '%.17g' % float(v)."""
    arrays = [np.asarray(col) for col in columns]
    text = {i: np.array([c.encode() for c in a.tolist()], "S")
            for i, a in enumerate(arrays) if a.dtype.kind == "U"}
    numbers = [i for i in range(len(arrays)) if i not in text]
    width = max([43] + [t.itemsize for t in text.values()]) + 1
    step = max(1, 4096 // len(arrays))  # blocks of 4,096 cells: 32 KiB temporaries
    with path.open("w") as f:  # as write_text opens it
        f.write(",".join(header) + "\n")
        for rows in (slice(r, r + step) for r in range(0, len(arrays[0]), step)):
            block = np.array([arrays[i][rows] for i in numbers], float).T
            cells = np.zeros((len(arrays[0][rows]), len(arrays), width), np.uint8)
            cells[:, numbers, :43] = _format_cells(block.ravel()).reshape(*block.shape, 43)
            for i, t in text.items():
                cells[:, i, :t.itemsize] = t[rows].view((np.uint8, t.itemsize))
            cells[:, :, -1] = ord(",")
            cells[:, -1, -1] = ord("\n")
            f.write(cells.tobytes().translate(None, b"\0").decode("utf-8"))


def write_manifest(out: Path, command: str, cfg: RunConfig, files: list[Path],
                   wall_seconds: float, runs: list | None = None) -> Path:
    from . import __version__

    manifest = {
        "command": command,
        "version": __version__,
        "wall_seconds": round(wall_seconds, 3),
        "config": cfg.echo(),
        "files": {f.name: {"bytes": f.stat().st_size,
                           "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
                  for f in files},
    }
    if runs is not None:
        manifest["runs"] = runs
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.horizon_T, integrate.GRID_POINTS)


class Gate(NamedTuple):
    """One pass/fail line of a command's summary."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


def _finish(command: str, cfg: RunConfig, out: Path, t0: float, files: list,
            report=(), summary: Path | None = None,
            runs: list | None = None) -> int:
    """End a command: write the summary and the manifest, print, and
    return the exit code.

    report holds Gate records and ready-made [INFO] lines in output order;
    summary, one of files, receives the report; runs, when given, goes
    into the manifest as its "runs" list.  The exit code is 1 if any gate
    failed, else 0.
    """
    lines = [str(r) for r in report]
    if summary is not None:
        summary.write_text("\n".join(lines) + "\n")
    mpath = write_manifest(out, command, cfg, files, time.perf_counter() - t0,
                           runs)
    for f in files + [mpath]:
        print(f"wrote {f}")
    if lines:
        print("\n".join(lines))
    return 0 if all(r.ok for r in report if isinstance(r, Gate)) else 1


def _step_fits(cfg: RunConfig, fm, factor_key: str) -> None:
    """A step longer than the horizon, or NaN, is bad configuration (exit 2); a run past the
    step budget at the smallest epsilon, a numerical failure (exit 3) before any solve."""
    factor = getattr(cfg, _KEY_FIELDS[factor_key][0])
    try:
        h = fm.fast_step(cfg.epsilons[0], factor)
    except ZeroDivisionError:  # the same divisor at every epsilon
        raise NumericalError(f"{factor_key} = {factor:g} times the largest frequency "
                             f"{fm.omega_upper_bound:g} underflows to zero in the step at "
                             f"epsilon {cfg.epsilons[0]:g}") from None
    if not h <= cfg.horizon_T:  # inf / inf, when both overflow, is a NaN step
        fit = "longer than" if h > cfg.horizon_T else "no step within"
        raise ConfigError(f"{factor_key} = {factor:g} gives a step of {h:.3g} at epsilon "
                          f"{cfg.epsilons[0]:g}, {fit} run.horizon_T = {cfg.horizon_T:g}")
    fine = 0.5 if factor_key == "integrate.reference_factor" else 1.0  # half-step run
    integrate.step_count(cfg.horizon_T, fine * fm.fast_step(cfg.epsilons[-1], factor))


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    """Write finite-epsilon trajectories, and the homogenized and averaged ones
    from columns 0-2 and 3-6 of the joint slow solve, made before the fast runs."""
    t0 = time.perf_counter()
    fm = cfg.frequency()
    _step_fits(cfg, fm, "integrate.step_factor")
    params = cfg.params()
    dc = model.derived_constants(params, fm)
    grid = _grid(cfg)
    es = integrate.sample(expansion.solve_expansion(params, fm), grid)  # the one slow solve
    files = []
    for eps in cfg.epsilons:
        h = fm.fast_step(eps, cfg.step_factor)
        traj = integrate.integrate_fixed(
            dynamics.action_angle_field(eps, fm),
            np.array([0.0, dc.theta_star, cfg.y_star, cfg.p_star]), cfg.horizon_T, h)
        xs = integrate.sample(traj, grid)
        E = dynamics.energy_action_angle(dynamics.ActionAngleState(*xs.T), eps, fm)
        e_perp = xs[:, 1] * fm.derivs(xs[:, 2])[0]
        p1 = out / f"traj_eps{eps!r}.csv"
        write_csv(p1, ["t", "phi", "theta", "y", "p", "E", "E_perp", "E_par"],
                  [grid, xs[:, 0], xs[:, 1], xs[:, 2], xs[:, 3], E, e_perp,
                   E - e_perp])
        files.append(p1)

        ctraj = integrate.integrate_fixed(
            dynamics.cartesian_field(eps, fm),
            np.array([cfg.y_star, cfg.p_star, 0.0, cfg.u_star]), cfg.horizon_T, h)
        cs = integrate.sample(ctraj, grid)
        ce_perp, ce_par = dynamics.energy_cartesian(dynamics.CartesianState(*cs.T), eps, fm)
        p2 = out / f"cart_eps{eps!r}.csv"
        write_csv(p2, ["t", "y", "eta", "z", "zeta", "E", "E_perp", "E_par"],
                  [grid, cs[:, 0], cs[:, 1], cs[:, 2], cs[:, 3],
                   ce_perp + ce_par, ce_perp, ce_par])
        files.append(p2)

    e0 = 0.5 * es[:, 2] ** 2 + dc.theta_star * fm.derivs(es[:, 1])[0]
    p3 = out / "homogenized.csv"
    write_csv(p3, ["t", "phi0", "y0", "p0", "theta0", "E0"],
              [grid, es[:, 0], es[:, 1], es[:, 2], np.full(grid.size, dc.theta_star), e0])
    files.append(p3)
    p4 = out / "averaged.csv"
    write_csv(p4, ["t", "phi2_bar", "theta2_bar", "y2_bar", "p2_bar"],
              [grid, es[:, 3], es[:, 4], es[:, 5], es[:, 6]])
    files.append(p4)
    return _finish("simulate", cfg, out, t0, files)


# an unscaled residual indistinguishable from integrator rounding noise
ROUNDING_LEVEL = 1e-12


def _rounding_gate(name: str, raw: float, ok: bool, detail: str) -> Gate:
    """A gate, passed outright when the unscaled residual it judges, raw, is
    at rounding level: a trend or an order of rounding noise means nothing."""
    if raw <= ROUNDING_LEVEL:
        return Gate(name, True, f"residual at rounding level ({raw:.1e})")
    return Gate(name, ok, detail)


def _reference_runs(cfg: RunConfig, fm, params, runs: list):
    """Yield (epsilon, reference run) per epsilon of cfg, each made when asked
    for, and append its manifest record to runs.  The generator drops each run
    once resumed, so a run lives only while its consumer holds it."""
    grid = _grid(cfg)
    for eps in cfg.epsilons:
        ref = expansion.reference_run(params, fm, eps, cfg.reference_factor)
        runs.append({"epsilon": eps,
                     "richardson_error": float(ref.meta["richardson_error"]),
                     "theta_min": float(np.min(integrate.sample(ref, grid, component=1)))})
        yield eps, ref
        del ref


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    """Convergence orders of the reconstruction across epsilons."""
    t0 = time.perf_counter()
    fm = cfg.frequency()
    _step_fits(cfg, fm, "integrate.reference_factor")
    params = cfg.params()
    grid = _grid(cfg)
    base, corr = expansion.eval_expansion(expansion.solve_expansion(params, fm), grid)
    runs = []
    rep = expansion.residual_norms(params, fm, grid, base, corr,
                                   _reference_runs(cfg, fm, params, runs))
    eps = np.array(rep.epsilons)
    rows = [(e, f"{var}_{fam}", sups[i], rep.normalized[fam][var][i])
            for fam in ("leading", "first", "second")
            for var, sups in sorted(rep.families[fam].items())
            for i, e in enumerate(eps)]
    p1 = out / "residuals.csv"
    write_csv(p1, ["epsilon", "variable", "sup_norm", "normalized_norm"], list(zip(*rows)))

    can_fit = len(eps) >= 3
    gated = [("leading", "y"), ("leading", "p"), ("leading", "phi"), ("first", "theta")]
    second = [("second", var) for var in sorted(rep.families["second"])]
    raw = {(fam, var): np.max(rep.families[fam][var]) for fam, var in gated + second}
    fits = {(fam, var): averaging.estimate_order(eps[-3:], rep.families[fam][var][-3:])
            for fam, var in gated + second if can_fit and raw[fam, var] > ROUNDING_LEVEL}
    order_rows = [(f"{var}_{fam}", *fit) for (fam, var), fit in fits.items()]

    gates = []
    for fam, var in gated if can_fit else ():
        order, r2 = fits.get((fam, var), (math.nan, math.nan))
        gates.append(_rounding_gate(f"order {var}_{fam} >= 1.9, R^2 >= 0.98",
                                    raw[fam, var], order >= 1.9 and r2 >= 0.98,
                                    f"order={order:.3f} R^2={r2:.5f}"))
    for key in second if len(eps) >= 2 else ():
        vals = rep.normalized["second"][key[1]]
        gates.append(_rounding_gate(
            f"normalized second-order residual of {key[1]} strictly decreasing",
            raw[key], bool(np.all(np.diff(vals) < 0)),
            " -> ".join(f"{v:.3e}" for v in vals)))
    drift_ok = bool(np.all(rep.energy_drift <= 1e-8))
    gates.append(Gate("energy drift <= 1e-8 at every epsilon", drift_ok,
                      " ".join(f"{v:.2e}" for v in rep.energy_drift)))

    p2 = out / "orders.csv"
    write_csv(p2, ["variable", "order", "r_squared"],
              [[r[i] for r in order_rows] for i in range(3)])

    if not can_fit:
        gates.append("[INFO] fewer than three epsilons: order gates skipped")
    summary = out / "summary.txt"
    return _finish("sweep", cfg, out, t0, [p1, p2, summary], gates, summary,
                   runs)


def cmd_thermo(cfg: RunConfig, out: Path) -> int:
    """Thermodynamic series, balance residuals, and oscillator diagnostics."""
    t0 = time.perf_counter()
    fm = cfg.frequency()
    _step_fits(cfg, fm, "integrate.reference_factor")
    params = cfg.params()
    dc = model.derived_constants(params, fm)
    if not dc.theta_star > 0.0:
        raise ConfigError(f"initial.u_star = {cfg.u_star:g} gives zero action, where "
                          "the entropy log(theta) is undefined")
    grid = _grid(cfg)
    dt = grid[1] - grid[0]
    base, corr = expansion.eval_expansion(expansion.solve_expansion(params, fm), grid)
    eps_ref = min(cfg.epsilons)
    cv = expansion.correctors(base, corr.phi2_bar, eps_ref, fm, dc.theta_star)
    th = thermo.expand_thermo(base, corr, cv, dc.theta_star, fm)
    ex = thermo.energy_expansion(base, corr, cv, eps_ref, dc.theta_star, fm)
    bundle = thermo.averaged_energy_bundle(base, corr, fm, dc)

    lead = thermo.check_first_law(ex.E0_perp, base.y0, th.S0, th.F0, th.T0, dt)
    literal = thermo.check_first_law(ex.E2_perp_bar, corr.y2_bar, th.S2_doublebar,
                                     th.F0, th.T0, dt)
    # the second-order balance closes with the work of F2_bar through dy0
    second = literal - th.F2_bar * thermo.fd4_derivative(base.y0, dt)
    rhs = expansion.averaged_rhs(corr, base, fm, dc.theta_star)
    hamilton_y = np.max(np.abs(rhs.y2_bar - bundle.dE2_dp0))
    hamilton_p = np.max(np.abs(rhs.p2_bar + bundle.dE2_dy0))
    e2_bar_sup = np.max(np.abs(ex.E2_bar))
    identity_sup = np.max(np.abs(
        expansion.averaged_action_identity(base, corr, fm, dc.theta_star)))
    closed_form_gap = np.max(np.abs(
        corr.theta2_bar - dc.theta_star * bundle.S2_doublebar_closed))
    p1 = out / "thermo.csv"
    write_csv(p1, ["t", "T0", "F0", "S0", "S2_doublebar", "E2_perp_bar",
                   "E2_par_bar", "first_law_residual"],
              [grid, th.T0, th.F0, th.S0, th.S2_doublebar, ex.E2_perp_bar,
               ex.E2_par_bar, second])

    t_check = thermo.hertz_temperature_oracle(0.5 * params.u_star**2, params.y_star, fm)
    # (name, tolerance as printed, the values it bounds)
    gates = [Gate(f"{name} <= {tol}", max(values) <= float(tol),
                  " ".join(f"{v:.3e}" for v in values))
             for name, tol, *values in (
                 ("leading-order energy balance", "1e-8", np.max(np.abs(lead))),
                 ("second-order energy balance", "1e-6", np.max(np.abs(second))),
                 ("averaged second-order energy vanishes", "1e-8", e2_bar_sup),
                 ("averaged action identity", "1e-8", identity_sup),
                 ("closed-form doubly averaged entropy matches trajectory", "1e-8",
                  closed_form_gap),
                 ("Hamilton-form residuals", "1e-7", hamilton_y, hamilton_p),
                 ("period-average temperature equals oscillator energy", "1e-10",
                  abs(t_check - 0.5 * params.u_star**2)),
             )]
    # ten fixed points: the midpoint slices' relative error depends on neither E nor omega
    vol_worst = 0.0
    for E, yv in zip(np.linspace(0.05, 2.0, 10).tolist(), np.linspace(-3.0, 3.0, 10).tolist()):
        cl = thermo.phase_space_volume(E, yv, fm)
        qu = thermo.phase_space_volume(E, yv, fm, method="area-quadrature")
        vol_worst = max(vol_worst, abs(qu - cl) / cl)
    gates.append(Gate("enclosed-area quadrature within 0.5% of closed form",
                      vol_worst <= 0.005, f"{vol_worst:.3e}"))

    lines, equip, runs = [], [], []
    for eps, ref in _reference_runs(cfg, fm, params, runs):
        rep = thermo.equipartition_check(ref, eps, fm)
        equip.append(rep)
        xs = integrate.sample(ref, grid)
        t_gap = np.abs(xs[:, 1] * fm.derivs(xs[:, 2])[0] - th.T0)
        theta_gap = np.abs(xs[:, 1] - dc.theta_star)
        lines.append(f"[INFO] eps={eps:g}: equipartition gap {rep.gap_max:.3e}, "
                     f"sup|dz/dt*z| {rep.xi_sup:.3e}, "
                     f"sup|T_eps-T0|/eps {np.max(t_gap)/eps:.3e}, "
                     f"sup|theta_eps-theta*|/eps {np.max(theta_gap)/eps:.3e}")
        del ref  # so the next run is made with this one already freed
    if len(cfg.epsilons) >= 2:
        gaps = [r.gap_max for r in equip]
        gates.append(_rounding_gate("windowed equipartition gap decreasing across epsilons",
                                    max(gaps), bool(np.all(np.diff(gaps) < 0)),
                                    " -> ".join(f"{g:.3e}" for g in gaps)))
    if len(cfg.epsilons) >= 3:
        xi_order, _ = averaging.estimate_order(cfg.epsilons,
                                               [r.xi_sup for r in equip])
        gates.append(Gate("virial product sup-norm order >= 0.9", xi_order >= 0.9,
                          f"{xi_order:.3f}"))
    gates.append("[INFO] quasi-static gap (work of second-order force), reported, not "
                 f"asserted: {np.max(np.abs(literal)):.3e}")
    lines.append("[INFO] entropy normalization: additive constant -log(theta_star) "
                 f"= {dc.entropy_constant!r} pins initial entropy to zero")
    summary = out / "thermo_summary.txt"
    return _finish("thermo", cfg, out, t0, [p1, summary], lines + gates, summary,
                   runs)


TWO_SCALE_VARIABLES = ("theta1", "phi2", "y2", "p2", "theta2")


def two_scale_error_table(cfg: RunConfig, fm, params, runs) -> dict:
    """Unfolding errors of the five rescaled remainders, per epsilon.

    All five are unfolded in one call for the whole ladder, so the phase
    is inverted once; runs yields an (epsilon, reference run) pair per epsilon
    of cfg, taken in order as each is unfolded.  Returns {epsilon: {variable:
    sup_error}}.
    """
    pairs = iter(runs)
    theta_star = model.derived_constants(params, fm).theta_star
    etraj = expansion.solve_expansion(params, fm)

    def limit(t, s):  # t shaped (rows, 1), s (1, 256)
        base, corr = expansion.eval_expansion(etraj, t.ravel())
        b = expansion.HomogenizedState(base.phi0[:, None], base.y0[:, None], base.p0[:, None])
        cv = expansion.two_scale_limits(b, corr.phi2_bar[:, None], s, fm, theta_star)
        return (cv.theta1,
                corr.phi2_bar[:, None] + cv.phi2,
                corr.y2_bar[:, None] + cv.y2,
                corr.p2_bar[:, None] + cv.p2,
                corr.theta2_bar[:, None] + cv.theta2)

    def u(eps, ts):
        run_eps, ref = next(pairs, (None, None))
        if run_eps != eps:
            raise ValueError(f"no reference run for epsilon {eps:g}")
        out = np.empty((len(TWO_SCALE_VARIABLES), ts.size))
        for i in range(0, ts.size, integrate._BLOCK):  # bounded temporaries
            blk = slice(i, i + integrate._BLOCK)
            xs = integrate.sample(ref, ts[blk])
            base, corr = expansion.eval_expansion(etraj, ts[blk])
            cv = expansion.correctors(base, corr.phi2_bar, eps, fm, theta_star)
            theta1 = (xs[:, 1] - theta_star) / eps
            out[:, blk] = (theta1,
                           (xs[:, 0] - base.phi0) / eps**2,
                           (xs[:, 2] - base.y0) / eps**2,
                           (xs[:, 3] - base.p0) / eps**2,
                           (theta1 - cv.theta1) / eps)
        return out

    table = averaging.nonlinear_two_scale_error(u, limit, etraj, cfg.epsilons)
    return {eps: dict(zip(TWO_SCALE_VARIABLES, errs, strict=True))
            for eps, (errs, _) in zip(cfg.epsilons, table, strict=True)}


def cmd_twoscale(cfg: RunConfig, out: Path) -> int:
    """Unfolding errors of the rescaled remainders against their limits."""
    t0 = time.perf_counter()
    fm = cfg.frequency()
    _step_fits(cfg, fm, "integrate.reference_factor")
    params = cfg.params()
    runs = []
    table = two_scale_error_table(cfg, fm, params, _reference_runs(cfg, fm, params, runs))
    eps_list = list(table)
    rows = [(eps, var, table[eps][var]) for eps in eps_list for var in TWO_SCALE_VARIABLES]
    p1 = out / "twoscale.csv"
    write_csv(p1, ["epsilon", "variable", "sup_error"], list(zip(*rows)))
    report = []
    if len(eps_list) >= 2:
        for var in TWO_SCALE_VARIABLES:
            seq = [table[e][var] for e in eps_list]
            # theta1 is rescaled by 1/eps, the others by 1/eps^2
            raw = max(v * e ** (1 if var == "theta1" else 2) for e, v in zip(eps_list, seq))
            report.append(_rounding_gate(f"unfolding error of {var} strictly decreasing",
                                         raw, bool(np.all(np.diff(seq) < 0)),
                                         " -> ".join(f"{v:.3e}" for v in seq)))
    else:
        report.append("[INFO] single epsilon: table emitted, no trend gate")
    summary = out / "summary.txt"
    return _finish("twoscale", cfg, out, t0, [p1, summary], report, summary,
                   runs)


def _identity_states(theta_lo: float):
    """1,000 action-angle states and one epsilon each on a fixed lattice: row k
    puts phi, theta, y, p and log10(epsilon) at the fractional parts of
    k*sqrt(2), k*sqrt(3), k*sqrt(5), k*sqrt(7) and k*sqrt(11) of their ranges."""
    lo = np.array([-3.0, theta_lo, -5.0, -2.0, -3.0])
    hi = np.array([3.0, 2.0, 5.0, 2.0, -1.0])
    u = lo + (hi - lo) * (np.arange(1, 1001)[:, None] * np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0]) % 1.0)
    # float_power is libm's pow, as Python's 10 ** x is; np.power may differ in the last bit
    return dynamics.ActionAngleState(*u[:, :4].T), np.float_power(10.0, u[:, 4])


def cmd_check(cfg: RunConfig, out: Path) -> int:
    """Analytic identity suite; debug.flip_theta1_sign must make it fail."""
    t0 = time.perf_counter()
    fm = cfg.frequency()
    params = cfg.params()
    dc = model.derived_constants(params, fm)
    grid = _grid(cfg)
    base, corr = expansion.eval_expansion(expansion.solve_expansion(params, fm), grid)

    checks = []

    # the correctors reduce 2*phi0/eps, whose Dekker split must stay finite
    peak, eps = float(np.max(np.abs(base.phi0))), cfg.epsilons[-1]  # the smallest
    if not math.isfinite(phase._SPLIT * (2.0 * peak / eps)):
        raise ConfigError(f"run.epsilons: epsilon {eps:g} overflows the phase "
                          f"reduction of 2*phi/epsilon (|phi| up to {peak:.3g})")
    e1, e2 = [], []
    for eps in cfg.epsilons:
        cv = expansion.correctors(base, corr.phi2_bar, eps, fm, dc.theta_star)
        cv_used = cv._replace(theta1=-cv.theta1) if cfg.flip_theta1_sign else cv
        ex = thermo.energy_expansion(base, corr, cv_used, eps, dc.theta_star, fm)
        e1.append(np.max(np.abs(ex.E1_perp_osc + ex.E1_par_osc)))
        e2.append(np.max(np.abs(ex.E2_perp_osc + ex.E2_par_osc)))
    # np.max, unlike the builtin max, keeps a NaN, which then fails the gate
    checks.append(("first_order_energy_identity", float(np.max(e1)), 1e-13))
    checks.append(("second_order_energy_identity", float(np.max(e2)), 1e-13))

    ident = expansion.averaged_action_identity(base, corr, fm, dc.theta_star)
    checks.append(("averaged_action_constraint", float(np.max(np.abs(ident))), 1e-8))

    # E2_bar depends on neither the correctors nor epsilon, so the loop's last ex serves
    checks.append(("averaged_energy_zero", float(np.max(np.abs(ex.E2_bar))), 1e-8))

    s, e = _identity_states(1e-3)
    # action_angle_rhs wraps the integrators' float field, so it runs per state
    d1 = [dynamics.action_angle_rhs(dynamics.ActionAngleState(*x), e_x, fm)[:4]
          for *x, e_x in np.c_[s.phi, s.theta, s.y, s.p, e].tolist()]
    d2 = dynamics.action_angle_rhs_composed(s, e, fm)[:4]
    checks.append(("eom_form_equivalence", float(np.max(np.abs(np.transpose(d1) - d2))), 1e-14))

    s, e = _identity_states(1e-6)
    c = dynamics.from_action_angle(s, e, fm)
    c2 = dynamics.from_action_angle(dynamics.to_action_angle(c, e, fm), e, fm)
    worst_rt = float(np.max(np.abs(np.subtract(c, c2))))
    checks.append(("transform_round_trip", worst_rt, 1e-12))
    ea = dynamics.energy_action_angle(s, e, fm)
    e_perp, e_par = dynamics.energy_cartesian(c, e, fm)
    worst_en = float(np.max(np.abs(ea - (e_perp + e_par)) / np.maximum(1.0, np.abs(ea))))
    checks.append(("energy_agreement", worst_en, 1e-13))

    fd = model.finite_difference_report(fm)
    checks.append(("derivative_consistency", max(fd.values()), 1e-6))

    results = {name: {"value": value if math.isfinite(value) else None,  # JSON has no NaN
                      "tolerance": tol, "pass": bool(value <= tol)}
               for name, value, tol in checks}
    p2 = out / "check.json"
    p2.write_text(json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n")
    gates = [Gate(name, value <= tol, f"value={value:.3e} tol={tol:.0e}")
             for name, value, tol in checks]
    summary = out / "check.txt"
    return _finish("check", cfg, out, t0, [summary, p2], gates, summary)


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "thermo": cmd_thermo,
    "twoscale": cmd_twoscale,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Numerical laboratory for a fast-slow Hamiltonian oscillator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.add_argument("--config", metavar="PATH", default=None,
                        help="configuration file (flat key = value lines)")
        sp.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: output.dir from config)")
        sp.add_argument("--epsilon", metavar="CSV", default=None,
                        help="override run.epsilons, comma-separated")
        sp.add_argument("--preset", metavar="NAME", default=None,
                        help="override frequency preset with its default coefficients")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.preset is not None:
            if args.preset not in model.DEFAULT_COEFFICIENTS:
                raise ConfigError(f"unknown preset {args.preset!r}")
            cfg = replace(cfg, frequency_preset=args.preset,
                          frequency_coefficients=model.DEFAULT_COEFFICIENTS[args.preset])
        if args.epsilon is not None:
            try:
                cfg = replace(cfg, epsilons=_parse_value(args.epsilon, "floats"))
            except ValueError as e:
                raise ConfigError(f"bad --epsilon list: {e}") from e
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        validate_config(cfg)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as e:  # OSError: unreadable config, or out unusable
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except averaging.PhaseRangeError as e:  # it names the epsilon
        print(f"configuration error: run.epsilons: {e}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as e:  # float ** overflow, division by zero
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
