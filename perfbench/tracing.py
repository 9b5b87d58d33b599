"""Traced in-process runs: spans around calls into the program's modules.

The spans come from this file alone; no file of the program changes.  A
wrapper replaces each traced function at every place it is bound: the
defining module and every module that took it with `from ... import`, the
`lab._COMMANDS` table, the `FrequencyModel.derivs` method, and the vector
field closures that `action_angle_field` and `cartesian_field` return.

A span records its name, start, end and parent span.  Spans stay in memory
until the run ends and are then written to one .npz file.  A span's self
time is its duration minus the durations of its child spans.  The metric
definitions are in layer_metrics(); every count in it must repeat exactly
from run to run, which measure() checks across its traced repeats.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import cli
import outputs


class Tracer:
    """Spans kept as parallel lists; index -1 is the root parent."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.qty: list = []
        self._stack = [-1]

    def wrap(self, name, fn, measure=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, qty, stack = self.parents, self.qty, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            qty.append(None)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                qty[i] = measure(args, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        import numpy as np

        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        np.savez(path, names=np.array(table),
                 name=np.array([code[n] for n in self.names], dtype=np.int16),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int64))


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def install(tracer: Tracer):
    """Put traced wrappers in place; returns a function that undoes it."""
    from fastslow import (averaging, dynamics, expansion, homogenized,
                          integrate, lab, model, phase, thermo)
    import fastslow

    integrate_controlled = integrate.integrate_controlled
    rhs_calls = [0]

    def controlled(rhs, *args, **kwargs):
        def counted(t, x):
            rhs_calls[0] += 1
            return rhs(t, x)
        rhs_calls[0] = 0
        return integrate_controlled(counted, *args, **kwargs)

    def field_factory(factory):
        def make(*args, **kwargs):
            return tracer.wrap("dynamics.field", factory(*args, **kwargs))
        return make

    def csv_size(args, result):
        path, _, columns = args
        return len(columns) * len(columns[0]), path.stat().st_size

    plain = {
        phase: ("reduced_sincos", "reduced_sincos_array"),
        integrate: ("integrate_fixed", "reference_solution", "sample",
                    "invert_monotone"),
        homogenized: ("solve_homogenized",),
        expansion: ("solve_expansion", "eval_expansion", "correctors",
                    "two_scale_limits", "residual_norms"),
        averaging: ("nonlinear_two_scale_error", "windowed_average"),
        thermo: ("expand_thermo", "energy_expansion", "averaged_energy_bundle",
                 "check_first_law", "equipartition_check",
                 "hertz_temperature_oracle", "phase_space_volume"),
        lab: ("write_csv", "write_manifest") + tuple(
            fn.__name__ for fn in lab._COMMANDS.values()),
    }
    measures = {
        "phase.reduced_sincos_array": lambda a, r: _size(a[0]),
        "integrate.integrate_fixed": lambda a, r: r.meta["n_steps"],
        "integrate.reference_solution": lambda a, r: r.meta["richardson_error"],
        "integrate.sample": lambda a, r: _size(a[1]),
        "integrate.invert_monotone": lambda a, r: _size(a[1]),
        "integrate.integrate_controlled": lambda a, r: (
            r.meta["n_accept"], r.meta["n_reject"], rhs_calls[0]),
        "expansion.correctors": lambda a, r: _size(r.theta1),
        "expansion.two_scale_limits": lambda a, r: _size(r.theta1),
        "lab.write_csv": csv_size,
    }
    swap = {}
    for mod, names in plain.items():
        short = mod.__name__.rpartition(".")[2]
        for n in names:
            span = f"{short}.{n}"
            swap[getattr(mod, n)] = tracer.wrap(span, getattr(mod, n),
                                                measures.get(span))
    swap[integrate_controlled] = tracer.wrap(
        "integrate.integrate_controlled", controlled,
        measures["integrate.integrate_controlled"])
    for factory in (dynamics.action_angle_field, dynamics.cartesian_field):
        swap[factory] = field_factory(factory)

    undo = []
    for mod in (fastslow, model, phase, dynamics, integrate, homogenized,
                expansion, averaging, thermo, lab):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in swap:
                setattr(mod, attr, swap[value])
                undo.append((mod, attr, value))
    commands = dict(lab._COMMANDS)
    lab._COMMANDS.update({k: swap[v] for k, v in commands.items()})
    derivs = model.FrequencyModel.derivs
    model.FrequencyModel.derivs = tracer.wrap("model.derivs", derivs)

    def restore():
        for mod, attr, value in undo:
            setattr(mod, attr, value)
        lab._COMMANDS.update(commands)
        model.FrequencyModel.derivs = derivs

    return restore


# metric -> unit; layer_metrics() fills every one of them
UNITS = {
    "dynamics.field_calls": "count", "dynamics.field_self_s": "s",
    "dynamics.us_per_field_call": "us",
    "model.derivs_calls": "count", "model.derivs_self_s": "s",
    "phase.scalar_calls": "count", "phase.scalar_self_s": "s",
    "phase.array_elems": "count", "phase.array_s": "s",
    "integrate.rk4_runs": "count", "integrate.rk4_steps": "count",
    "integrate.rk4_self_s": "s", "integrate.reference_runs": "count",
    "integrate.reference_s": "s", "integrate.richardson_error_max": "1",
    "integrate.dopri_accepted": "count", "integrate.dopri_rejected": "count",
    "integrate.dopri_rhs_calls": "count", "integrate.controlled_s": "s",
    "expansion.solve_calls": "count", "expansion.solve_s": "s",
    "homogenized.solve_calls": "count", "homogenized.solve_s": "s",
    "integrate.sample_calls": "count", "integrate.sample_points": "count",
    "integrate.sample_self_s": "s", "integrate.invert_calls": "count",
    "integrate.invert_targets": "count", "integrate.invert_s": "s",
    "integrate.invert_yield": "ratio",
    "averaging.unfold_calls": "count", "averaging.unfold_self_s": "s",
    "averaging.window_calls": "count", "averaging.window_self_s": "s",
    "expansion.correctors_elems": "count", "expansion.correctors_s": "s",
    "expansion.residual_norms_self_s": "s",
    "thermo.kernels_s": "s", "thermo.equipartition_self_s": "s",
    "thermo.quadrature_s": "s",
    "lab.csv_files": "count", "lab.csv_cells": "count", "lab.csv_bytes": "count",
    "lab.write_csv_s": "s", "lab.manifest_s": "s", "lab.command_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced command, except trace.overhead_s.

    `*_self_s` is self time; the other times are inclusive, so they carry
    the tracing cost of their child spans (trace.overhead_s is the total).
    """
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child[p] += dur[i]
    calls, incl, own, qty = {}, {}, {}, {}
    sampled_in_invert = 0
    for i, name in enumerate(tr.names):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + dur[i] - child[i]
        if tr.qty[i] is not None:
            qty.setdefault(name, []).append(tr.qty[i])
            p = tr.parents[i]
            if name == "integrate.sample" and p >= 0 \
                    and tr.names[p] == "integrate.invert_monotone":
                sampled_in_invert += tr.qty[i]

    def c(name):
        return calls.get(name, 0)

    def s(table, *names):
        return sum(table.get(nm, 0.0) for nm in names)

    def q(name, k=None):
        vals = qty.get(name, [])
        return sum(v if k is None else v[k] for v in vals)

    commands = [nm for nm in calls if nm.startswith("lab.cmd_")]
    fields = c("dynamics.field")
    targets = q("integrate.invert_monotone")
    return {
        "dynamics.field_calls": fields,
        "dynamics.field_self_s": s(own, "dynamics.field"),
        "dynamics.us_per_field_call":
            1e6 * s(incl, "dynamics.field") / fields if fields else 0.0,
        "model.derivs_calls": c("model.derivs"),
        "model.derivs_self_s": s(own, "model.derivs"),
        "phase.scalar_calls": c("phase.reduced_sincos"),
        "phase.scalar_self_s": s(own, "phase.reduced_sincos"),
        "phase.array_elems": q("phase.reduced_sincos_array"),
        "phase.array_s": s(incl, "phase.reduced_sincos_array"),
        "integrate.rk4_runs": c("integrate.integrate_fixed"),
        "integrate.rk4_steps": q("integrate.integrate_fixed"),
        "integrate.rk4_self_s": s(own, "integrate.integrate_fixed"),
        "integrate.reference_runs": c("integrate.reference_solution"),
        "integrate.reference_s": s(incl, "integrate.reference_solution"),
        "integrate.richardson_error_max":
            max(qty.get("integrate.reference_solution", [0.0])),
        "integrate.dopri_accepted": q("integrate.integrate_controlled", 0),
        "integrate.dopri_rejected": q("integrate.integrate_controlled", 1),
        "integrate.dopri_rhs_calls": q("integrate.integrate_controlled", 2),
        "integrate.controlled_s": s(incl, "integrate.integrate_controlled"),
        "expansion.solve_calls": c("expansion.solve_expansion"),
        "expansion.solve_s": s(incl, "expansion.solve_expansion"),
        "homogenized.solve_calls": c("homogenized.solve_homogenized"),
        "homogenized.solve_s": s(incl, "homogenized.solve_homogenized"),
        "integrate.sample_calls": c("integrate.sample"),
        "integrate.sample_points": q("integrate.sample"),
        "integrate.sample_self_s": s(own, "integrate.sample"),
        "integrate.invert_calls": c("integrate.invert_monotone"),
        "integrate.invert_targets": targets,
        "integrate.invert_s": s(incl, "integrate.invert_monotone"),
        "integrate.invert_yield":
            targets / sampled_in_invert if sampled_in_invert else 0.0,
        "averaging.unfold_calls": c("averaging.nonlinear_two_scale_error"),
        "averaging.unfold_self_s": s(own, "averaging.nonlinear_two_scale_error"),
        "averaging.window_calls": c("averaging.windowed_average"),
        "averaging.window_self_s": s(own, "averaging.windowed_average"),
        "expansion.correctors_elems":
            q("expansion.correctors") + q("expansion.two_scale_limits"),
        "expansion.correctors_s":
            s(incl, "expansion.correctors", "expansion.two_scale_limits"),
        "expansion.residual_norms_self_s": s(own, "expansion.residual_norms"),
        "thermo.kernels_s": s(incl, "thermo.expand_thermo", "thermo.energy_expansion",
                              "thermo.averaged_energy_bundle",
                              "thermo.check_first_law"),
        "thermo.equipartition_self_s": s(own, "thermo.equipartition_check"),
        "thermo.quadrature_s": s(incl, "thermo.hertz_temperature_oracle",
                                 "thermo.phase_space_volume"),
        "lab.csv_files": c("lab.write_csv"),
        "lab.csv_cells": q("lab.write_csv", 0),
        "lab.csv_bytes": q("lab.write_csv", 1),
        "lab.write_csv_s": s(incl, "lab.write_csv"),
        "lab.manifest_s": s(incl, "lab.write_manifest"),
        "lab.command_s": s(incl, *commands),
    }


def is_count(metric: str) -> bool:
    return UNITS[metric] == "count"


def _run_in_process(lab, command, cfg, out, ref, timed):
    """One in-process CLI run: its command seconds when timed, and its verdict."""
    if out.exists():
        shutil.rmtree(out)
    fn = lab._COMMANDS[command]
    spent = []

    def timed_command(cfg_obj, out_dir):
        t0 = time.perf_counter()
        try:
            return fn(cfg_obj, out_dir)
        finally:
            spent.append(time.perf_counter() - t0)

    lab._COMMANDS[command] = timed_command if timed else fn
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = lab.main([command, "--config", str(cfg), "--out", str(out)])
    finally:
        lab._COMMANDS[command] = fn
    return (spent[0] if spent else None), outputs.check_run(code, buf.getvalue(),
                                                             out, ref)


def measure(root: Path, command: str, cfg: Path, ref: dict, tmp: Path,
            seconds: float, spans_path: Path) -> dict:
    """Untraced and traced in-process runs in pairs, for `seconds`.

    A pair starts only while it is expected to end within `seconds`; at
    least one pair runs.  Counts must agree across traced runs; times are
    medians over the pairs.
    """
    os.environ.update(cli.PINNED_ENV)
    sys.path.insert(0, str(root / "src"))
    from fastslow import lab

    runs, untraced, per_run = [], [], []
    first_counts = None
    t0 = time.perf_counter()
    last = 0.0
    tracer = None
    while not runs or time.perf_counter() - t0 + last <= seconds:
        start = time.perf_counter()
        sec, verdict = _run_in_process(lab, command, cfg, tmp / "out", ref, True)
        runs.append({"traced": False, "command_s": sec, **verdict})
        if sec is not None:
            untraced.append(sec)

        tracer = Tracer()
        restore = install(tracer)
        try:
            _, verdict = _run_in_process(lab, command, cfg, tmp / "out", ref, False)
        finally:
            restore()
        m = layer_metrics(tracer)
        counts = {k: v for k, v in m.items() if is_count(k)}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            verdict["problems"].append("per-layer counts differ between traced runs")
        runs.append({"traced": True, "command_s": m["lab.command_s"], **verdict})
        per_run.append(m)
        last = time.perf_counter() - start
    tracer.save(spans_path)

    metrics = {k: (per_run[0][k] if is_count(k)
                   else statistics.median(m[k] for m in per_run))
               for k in per_run[0]}
    metrics["trace.overhead_s"] = (metrics["lab.command_s"]
                                   - statistics.median(untraced) if untraced else 0.0)
    return {"runs": runs, "metrics": metrics, "pairs": len(per_run),
            "spans": len(tracer.names)}


def report(res: dict) -> list:
    lines = [f"traced in-process runs: {res['pairs']} pairs of untraced and "
             f"traced; {res['spans']} spans in the last traced run"]
    lines += [f"{k:36s} {v:.6g} {UNITS[k]}" for k, v in res["metrics"].items()]
    return lines
