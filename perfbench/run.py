"""The fastslow benchmark: CLI runs end to end, or a traced in-process run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ./src and
writes only under ./.bench_build/perfbench.

--trace 0 runs `python -m fastslow <command> --config <generated file>` as
one child process at a time, for S seconds, and reports the medians of
  wall_s       wall time of one CLI run, spawn to exit,
  cpu_s        user + system CPU time of that child (wait4 rusage),
  peak_rss_mb  peak resident memory of that child,
  setup_s      spawn to `import fastslow` plus `load_config` of the
               workload's config, timed in separate probe processes.
The three times are machine-scaled: the shared host's speed drifts by up
to a factor of two within a minute, so each child's times are multiplied
by calibrate.REFERENCE_S over the time of the fixed kernel in calibrate.py
measured right before and after it, on the same CPU: the benchmark pins
itself and its children to one CPU.  The unscaled medians and the kernel
times are printed too.
Every CLI run is checked: it must exit 0, print no [FAIL] line, and write
data files that match the recorded reference (outputs.py).  A run that
fails any of these counts in `failed`; failed_frac = failed / attempted.

--trace 1 runs the same command in-process, alternating an untraced run
with one traced by tracing.py, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print each
metric with its unit, the machine, the largest deviation from the
reference, and the sha256 of every data file.  A run record with the same
content is written to .bench_build/perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import cli
import outputs
from workloads import WORKLOADS, config_index, config_text, initial_data

# set-up probes: a few before the CLI runs, then one after each, so that
# they sample the machine over the whole run
SETUP_FIRST = 5
SETUP_MAX = 25
# after each CLI run the calibration kernel runs for at least this share of
# the run's wall time (calibrate.block_seconds)
CALIBRATE_SHARE = 0.15
# every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    ld = np.finfo(np.longdouble)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "longdouble_mantissa_bits": int(ld.nmant) + 1,
        "longdouble_eps": float(ld.eps),
        "platform": platform.platform(),
    }


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def attempt(root: Path, command: str, cfg: Path, ref: dict, tmp: Path,
            timeout: float) -> dict:
    """One CLI run and its output check."""
    out = tmp / "out"
    if out.exists():
        shutil.rmtree(out)
    ex, stdout = cli.run_command(root, command, cfg, out, tmp, timeout)
    return {"wall_s": ex.wall_s, "cpu_s": ex.cpu_s, "peak_rss_mb": ex.peak_rss_mb,
            **outputs.check_run(ex.code, stdout, out, ref)}


def measure_end_to_end(root: Path, command: str, cfg: Path, ref: dict,
                       tmp: Path, seconds: float) -> dict:
    """CLI runs and set-up probes for `seconds`, each scaled to the speed of
    the machine around it.

    The calibration kernel runs before the first child, after each of the
    first SETUP_FIRST set-up probes, and after each iteration (one CLI run
    and, while fewer than SETUP_MAX, one set-up probe), there for at least
    CALIBRATE_SHARE of the run's wall time.  Every
    child's times are multiplied by REFERENCE_S over the mean kernel time
    of the two calibrations around it.  An iteration starts only while it
    is expected to end within `seconds`; at least one runs.
    """
    deadline = time.perf_counter() + HARD_LIMIT_S
    # untimed: the first start in a checkout writes the bytecode caches
    cli.setup_seconds(root, cfg, tmp, 60.0)
    calibrate.kernel_seconds()
    cals = [calibrate.kernel_seconds()]
    setups = []
    for _ in range(SETUP_FIRST):
        probe = cli.setup_seconds(root, cfg, tmp, 60.0)
        cals.append(calibrate.kernel_seconds())
        setups.append((probe, calibrate.speed(cals[-2], cals[-1])))
    runs = []
    t0 = time.perf_counter()
    last = 0.0
    while not runs or time.perf_counter() - t0 + last <= seconds:
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        start = time.perf_counter()
        r = attempt(root, command, cfg, ref, tmp, left)
        probe = (cli.setup_seconds(root, cfg, tmp, 60.0)
                 if len(setups) < SETUP_MAX else None)
        cals.append(calibrate.block_seconds(CALIBRATE_SHARE * r["wall_s"]))
        r["speed"] = calibrate.speed(cals[-2], cals[-1])
        runs.append(r)
        if probe is not None:
            setups.append((probe, r["speed"]))
        last = time.perf_counter() - start
    ok = [r for r in runs if not r["problems"]] or runs
    raw = {k: statistics.median(r[k] for r in ok)
           for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics = {k: statistics.median(r[k] * r["speed"] for r in ok)
               for k in ("wall_s", "cpu_s")}
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    setup_ok = [(s, f) for s, f in setups if s is not None]
    metrics["setup_s"] = (statistics.median(s * f for s, f in setup_ok)
                          if setup_ok else 0.0)
    raw["setup_s"] = statistics.median(s for s, _ in setup_ok) if setup_ok else 0.0
    return {"runs": runs, "setups": [s for s, _ in setups], "calibrations": cals,
            "metrics": metrics, "raw": raw,
            "setup_failed": len(setups) - len(setup_ok)}


def report_end_to_end(res: dict) -> list:
    runs = res["runs"]
    failed = sum(1 for r in runs if r["problems"])
    walls = [r["wall_s"] * r["speed"] for r in runs]
    m, raw, cals = res["metrics"], res["raw"], res["calibrations"]
    lines = [f"wall_s       {m['wall_s']:.4f} s   median of {len(runs)} CLI runs, "
             "machine-scaled",
             f"             unscaled {raw['wall_s']:.4f} s"]
    tail = tail_percentile(walls)
    if tail is None:
        lines.append(f"             no tail percentile: of {len(runs)} runs (< 11) "
                     f"none has ten beyond it; slowest {max(walls):.4f} s")
    else:
        lines.append(f"             p{tail[0]:.0f} {tail[1]:.4f} s (ten of "
                     f"{len(runs)} runs beyond it)")
    lines += [
        f"cpu_s        {m['cpu_s']:.4f} s   median, user+sys of the child, "
        f"machine-scaled; unscaled {raw['cpu_s']:.4f} s",
        f"setup_s      {m['setup_s']:.4f} s   median of {len(res['setups'])} "
        f"import+load_config probes, machine-scaled; unscaled {raw['setup_s']:.4f} s",
        f"peak_rss_mb  {m['peak_rss_mb']:.2f} MB  median of the children's peaks",
        f"failed_frac  {failed / len(runs):.4f}     ({failed} of {len(runs)} "
        "runs failed)",
        f"calibration  median {statistics.median(cals):.4f} s per pass over "
        f"{len(cals)} calibrations (min {min(cals):.4f}, max {max(cals):.4f}); "
        "reference "
        f"{calibrate.REFERENCE_S:.2f} s",
    ]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "fastslow" / "__init__.py").is_file():
        print("perfbench: no src/fastslow here; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    index = config_index(args.seed)
    text = config_text(wl, index)
    ref = outputs.load_reference(wl.name)["configs"].get(str(index))
    if ref is None or ref["config"] != text:
        print(f"perfbench: no recorded reference for {wl.name} config {index}; "
              "run perfbench/record_reference.py", file=sys.stderr)
        return 2

    cpu = cli.pin_to_one_cpu()
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        cfg = tmp / "config.txt"
        cfg.write_text(text)
        if args.trace:
            import tracing

            res = tracing.measure(root, wl.command, cfg, ref["files"], tmp,
                                  args.seconds, work / f"spans-{wl.name}.npz")
            lines = tracing.report(res)
            units = tracing.UNITS
        else:
            res = measure_end_to_end(root, wl.command, cfg, ref["files"], tmp,
                                     args.seconds)
            lines = report_end_to_end(res)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = res["runs"]
    failed = sum(1 for r in runs if r["problems"])
    correct = failed == 0 and not res.get("setup_failed")
    init = ", ".join(f"{k}={v!r}" for k, v in initial_data(wl, index).items())
    mach = machine()
    head = [f"perfbench {wl.name}: fastslow {wl.command}, seed {args.seed} -> "
            f"config {index} ({init}), trace {args.trace}",
            "machine: " + ", ".join(f"{k}={v}" for k, v in mach.items())
            + f"; pinned to cpu {cpu}"]
    devs = [r["max_deviation"] for r in runs if r["max_deviation"] is not None]
    if devs:
        lines.append(f"max deviation from the reference: {max(devs):.3e} "
                     f"(bound {outputs.RTOL:g} of each column's largest magnitude)")
    lines += [f"FAILED RUN: {p}" for r in runs for p in r["problems"]]
    hashes = runs[-1]["sha256"] if runs else {}
    lines += [f"sha256 {name} {digest}" for name, digest in sorted(hashes.items())]
    print("\n".join(head + lines))

    record = {"workload": wl.name, "seed": args.seed, "config_index": index,
              "trace": args.trace, "machine": mach, "correct": correct,
              "metrics": res["metrics"], "runs": runs,
              "setups": res.get("setups"), "calibrations": res.get("calibrations"),
              "unscaled": res.get("raw"), "moves": wl.moves, "why": wl.why}
    runs_dir = work / "runs"
    runs_dir.mkdir(exist_ok=True)
    (runs_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
