"""Running the `fastslow` CLI, and the set-up probe, as child processes.

Every child gets FASTSLOW_WORKERS=1 and one BLAS/OpenMP thread, and runs
on the one CPU the benchmark pins itself to, so a run is one process and
one thread on the 2-CPU machine the benchmark was written on.  Children may write bytecode caches (src/**/__pycache__), as an
installed package has them; without them every start compiles the package
from source, which took ~0.1 s of a ~0.14 s set-up here.  CPU time and peak
resident memory come from wait4's rusage of that one child.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PINNED_ENV = {
    "FASTSLOW_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Imports the package and parses and validates the config, then prints the
# clock.  perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes,
# so the parent subtracts its own reading taken just before the spawn.
_SETUP_PROBE = ("import sys, time\n"
                "import fastslow\n"
                "fastslow.load_config(sys.argv[1])\n"
                "print(repr(time.perf_counter()))\n")


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU.

    The calibration kernel (calibrate.py) then runs on the same CPU as the
    children it scales, and sees the same contention from the host: on the
    machine the benchmark was written on, the correlation between a
    `thermo` run's CPU time and the kernel times around it rose from 0.35
    to 0.79.  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@dataclass
class Exit:
    code: int          # exit code; -signal if killed, None if timed out
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run(argv, env, stdout, stderr, timeout: float) -> Exit:
    """Run one child to completion, killing it after `timeout` seconds."""
    old = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
    except _Timeout:
        proc.kill()
        _, _, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        code = None
    finally:
        signal.signal(signal.SIGALRM, old)
    proc.returncode = code if code is not None else -signal.SIGKILL
    return Exit(code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run_command(root: Path, command: str, config: Path, out_dir: Path,
                log_dir: Path, timeout: float) -> tuple[Exit, str]:
    """One CLI run as a user makes it; returns its exit record and stdout."""
    argv = [sys.executable, "-m", "fastslow", command, "--config", str(config),
            "--out", str(out_dir)]
    out_log = log_dir / "stdout.txt"
    err_log = log_dir / "stderr.txt"
    with open(out_log, "wb") as so, open(err_log, "wb") as se:
        ex = run(argv, child_env(root), so, se, timeout)
    return ex, out_log.read_text(errors="replace")


def setup_seconds(root: Path, config: Path, log_dir: Path,
                  timeout: float) -> float | None:
    """Interpreter start to a parsed, validated config, in a fresh process."""
    argv = [sys.executable, "-c", _SETUP_PROBE, str(config)]
    log = log_dir / "setup.txt"
    t0 = time.perf_counter()
    with open(log, "wb") as so:
        ex = run(argv, child_env(root), so, subprocess.DEVNULL, timeout)
    if ex.code != 0:
        return None
    return float(log.read_text().strip()) - t0
