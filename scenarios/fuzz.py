"""Seeded config fuzz of the fastslow command line.

    python scenarios/fuzz.py SEED N

Draws N runs from SEED.  Each run is a command, a config file over the
config keys, and sometimes the --epsilon and --preset flags.  A value is a
typical one near the default, an edge value (0, -0.0, 1e-320, 1e308, NaN,
inf, ...) or text that is no value.  The runs go one at a time, each as a
`python -W error::RuntimeWarning -m fastslow` child capped at 20 s of CPU
time and 2 GiB of address space.

A run fails if it prints a traceback or exits outside 0-3 (0 success, 1 a
gate failed, 2 bad configuration, 3 numerical failure).  A run stopped at
a cap is reported, not failed.  The script prints one line per run, then
the config and stderr of every failed run, and exits 1 if any run failed.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from fastslow.lab import _COMMANDS, RunConfig  # noqa: E402

CPU_SECONDS = 20
ADDRESS_SPACE = 2 << 30  # bytes
EDGES = ("0", "-0.0", "1e-320", "5e-324", "1e-300", "1e-8", "-1e-8", "1e8", "-1e8",
         "1e200", "1e308", "-1e308", "nan", "inf", "-inf")
JUNK = ("", "abc", "1,2", "0x10", "1e")
PRESETS = ("sine", "fourier", "constant") * 3 + ("custom",)  # custom is no preset
# the coefficient counts each preset takes
COUNTS = {"sine": (2,), "fourier": (1, 3, 5), "constant": (1,), "custom": (1, 2, 3)}
# every key but output.dir, which --out sets, with its default text
DEFAULTS = dict(line.split(" = ") for line in RunConfig().echo().splitlines()
                if not line.startswith("output.dir"))


def _number(rng: random.Random, default: float) -> str:
    """Near the default, at an edge, far from it, or no number."""
    pick = rng.random()
    if pick < 0.75:
        return repr(default * rng.uniform(0.5, 1.5) if default else rng.uniform(-1.0, 1.0))
    if pick < 0.93:
        return rng.choice(EDGES)
    if pick < 0.98:
        return repr((default or 1.0) * 10 ** rng.uniform(-2.0, 1.0) * rng.choice((1, -1)))
    return rng.choice(JUNK)


def _epsilons(rng: random.Random) -> str:
    """A decreasing ladder, or one broken by an edge value, an order or a repeat."""
    eps = sorted((10 ** rng.uniform(-2.4, -0.7) for _ in range(rng.randint(1, 5))),
                 reverse=True)
    text = [repr(e) for e in eps]
    pick = rng.random()
    if pick < 0.15:
        text[rng.randrange(len(text))] = rng.choice(EDGES)
    elif pick < 0.25:
        rng.shuffle(text)
    elif pick < 0.3:
        text.append(text[-1])
    return ",".join(text)


def _coefficients(rng: random.Random, preset: str) -> str:
    """A mean frequency and harmonics, as many as the preset takes, mostly."""
    count = rng.choice(COUNTS[preset] if rng.random() < 0.9 else (1, 2, 3, 4, 5))
    coeffs = [repr(rng.uniform(1.5, 3.0))] + [repr(rng.uniform(-0.3, 0.3))
                                              for _ in range(count - 1)]
    if rng.random() < 0.15:
        coeffs[rng.randrange(len(coeffs))] = rng.choice(EDGES)
    return ",".join(coeffs)


def _value(rng: random.Random, key: str, default: str, preset: str) -> str:
    if key == "run.epsilons":
        return _epsilons(rng)
    if key == "frequency.coefficients":
        return _coefficients(rng, preset)
    if key == "frequency.preset":
        return rng.choice(PRESETS)
    if default in ("true", "false"):
        return rng.choice(("true", "false") * 5 + ("yes",))
    return _number(rng, float(default))


def draw(seed: int, index: int) -> tuple[str, str, list[str]]:
    """Run index of seed: (command, config text, extra flags).

    The command, each key and the flags draw from their own stream, so a
    key added to or removed from DEFAULTS leaves every other draw alone.
    """
    def stream(name: str) -> random.Random:
        return random.Random(f"{seed}:{index}:{name}")

    command = stream("command").choice(sorted(_COMMANDS))
    values: dict = {}
    for key, default in DEFAULTS.items():  # the preset, if drawn, before its coefficients
        rng = stream(key)
        if rng.random() < 0.4:
            values[key] = _value(rng, key, default, values.get("frequency.preset", "sine"))
    lines = [f"{key} = {value}" for key, value in values.items()]
    rng = stream("flags")
    flags = []
    if rng.random() < 0.2:
        flags.append(f"--epsilon={_epsilons(rng)}")
    if rng.random() < 0.15:
        flags.append(f"--preset={rng.choice(PRESETS)}")
    return command, "".join(line + "\n" for line in lines), flags


def _caps() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def verdict(returncode: int, stderr: str) -> str:
    """ok, capped (stopped by a signal or out of memory) or failed."""
    last = stderr.strip().rpartition("\n")[2]
    if returncode < 0 or "MemoryError" in last:
        return "capped"
    if "Traceback" in stderr or returncode not in (0, 1, 2, 3):
        return "failed"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(a.isdigit() for a in argv):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    seed, n = map(int, argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    counts: dict = {}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(n):
            command, text, flags = draw(seed, i)
            run_dir = Path(tmp) / str(i)
            run_dir.mkdir()
            (run_dir / "config.txt").write_text(text)
            argv_child = [sys.executable, "-W", "error::RuntimeWarning", "-m", "fastslow",
                          command, "--config", str(run_dir / "config.txt"),
                          "--out", str(run_dir / "out"), *flags]
            t0 = time.perf_counter()
            proc = subprocess.run(argv_child, env=env, capture_output=True, text=True,
                                  preexec_fn=_caps)
            seconds = time.perf_counter() - t0
            status = verdict(proc.returncode, proc.stderr)
            counts[status] = counts.get(status, 0) + 1
            shown = "; ".join(text.splitlines())
            print(f"{seed}:{i} {status} exit {proc.returncode} {seconds:.1f}s "
                  f"{command} {' '.join(flags)} [{shown}]", flush=True)
            if status == "failed":
                failures.append((f"{seed}:{i} {command} {' '.join(flags)}", text, proc.stderr))
    for name, text, stderr in failures:
        print(f"\nFAILED {name}\n--- config\n{text}--- stderr\n{stderr}")
    print(", ".join(f"{counts.get(s, 0)} {s}" for s in ("ok", "capped", "failed"))
          + f" of {n} runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
