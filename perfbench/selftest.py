"""Self-test: a CLI run that fails is counted as failed, not dropped.

    python3 perfbench/selftest.py

Run it from the repository root.  It feeds the run loop of run.py a
config with an unknown key, which the CLI rejects with exit code 2, and a
config whose output differs from the reference; each must be attempted
once and counted once as failed.  Exits 0 when both hold.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import outputs
import run
from workloads import WORKLOADS, config_text


def check(root: Path, work: Path, name: str, text: str, expect: str) -> bool:
    wl = WORKLOADS[name]
    ref = outputs.load_reference(name)["configs"]["0"]["files"]
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        cfg = tmp / "config.txt"
        cfg.write_text(text)
        res = run.measure_end_to_end(root, wl.command, cfg, ref, tmp, 0.0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runs = res["runs"]
    failed = sum(1 for r in runs if r["problems"])
    problems = [p for r in runs for p in r["problems"]]
    ok = len(runs) == 1 and failed == 1 and any(expect in p for p in problems)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: attempted {len(runs)}, "
          f"failed {failed}: {problems}")
    return ok


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    sweep = WORKLOADS["sweep-ladder"]
    ok = check(root, work, "sweep-ladder",
               config_text(sweep, 0) + "run.unknown_key = 1\n", "exit code 2")
    # a shorter ladder writes fewer rows than the recorded reference
    ok &= check(root, work, "sweep-ladder",
                config_text(sweep, 0) + "run.epsilons = 0.04,0.02,0.01\n",
                "differs from the reference")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
