"""Record the output reference that every benchmark run is checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root.  For each workload (all by default) it runs
the CLI once on each of the N_CONFIGS generated configs and stores the
fingerprint of the data files in perfbench/reference/<workload>.json.gz.
It refuses to record a run that exits non-zero or prints a [FAIL] gate.

Record the reference only at a commit whose outputs are the accepted ones:
a later change that claims the output did not move is checked against it.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import cli
import outputs
from workloads import N_CONFIGS, WORKLOADS, config_text


def record(root: Path, name: str, work: Path) -> None:
    wl = WORKLOADS[name]
    configs = {}
    for index in range(N_CONFIGS):
        tmp = Path(tempfile.mkdtemp(dir=work))
        try:
            text = config_text(wl, index)
            cfg = tmp / "config.txt"
            cfg.write_text(text)
            out = tmp / "out"
            ex, stdout = cli.run_command(root, wl.command, cfg, out, tmp, 600.0)
            if ex.code != 0 or "[FAIL]" in stdout:
                sys.exit(f"{name} config {index}: exit {ex.code}\n{stdout}")
            configs[str(index)] = {"config": text, "files": outputs.fingerprint(out)}
            print(f"{name} config {index}: {ex.wall_s:.3f} s", flush=True)
        finally:
            shutil.rmtree(tmp)
    outputs.save_reference(name, {"rtol": outputs.RTOL,
                                  "stride": outputs.STRIDE,
                                  "configs": configs})


def main(argv) -> int:
    root = Path.cwd()
    names = argv or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {unknown}", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    for name in names:
        record(root, name, work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
