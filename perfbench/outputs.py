"""Reading a run's data files and checking them against the reference.

The data files of a run are its CSV files.  `manifest.json` is left out
because it holds `wall_seconds`; the summaries are covered by the `[FAIL]`
check on standard output.

A reference entry keeps, per file, its sha256, row count and header, and
per column either every string (text columns) or the column's largest
magnitude plus the values of every STRIDE-th row and the last row (numeric
columns).  Keeping every row of every config would take ~40 MB for the
simulate tables alone.  A numeric value passes when it is within RTOL of
its column's largest magnitude in the reference, the bound of ROADMAP
item 3.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

RTOL = 1e-12
STRIDE = 50
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def sha256s(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return header, [[r[j] for r in rows] for j in range(len(header))]


def _floats(cells):
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _kept_rows(n: int) -> list:
    if n <= 4 * STRIDE:
        return list(range(n))
    return sorted(set(range(0, n, STRIDE)) | {n - 1})


def fingerprint(out_dir: Path) -> dict:
    """Reference entry for the data files of one run."""
    digests = sha256s(out_dir)
    files = {}
    for name, digest in digests.items():
        header, cols = _read_csv(out_dir / name)
        n = len(cols[0]) if cols else 0
        keep = _kept_rows(n)
        columns = {}
        for h, cells in zip(header, cols):
            vals = _floats(cells)
            if vals is None:
                columns[h] = {"text": cells}
            else:
                columns[h] = {"scale": max((abs(v) for v in vals), default=0.0),
                              "values": [vals[i] for i in keep]}
        files[name] = {"sha256": digest, "rows": n, "header": header,
                       "columns": columns}
    return files


def compare(out_dir: Path, ref: dict) -> tuple[float, list]:
    """(largest scaled deviation, problems) of a run's files against ref.

    The deviation of a value is |value - reference| divided by the
    reference column's largest magnitude (absolute for an all-zero
    column).  A problem is any structural mismatch or a deviation above
    RTOL; the run passes when the list is empty.
    """
    problems = []
    worst = 0.0
    got = sha256s(out_dir)
    if sorted(got) != sorted(ref):
        problems.append(f"data files {sorted(got)} != reference {sorted(ref)}")
    for name in sorted(set(got) & set(ref)):
        r = ref[name]
        if got[name] == r["sha256"]:
            continue
        header, cols = _read_csv(out_dir / name)
        n = len(cols[0]) if cols else 0
        if header != r["header"] or n != r["rows"]:
            problems.append(f"{name}: shape or header differs from the reference")
            continue
        keep = _kept_rows(n)
        for h, cells in zip(header, cols):
            rc = r["columns"][h]
            if "text" in rc:
                if cells != rc["text"]:
                    problems.append(f"{name}:{h}: text differs from the reference")
                continue
            vals = _floats(cells)
            if vals is None:
                problems.append(f"{name}:{h}: not numeric")
                continue
            scale = rc["scale"] if rc["scale"] > 0.0 else 1.0
            dev = max((abs(vals[i] - v) / scale for i, v in zip(keep, rc["values"])),
                      default=0.0)
            worst = max(worst, dev)
            if not dev <= RTOL:
                problems.append(f"{name}:{h}: deviation {dev:.3e} > {RTOL:g}")
    return worst, problems


def check_run(code: int | None, stdout: str, out_dir: Path, ref: dict) -> dict:
    """Verdict on one CLI run: it must exit 0, print no [FAIL] gate line,
    and write data files that match the reference."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "[FAIL]" in stdout:
        problems.append("a [FAIL] gate line")
    dev, hashes = None, {}
    if code == 0 and out_dir.is_dir():
        dev, diff = compare(out_dir, ref)
        problems += diff
        hashes = sha256s(out_dir)
    return {"problems": problems, "max_deviation": dev, "sha256": hashes}


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, data: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json.gz"
    # mtime=0 keeps the file bitwise reproducible
    with open(path, "wb") as raw, gzip.GzipFile(filename="", fileobj=raw,
                                                mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True).encode())
