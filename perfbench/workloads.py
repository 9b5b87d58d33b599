"""The benchmark's workloads and the seeded config generator.

Each workload is one `fastslow` CLI command on a config file generated from
the seed.  The program sees only that file: the command line is always
`python -m fastslow <command> --config <file> --out <dir>`.

Seed 0 writes the CLI defaults (y_star = 0, p_star = 1, u_star = 1), so its
numbers line up with the Baseline in ROADMAP.md.  A seed k > 0 draws
y_star in [-0.5, 0.5] and p_star, u_star in [0.7, 1.3]; a workload keeps
the defaults for the values it does not vary.  The seed is
folded onto N_CONFIGS configs, one of them the defaults, because every
config needs an output reference recorded ahead of time (see
record_reference.py): seed k > 0 uses config 1 + (k - 1) % (N_CONFIGS - 1).

What the seed changes and what it does not:
- reference-run step counts do not depend on the seed: the base step is
  2*pi*eps / (reference_factor * omega_upper_bound), which involves only
  eps and the frequency preset;
- twoscale's unfolding cell count does depend on it, through the limit
  phase phi0(T).  Over configs 1-31, y_star and p_star move phi0(T) by
  19% (quartile spread over median), and over seeds 1-10 they moved
  twoscale's run time by ~26%, more than any bound the benchmark may set.
  So twoscale-unfold varies u_star alone, which moves phi0(T) by 0.7%;
- the DOPRI step counts of the slow solves move slightly with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_CONFIGS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    # extra config lines, fixed for the workload
    fixed: tuple = ()
    # the initial values a seed draws; the rest keep the defaults
    varies: tuple = ("y_star", "p_star", "u_star")
    # per-layer metric group -> the end-to-end metric and workload it should
    # move, and where it should stay flat
    moves: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-ladder", "sweep",
        "paper's convergence ladder: ~96% four step-halved RK4 reference "
        "runs (L1-L2), no inversion, so dense-output changes must leave it flat",
        moves=(
            ("dynamics.*, phase.scalar_*", "cpu_s, wall_s move here"),
            ("integrate.rk4_*, integrate.reference_*", "wall_s moves here"),
            ("expansion.correctors_*, expansion.residual_norms_self_s",
             "cpu_s moves here"),
            ("integrate.invert_*, integrate.sample_*", "flat here"),
            ("integrate.dopri_*, expansion.solve_*", "~3% of wall_s here"),
            ("lab.*", "flat here: 3 small files"),
        )),
    Workload(
        "twoscale-unfold", "twoscale",
        "bulk invert_monotone (40 calls, ~39k targets each, ~54%) plus four "
        "reference runs: the workload for one-pass inversion and unfolding (L4)",
        varies=("u_star",),
        moves=(
            ("integrate.invert_*, integrate.sample_*",
             "wall_s, peak_rss_mb move here"),
            ("averaging.unfold_*", "wall_s moves here"),
            ("phase.array_*", "moves here"),
            ("expansion.correctors_*", "cpu_s moves here"),
            ("integrate.rk4_*, integrate.reference_*, dynamics.*",
             "wall_s moves here (~45%)"),
        )),
    Workload(
        "thermo-bath", "thermo",
        "only run of the thermo kernels and windowed_average; 36 inversions of "
        "two targets each, so per-call inversion cost shows here",
        moves=(
            ("thermo.*", "wall_s moves here only"),
            ("averaging.window_*", "wall_s moves here"),
            ("integrate.invert_*", "small-call case: per-call cost moves wall_s"),
            ("integrate.rk4_*, integrate.reference_*, dynamics.*",
             "wall_s moves here"),
        )),
    Workload(
        "simulate-fourier", "simulate",
        "only run of the cartesian field, plain RK4, solve_homogenized, the "
        "generic Fourier derivs branch and bulk CSV output; no reference runs",
        fixed=("frequency.preset = fourier",
               "frequency.coefficients = 2.0,0.25,0.25"),
        moves=(
            ("model.derivs_*", "wall_s moves here (generic branch), flat on sine"),
            ("lab.csv_*, lab.write_csv_s, lab.manifest_s", "wall_s moves here"),
            ("integrate.dopri_*, expansion.solve_*, homogenized.solve_*",
             "wall_s moves here (two solves, ~12%)"),
            ("integrate.reference_*", "flat here: no reference runs"),
            ("integrate.invert_*, phase.array_*", "flat here"),
        )),
)}


def config_index(seed: int) -> int:
    """Which of the N_CONFIGS recorded configs a seed runs."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return 0 if seed == 0 else 1 + (seed - 1) % (N_CONFIGS - 1)


DEFAULTS = {"y_star": 0.0, "p_star": 1.0, "u_star": 1.0}


def initial_data(workload: Workload, index: int) -> dict:
    """y_star, p_star and u_star of one config of a workload."""
    if index == 0:
        return dict(DEFAULTS)
    rng = random.Random(index)
    drawn = {"y_star": round(rng.uniform(-0.5, 0.5), 6),
             "p_star": round(rng.uniform(0.7, 1.3), 6),
             "u_star": round(rng.uniform(0.7, 1.3), 6)}
    return {k: drawn[k] if k in workload.varies else v
            for k, v in DEFAULTS.items()}


def config_text(workload: Workload, index: int) -> str:
    """The config file the program reads for one workload and config."""
    lines = [f"# perfbench {workload.name}, config {index}", *workload.fixed]
    lines += [f"initial.{k} = {v!r}" for k, v in initial_data(workload, index).items()]
    return "\n".join(lines) + "\n"
