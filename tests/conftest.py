import dataclasses
import types

import numpy as np
import pytest

import fastslow as fs

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_lines():
    """Collector for per-criterion pass/fail lines, echoed after the run."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fm():
    return fs.make_frequency("sine", (2.0, 1.0))


@pytest.fixture(scope="session")
def params():
    return fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=1.0)


@pytest.fixture(scope="session")
def dc(params, fm):
    return fs.derived_constants(params, fm)


@pytest.fixture(scope="session")
def reference_run(fm):
    """fs.reference_run(params, fm, epsilon, factor) at y* = 0, p* = 1, u* = 1
    and horizon_T, on the standard frequency unless fm is given, made once per
    session.  Every test that asks for the same run gets the same one, with
    read-only arrays and meta, so no test can change what another reads."""
    runs = {}

    def run(epsilon, fm=fm, horizon_T=1.0, factor=80.0):
        key = (fm, horizon_T, epsilon, factor)
        if key not in runs:
            params = fs.SystemParams(y_star=0.0, p_star=1.0, u_star=1.0, horizon_T=horizon_T)
            ref = fs.reference_run(params, fm, epsilon, factor)
            for a in (ref.times, ref.states, ref.derivs):
                a.flags.writeable = False
            runs[key] = dataclasses.replace(ref, meta=types.MappingProxyType(ref.meta))
        return runs[key]

    return run


@pytest.fixture(scope="session")
def expansion_run(params, fm):
    """Averaged expansion solved once, evaluated on the standard grid."""
    traj = fs.solve_expansion(params, fm)
    grid = np.linspace(0.0, 1.0, 2001)
    base, corr = fs.eval_expansion(traj, grid)
    return traj, grid, base, corr
