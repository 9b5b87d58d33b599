"""The program names that perfbench's tracer wraps must exist.

perfbench/tracing.py looks up program functions by name and swaps in
timed wrappers.  A renamed or deleted function would break only the traced
benchmark runs; this test makes it fail the test suite on every platform.
"""

from pathlib import Path

from fastslow import dynamics, expansion, integrate, lab, phase

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_the_names_it_traces(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    modules = (phase, integrate, dynamics, expansion, lab)
    before = [dict(vars(m)) for m in modules]
    restore = tracing.install(tracing.Tracer())
    try:
        assert phase.reduced_sincos_array is not before[0]["reduced_sincos_array"]
        assert integrate.sample is not before[1]["sample"]
        # the span behind lab.write_csv_s and the lab.csv_* counts
        assert lab.write_csv is not before[4]["write_csv"]
    finally:
        restore()
    assert [dict(vars(m)) for m in modules] == before
