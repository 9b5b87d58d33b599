"""The config fuzz's draws: a key added to or removed from the config keeps
every other draw of a seed, so a seed names the same runs across changes."""

from pathlib import Path

import pytest

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def fuzz(monkeypatch):
    monkeypatch.syspath_prepend(str(SCENARIOS))
    import fuzz

    return fuzz


def test_removing_a_key_keeps_the_other_draws(fuzz, monkeypatch):
    runs = {(seed, index): fuzz.draw(seed, index) for seed in (1, 2, 3, 17)
            for index in range(25)}
    for key in list(fuzz.DEFAULTS):
        # the coefficients follow the drawn preset, so they change with it
        gone = (key, "frequency.coefficients") if key == "frequency.preset" else (key,)
        with monkeypatch.context() as m:
            # a new dict: deleting and restoring the key would move it to the end
            m.setattr(fuzz, "DEFAULTS", {k: v for k, v in fuzz.DEFAULTS.items() if k != key})
            for (seed, index), (command, text, flags) in runs.items():
                got_command, got_text, got_flags = fuzz.draw(seed, index)
                assert (got_command, got_flags) == (command, flags)
                kept = [line for line in text.splitlines()
                        if line.partition(" = ")[0] not in gone]
                assert [line for line in got_text.splitlines()
                        if line.partition(" = ")[0] not in gone] == kept
                assert key not in got_text
