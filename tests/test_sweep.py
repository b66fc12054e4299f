"""The whole option sweep of ``tools/cli_sweep.py`` as a characterization
golden: every run's exit code and stdout hash, taken in process, must equal
its line in ``tests/golden/sweep.txt``.  A change of output on purpose
regenerates that file (``python3 tools/cli_sweep.py --regenerate``) in the
same change, and the change says which argv lines moved."""

import importlib.util
from pathlib import Path

import pytest

from artifact import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location(
        "cli_sweep", ROOT / "tools" / "cli_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden(sweep):
    return (ROOT / sweep.GOLDEN).read_text(encoding="utf-8").splitlines()


def test_every_run_matches_the_golden(sweep, golden):
    runs = sweep.runs(str(ROOT))
    assert len(golden) == len(runs)
    diff = sweep.differences(golden, sweep.capture_in_process(str(ROOT),
                                                              runs))
    assert not diff, (f"{len(diff)} of {len(runs)} runs differ:\n"
                      + "\n".join(diff))


def test_a_planted_narrow_window_change_is_named(sweep, golden, monkeypatch):
    """One record changed on the ``--window 0..1`` runs only: the
    comparison names exactly those argv lines."""
    window = cli._Report.window

    def planted(self, win):
        window(self, (win[0], win[1] + 1) if tuple(win) == (0, 1) else win)

    monkeypatch.setattr(cli._Report, "window", planted)
    runs = [r for r in sweep.runs(str(ROOT))
            if r[:2] == ["flavors", "corpus/v1/utower.txt"]]
    assert len(runs) == 6
    keys = {" ".join(r) for r in runs}
    old = [line for line in golden if line.split(" ", 2)[2] in keys]
    # each entry is "- <old line>\n+ <new line>"; a line ends in its argv
    named = {entry.split("\n")[1].split(" ", 3)[3] for entry in
             sweep.differences(old, sweep.capture_in_process(str(ROOT),
                                                             runs))}
    assert named == {" ".join(r) for r in runs if r[-1] == "0..1"}
