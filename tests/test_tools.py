"""Smoke test of ``tools/scale_z.py``.  The script reaches into the
program (``chain.reduction`` and the flavor slices of ``four_flavors``)
and nothing else runs it, so a change to those names fails here."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCALE_Z = Path(__file__).resolve().parent.parent / "tools" / "scale_z.py"


def test_scale_z_line_format():
    with pytest.MonkeyPatch.context() as mp:
        # the script puts src/ and perfbench/ in front of sys.path
        mp.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("scale_z", SCALE_Z)
        scale_z = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scale_z)
        line = scale_z.measure(30)
    m = re.fullmatch(r"n=30 four_flavors_s=\d+\.\d\d "
                     r"presented_gens=(\d+)->(\d+) \((.*)\)", line)
    assert m, line
    slices = [re.fullmatch(r"(\w+) (\d+)->(\d+)", part).groups()
              for part in m.group(3).split(", ")]
    assert [tag for tag, _, _ in slices] == ["minus", "infinity", "plus",
                                            "hat"]
    before = sum(int(b) for _, b, _ in slices)
    after = sum(int(a) for _, _, a in slices)
    assert (before, after) == (int(m.group(1)), int(m.group(2)))
    assert all(int(a) <= int(b) for _, b, a in slices)
