"""The benchmark's oracles (perfbench/workloads.py) on its three cheapest
seed-1 cases of ``flavors_z`` and of ``ladder_fp``.

A change to the linear-algebra kernel that breaks a benchmark oracle then
fails here, in a second, and not only in the benchmark's own self-test.
The benchmark's files are imported, never changed."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        # workloads.py imports its sibling modules by bare name
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
        yield workloads


def cheapest(workloads, name, k=3):
    cases = workloads.WORKLOADS[name].build(SEED, False)
    return sorted(cases, key=lambda c: (c.n, len(c.complex.module)))[:k]


@pytest.mark.parametrize("name", ["flavors_z", "ladder_fp"])
def test_cheapest_cases_pass_their_oracle(workloads, name):
    run = workloads.WORKLOADS[name].run
    for case in cheapest(workloads, name):
        assert run(case) == []


@pytest.mark.parametrize("name", ["flavors_z", "ladder_fp"])
def test_oracle_rejects_a_wrong_expectation(workloads, name):
    case = workloads._corrupted(cheapest(workloads, name, 1)[0])
    assert workloads.WORKLOADS[name].run(case) != []
