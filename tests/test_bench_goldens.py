"""Every benchmark workload reproduces its seed-0 golden outputs, and passes its
invariant checks on shifted inputs.

``perfbench/golden.json`` holds the digests of the outputs of one seed-0 pass
of each workload (``patch``, ``exact``, ``recover``).  The first test runs that
pass through the benchmark's own ``run.Run`` and checks, so a change that
moves one byte of a benchmark output fails in the test suite, not only in a
benchmark run.  The second runs one seed-3 pass, which moves the windows,
residues and regions as the benchmark's paired runs do; with no golden, the
invariants of ``checks.py`` judge it (complete patches against a brute-force
search, |k| <= kmax, frequency bounds, empirical against exact values).
"""

import os
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["patch", "exact", "recover"])
def test_seed0_pass_matches_the_goldens(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import run
    monkeypatch.chdir(tmp_path)
    os.makedirs(f"{run.workloads.OUT_DIR}/{workload}")
    bench = run.Run(workload, 0, checks.load_golden(workload))
    bench.one_pass()
    assert bench.attempted == len(bench.ops) > 0
    assert bench.failed == 0


@pytest.mark.parametrize("workload", ["patch", "exact", "recover"])
def test_a_shifted_pass_passes_the_invariant_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    monkeypatch.chdir(tmp_path)
    os.makedirs(f"{run.workloads.OUT_DIR}/{workload}")
    bench = run.Run(workload, 3, None)
    bench.one_pass()
    assert bench.attempted == len(bench.ops) > 0
    assert bench.failed == 0
