"""Every benchmark workload reproduces its seed-0 golden outputs.

``perfbench/golden.json`` holds the digests of the outputs of one seed-0 pass
of each workload (``patch``, ``exact``, ``recover``).  This test runs that
pass through the benchmark's own ``run.Run`` and checks, so a change that
moves one byte of a benchmark output fails in the test suite, not only in a
benchmark run.
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
