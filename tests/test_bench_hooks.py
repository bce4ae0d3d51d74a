"""The benchmark's span hooks still find the functions they wrap.

``perfbench/spans.py`` records per-layer metrics by replacing module
attributes (``correlations.window_intersect``, ``spectra.window_ft``, ...)
with wrappers.  A refactor that renames one of them, or stops calling it
through that attribute, would silently zero its metric; this test runs small
CLI commands under the tracer and requires a span for each hot path.
"""

import importlib.util
from pathlib import Path

from modelsets import cli, correlations, pointsets, schemes

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_wrapped_hot_paths(tmp_path):
    tracer = load_spans().Tracer()
    with tracer.installed():
        codes = [
            cli.main(["correlate", "--scheme", "fibonacci", "--window", "fib",
                      "--order", "3", "--cutoff", "3", "-o", str(tmp_path / "c.csv")]),
            cli.main(["diffract", "--scheme", "fibonacci", "--window", "fib",
                      "--kmax", "1", "-o", str(tmp_path / "s.csv")]),
            cli.main(["reconstruct", "--selftest", "--window", "[0,1)u[1.5,2.25)",
                      "--grid", "64", "-o", str(tmp_path / "r.json")]),
            cli.main(["generate", "--scheme", "fibonacci", "--window", "fib",
                      "--region", "-20", "20", "-o", str(tmp_path / "p.txt")]),
            cli.main(["correlate", "--scheme", "fibonacci", "--window", "fib",
                      "--order", "2", "--cutoff", "2", "--empirical", "50",
                      "-o", str(tmp_path / "e.csv")]),
            cli.main(["homometry"]),
        ]
        assert len(pointsets.load_pointset(str(tmp_path / "p.txt"))) > 0
    assert codes == [0] * 6
    names = {span[0] for span in tracer.spans}
    # every span that feeds a per-layer metric, but correlations.freq_exact,
    # which no command calls
    assert {"schemes.window_intersect", "schemes.window_measure", "spectra.window_ft",
            "spectra.sample_window", "spectra.deck_functions", "reconstruct.roundtrip",
            "reconstruct.phase_quotient", "reconstruct.propagate_phase",
            "reconstruct.align", "pointsets.generate", "pointsets.save_pointset",
            "pointsets.load_pointset", "correlations.freq_empirical",
            "correlations.support_differences", "correlations.correlation_measure",
            "correlations.write", "spectra.diffraction", "spectra.write",
            "homometry.pattern_table", "homometry.rigid_equivalent"} <= names
    # leaving the context restores the module attributes
    assert correlations.window_intersect is schemes.window_intersect
