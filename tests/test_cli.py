"""End-to-end CLI behaviour: outputs, exit codes, reproducibility."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import modelsets
from modelsets import reconstruct
from modelsets.cli import (EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFY,
                           build_parser, expand_window_literal, main)
from modelsets.errors import ParameterError, ReconstructionError


NINES = "9" * 400


def run(*argv):
    return main(list(argv))


@pytest.fixture
def alarm_guard():
    """Fail a refusal that takes over 10 s (a regression to an unbounded loop) instead
    of hanging the suite; without SIGALRM the test runs unguarded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("still running after 10 s")  # not an OSError, which main() reports

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_generate_fibonacci_example(tmp_path):
    out = tmp_path / "pts.txt"
    code = run("generate", "--scheme", "fibonacci", "--window", "[-1,1/tau)",
               "--region", "-2", "2", "-o", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# modelsets pointset scheme=fibonacci")
    assert lines[1:] == ["-1 0", "0 0", "0 1"]


def test_generate_alias_window(tmp_path):
    out = tmp_path / "a.txt"
    code = run("generate", "--scheme", "periodic:32", "--window", "A",
               "--region", "0", "31", "-o", str(out))
    assert code == EXIT_OK
    body = [int(x) for x in out.read_text().splitlines()[1:]]
    assert len(body) == 16 and body[0] == 0 and body[-1] == 30


def test_generate_empty_window_succeeds(tmp_path):
    out = tmp_path / "e.txt"
    code = run("generate", "--scheme", "periodic:32", "--window", "{5}@32",
               "--region", "6", "7", "-o", str(out))
    assert code == EXIT_OK
    assert out.read_text().splitlines()[1:] == []


def test_generate_bad_window_literal(tmp_path):
    code = run("generate", "--scheme", "fibonacci", "--window", "[oops",
               "--region", "0", "1", "-o", str(tmp_path / "x.txt"))
    assert code == EXIT_USAGE


def test_generate_resource_limit(tmp_path):
    code = run("generate", "--scheme", "fibonacci", "--window", "fib",
               "--region", "0", "1e9", "-o", str(tmp_path / "x.txt"))
    assert code == EXIT_RESOURCE


# exactly [-1, 1 + 1.6e-18): F(87) - F(86)*tau = tau^-86, but the float of the right end is 0.0
CANCELLING = "[-1,1+679891637638612258-420196140727489673*tau)"


@pytest.mark.parametrize("argv, extra", [
    # the star of the point (1, 0) is 1, inside the window
    (["generate", "--region", "-50", "50"], {"1 0"}),
    # the pair cut of +-2 is [-1, -1 + 1.6e-18), not empty
    (["correlate", "--order", "2", "--cutoff", "3"], {"-2+0*tau", "2+0*tau"}),
], ids=["generate", "correlate"])
def test_a_window_end_whose_float_cancels(argv, extra, tmp_path):
    body = {}
    for window in ("[-1,1)", CANCELLING):
        path = tmp_path / "out"
        assert run(argv[0], "--scheme", "fibonacci", "--window", window, *argv[1:],
                   "-o", str(path)) == EXIT_OK
        body[window] = {line.split(",")[0] for line in path.read_text().splitlines()[1:]}
    assert body[CANCELLING] == body["[-1,1)"] | extra
    assert len(body[CANCELLING]) == len(body["[-1,1)"]) + len(extra)


@pytest.mark.parametrize("argv, rows", [
    # |tau| is above the float cutoff: keys -1, 0, 1 only
    (["correlate", "--scheme", "fibonacci", "--window", "fib", "--order", "2",
      "--cutoff", "1.6180339887498947"], 3),
    # |k| = 1/sqrt5 of the labels (+-1, 0) is above the float kmax
    (["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "0.4472135954999579",
      "--min-intensity", "1e-3"], 9),
    # k = 1/2 is above kmax
    (["diffract", "--scheme", "periodic:2", "--window", "{0}@2", "--kmax", "0.499999999999"], 1),
], ids=["correlate", "diffract", "diffract periodic"])
def test_a_bound_next_to_a_lattice_value_is_decided_exactly(argv, rows, tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert run(*argv, "-o", str(path)) == EXIT_OK
    assert len(path.read_text().splitlines()) == rows + 1
    noun = "correlation entries" if argv[0] == "correlate" else "spectrum rows"
    assert capsys.readouterr().out == f"wrote {rows} {noun} to {path}\n"


def test_correlate_contains_expected_row(tmp_path):
    out = tmp_path / "corr.csv"
    code = run("correlate", "--scheme", "fibonacci", "--window", "fib",
               "--order", "2", "--cutoff", "5", "-o", str(out))
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "diff1,frequency"
    tau_row = [r for r in rows if r.startswith("0+1*tau,")]
    assert tau_row and tau_row[0].split(",")[1].startswith("0.4472135954999")


def test_correlate_an_empty_window_writes_the_header_alone(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run("correlate", "--scheme", "fibonacci", "--window", "[)", "-o", str(out)) == EXIT_OK
    assert out.read_text() == "diff1,frequency\n"
    assert capsys.readouterr().out == f"wrote 0 correlation entries to {out}\n"


def test_correlate_compare_thinned_pair(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run("correlate", "--scheme", "combined:32", "--window", "fib x A",
               "--compare", "fib x B", "--order", "3", "--cutoff", "4",
               "-o", str(out))
    assert code == EXIT_OK


def test_correlate_compare_detects_difference(tmp_path):
    out = tmp_path / "cmp2.csv"
    code = run("correlate", "--scheme", "periodic:32", "--window", "A",
               "--compare", "{0,1,2}@32", "--order", "2", "--cutoff", "4",
               "-o", str(out))
    assert code == EXIT_VERIFY


def test_correlate_differ_prints_csv_key(tmp_path, capsys):
    code = run("correlate", "--scheme", "fibonacci", "--window", "[0,1)",
               "--compare", "[0,1.5)", "--cutoff", "2", "-o", str(tmp_path / "c.csv"))
    assert code == EXIT_VERIFY
    assert capsys.readouterr().out == "DIFFER at -1+0*tau: 0 vs 0.223606797749979\n"


def test_correlate_compare_with_empirical_is_refused(tmp_path, capsys):
    code = run("correlate", "--scheme", "fibonacci", "--window", "fib", "--compare", "fib",
               "--empirical", "100", "-o", str(tmp_path / "c.csv"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == "error: --compare and --empirical cannot be combined\n"
    assert not (tmp_path / "c.csv").exists()


def test_diffract_outputs_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    svg = tmp_path / "s.svg"
    assert run("diffract", "--scheme", "periodic:32", "--window", "A",
               "-o", str(out1), "--svg", str(svg)) == EXIT_OK
    assert run("diffract", "--scheme", "periodic:32", "--window", "A",
               "-o", str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()
    assert rows[0] == "b,k,intensity"
    assert len(rows) == 34  # header + b = 0..32
    first = rows[1].split(",")
    assert first[0] == "0" and float(first[2]) == pytest.approx(0.25)
    assert svg.read_text().startswith("<svg")


def test_diffract_kmax_zero_single_central_peak(tmp_path):
    out = tmp_path / "k0.csv"
    assert run("diffract", "--scheme", "periodic:32", "--window", "A",
               "--kmax", "0", "-o", str(out)) == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    b, k, inten = rows[1].split(",")
    assert (b, k) == ("0", "0") and float(inten) == pytest.approx(0.25)


def test_diffract_equal_spectra_for_pair(tmp_path):
    oa, ob = tmp_path / "a.csv", tmp_path / "b.csv"
    run("diffract", "--scheme", "periodic:32", "--window", "A", "-o", str(oa))
    run("diffract", "--scheme", "periodic:32", "--window", "B", "-o", str(ob))
    rows_a = [r.split(",") for r in oa.read_text().splitlines()[1:]]
    rows_b = [r.split(",") for r in ob.read_text().splitlines()[1:]]
    for ra, rb in zip(rows_a, rows_b):
        assert ra[0] == rb[0]
        assert abs(float(ra[2]) - float(rb[2])) < 1e-12


def test_reconstruct_selftest(tmp_path):
    out = tmp_path / "rep.json"
    csv = tmp_path / "rec.csv"
    code = run("reconstruct", "--selftest", "--window", "[0,1)u[1.5,2.25)",
               "--grid", "512", "-o", str(out), "--csv", str(csv))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["mismatch"] < 0.01
    assert csv.read_text().splitlines()[0] == "cell,x,recovered"


def test_reconstruct_bad_literal(tmp_path):
    code = run("reconstruct", "--window", "[0,1", "-o", str(tmp_path / "r.json"))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("window, halflength", [
    ("[7,9)", "8"), ("[-9,-7.5)", "8"), ("[0,1)u[1.5,2.25)", "2.2"), ("[-1,0)", "0.5")])
def test_reconstruct_refuses_a_window_outside_the_period(window, halflength, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run("reconstruct", "--window", window, "--halflength", halflength, "-o", str(out))
    assert code == EXIT_USAGE
    L = float(halflength)
    assert capsys.readouterr().err == (f"error: window {window!r} does not fit in the period "
                                       f"[-L, L) = [{-L:g}, {L:g})\n")
    assert not out.exists()


@pytest.mark.parametrize("window, halflength, diameter", [
    # 6 of 20 cells, 5 cell widths from first to last: 4 * 5 is not below 20, though
    # the float 5 * 0.091 is 0.45499999999999996, below L/2 = 0.455
    ("[0,0.546)", "0.91", "0.455"),
    ("[0,4.8)", "8", "4.0"),   # the same cells, with an exact cell width
])
def test_reconstruct_decides_the_anti_wraparound_condition_in_cells(window, halflength,
                                                                    diameter, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run("reconstruct", "--window", window, "--grid", "20", "--halflength", halflength,
               "-o", str(out))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: support diameter {diameter} must stay below "
                                       f"l_half/2 = {diameter} (anti-wraparound condition)\n")
    assert not out.exists()


@pytest.mark.parametrize("window", ["[-8,-7)u[7.5,8)", "[7,8)", "[-8,-7.5)"])
def test_reconstruct_takes_a_window_that_touches_the_period_ends(window, tmp_path):
    # the period [-L, L) is half-open: a window may start at -L and end at L
    assert run("reconstruct", "--window", window, "--grid", "64",
               "-o", str(tmp_path / "r.json")) == EXIT_OK


def test_diffract_refusal_writes_no_file(tmp_path, capsys):
    svg, csv = tmp_path / "s.svg", tmp_path / "s.csv"
    code = run("diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "0.01",
               "--min-intensity", "0.9", "--svg", str(svg), "-o", str(csv))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: empty spectrum\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error, code, line", [
    (ParameterError("degenerate input: no signal"), EXIT_USAGE,
     "error: degenerate input: no signal\n"),
    (ReconstructionError("no phase"), EXIT_VERIFY, "error: reconstruction failed: no phase\n"),
])
def test_recovery_errors_map_to_exit_codes(error, code, line, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise error

    monkeypatch.setattr(reconstruct, "roundtrip", fail)
    assert run("reconstruct", "--window", "[0,1)", "-o", str(tmp_path / "r.json")) == code
    assert capsys.readouterr().err == line
    assert list(tmp_path.iterdir()) == []


def test_homometry_default_run(tmp_path, capsys):
    out = tmp_path / "rep.txt"
    code = run("homometry", "-o", str(out))
    assert code == EXIT_OK
    text = out.read_text()
    assert "order-2 tables: equal [PASS]" in text
    assert "order-4 tables: differ" in text
    assert "rigid motions" in text


def test_homometry_order4_witness(capsys):
    code = run("homometry", "--order", "4")
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "witness" in text


def test_homometry_same_set(capsys):
    code = run("homometry", "--sets", "A", "A")
    assert code == EXIT_OK
    assert "rigid equivalence: (1, 0)" in capsys.readouterr().out


# main() builds its parser once per process; no call may leave a value behind for the next

def test_a_usage_error_after_a_command_is_still_one_line(capsys):
    assert build_parser() is build_parser()
    assert run("homometry", "--sets", "A", "A") == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("homometry", "--order", "5")
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_chosen_order_does_not_carry_over(capsys):
    assert run("homometry", "--order", "4") == EXIT_OK
    assert run("homometry") == EXIT_OK
    orders = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if " tables: " in line]
    assert orders == ["order-4", "order-2", "order-3", "order-4"]


def test_an_empirical_column_does_not_carry_over(tmp_path):
    argv = ["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "2", "-o"]
    assert run(*argv, str(tmp_path / "e.csv"), "--empirical", "50") == EXIT_OK
    assert run(*argv, str(tmp_path / "c.csv")) == EXIT_OK
    assert (tmp_path / "e.csv").read_text().split("\n", 1)[0] == "diff1,frequency,empirical"
    assert (tmp_path / "c.csv").read_text().split("\n", 1)[0] == "diff1,frequency"


def test_workers_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        run("--workers", "2", "homometry")
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--order", "5"],
    ["correlate", "--window", "fib"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--bogus"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--order", "9" * 3000],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "x" + "9" * 3000],
], ids=["bad choice", "missing required flag", "unknown flag", "long bad choice",
        "long bad number"])
def test_argparse_usage_error_is_one_line(argv, capsys, alarm_guard):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err and len(err) < 200


def test_the_cli_loads_no_openssl():
    # each command runs in a fresh process; its temp-file names come from os.urandom
    src = Path(modelsets.__file__).resolve().parent.parent
    code = ("import sys; from modelsets import cli; "
            "print(sorted({'secrets', 'hmac', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run("correlate", "--help")
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: modelsets correlate [-h]")


def test_alias_expansion():
    assert expand_window_literal("fib") == "[-1,1/tau)"
    expanded = expand_window_literal("fib x A")
    assert expanded.startswith("[-1,1/tau)x{0,7,8,9,")
    assert expand_window_literal("[0,1)") == "[0,1)"


@pytest.mark.parametrize("argv", [
    ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "0", "inf"],
    ["generate", "--scheme", "periodic:32", "--window", "A", "--region", "0", "inf"],
    ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "nan", "1"],
    ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "6e15", "6.0000000001e15"],
    ["generate", "--scheme", "fibonacci", "--window", "[0,11/4-13/8*tau)",
     "--region", "3.6028797018963868e16", "3.602879701896393e16"],
    ["generate", "--scheme", "fibonacci", "--window", "[" + "(" * 400 + "1" + ")" * 400 + ",2)",
     "--region", "0", "1"],
    ["generate", "--scheme", "fibonacci", "--window", "[" + "-" * 3000 + "1,2)",
     "--region", "0", "2"],
    # long malformed literals: an expression, an interval and a residue set
    ["generate", "--scheme", "fibonacci", "--window", "[" + "1+" * 1000 + ",2)",
     "--region", "0", "3"],
    ["generate", "--scheme", "fibonacci", "--window", "[" + "1" * 2000 + ",2",
     "--region", "0", "4"],
    ["generate", "--scheme", "periodic:32", "--window", "{" + "1," * 1000 + "x}@32",
     "--region", "0", "5"],
    # residue moduli of 2^62 or more, as a scheme and as a window
    ["generate", "--scheme", "periodic:9223372036854775808",
     "--window", "{1}@9223372036854775808", "--region", "0", "3"],
    ["generate", "--scheme", "combined:9223372036854775808",
     "--window", "fib x {1}@9223372036854775808", "--region", "0", "3"],
    ["generate", "--scheme", "periodic:32", "--window", "{1}@4611686018427387904",
     "--region", "0", "6"],
    ["homometry", "--sets", "{1}@4611686018427387904", "{2}@4611686018427387904"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--empirical", "inf"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--empirical", "0"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--empirical", "nan"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "inf"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "nan"],
    ["correlate", "--scheme", "periodic:32", "--window", "A", "--compare", "B",
     "--tol", "nan"],
    ["correlate", "--scheme", "fibonacci", "--window", "A"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--compare", "A"],
    ["correlate", "--scheme", "combined:32", "--window", "fib"],
    ["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "nan"],
    ["diffract", "--scheme", "periodic:32", "--window", "A", "--kmax", "inf"],
    ["diffract", "--scheme", "fibonacci", "--window", "fib", "--min-intensity", "nan"],
    ["reconstruct", "--window", "[0,1)", "--grid", "0"],
    ["reconstruct", "--window", "[0,1)", "--halflength", "-8"],
    ["reconstruct", "--window", "[0,1)", "--halflength", "inf"],
    ["reconstruct", "--window", "[0,1)", "--max-mismatch", "nan"],
    ["reconstruct", "--window", "[0,1)", "--max-mismatch", "-1"],
    ["reconstruct", "--window", "{0,1}@4"],
    ["homometry", "--sets", "[0,1)", "A"],
    ["homometry", "--sets", "{0,1}@4", "{0,2}@5"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "-1"],
    ["diffract", "--scheme", "fibonacci", "--window", "fib", "--min-intensity", "0"],
    ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "1", "0"],
    # windows that do not fit in the default period [-8, 8)
    ["reconstruct", "--window", "[7,9)"],
    ["reconstruct", "--window", "[-9,-7.5)"],
    ["reconstruct", "--window", "[7.9,8.5)"],
    # cell widths whose deck values leave the float range: overflow, and
    # subnormals at L/4 = 2.5e-104 written as a decimal
    ["reconstruct", "--window", "[0,1)", "--grid", "16", "--halflength", "1e150"],
    pytest.param(["reconstruct", "--window", "[0,0." + "0" * 103 + "25)", "--grid", "512",
                  "--halflength", "1e-103"], id="reconstruct [0,L/4) --halflength 1e-103"),
    # window endpoints of 2^62 or more in magnitude, whose floats overflowed
    pytest.param(["generate", "--scheme", "fibonacci", "--window", f"[{NINES},1)",
                  "--region", "0", "1"], id="generate [9...9,1)"),
    pytest.param(["generate", "--scheme", "fibonacci", "--window", f"[0,{NINES})",
                  "--region", "0", "1"], id="generate [0,9...9)"),
    # a window so wide that the smallest gap between points, 1/(hull width),
    # falls below the float spacing of the region
    pytest.param(["generate", "--scheme", "fibonacci", "--window", f"[0,{2**62 - 1})",
                  "--region", "0", "1"], id="generate [0,2^62-1)"),
    pytest.param(["correlate", "--scheme", "fibonacci", "--window", f"[0,{NINES})"],
                 id="correlate [0,9...9)"),
    pytest.param(["correlate", "--scheme", "fibonacci", "--window", f"[-{NINES},0)"],
                 id="correlate [-9...9,0)"),
    pytest.param(["diffract", "--scheme", "fibonacci", "--window", f"[0,{NINES})"],
                 id="diffract fibonacci [0,9...9)"),
    pytest.param(["diffract", "--scheme", "combined:32", "--window", f"[0,{NINES})xA"],
                 id="diffract combined:32 [0,9...9)xA"),
    pytest.param(["diffract", "--scheme", "fibonacci", "--kmax", "1",
                  "--window", f"[-{10 ** 307},{10 ** 307})"], id="diffract [-10^307,10^307)"),
], ids=lambda argv: " ".join([argv[0], argv[2]] + argv[-2:]))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_parameter_is_one_line_usage_error(argv, tmp_path, capsys, alarm_guard):
    code = run(*argv, "-o", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and len(err) < 200
    if "--empirical" in argv:
        assert "averaging radius R" in err
    if any(str(2**62) in a or str(2**63) in a for a in argv):
        assert "below 2^62" in err
    if f"[0,{2**62 - 1})" in argv:
        assert "window hull width 4.61169e+18" in err
    if "{0,2}@5" in argv:
        assert "4 and 5" in err


RESOURCE_LIMITS = [
    (["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "1e6"],
     "lattice candidates"),
    (["correlate", "--scheme", "periodic:32", "--window", "A", "--cutoff", "1e9"],
     "candidate differences"),
    (["homometry", "--sets", "{0,1,5}@128", "{0,2,5}@128", "--order", "4"], "pattern cells"),
    (["reconstruct", "--window", "[0,1)", "--grid", "8192"], "deck bytes"),
    # estimates of 1e300 and more: printed as ~6.47e+300 and ~inf, not as
    # a 301-digit int or an OverflowError traceback
    (["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "1e300"],
     "lattice candidates"),
    (["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "1e308"],
     "lattice candidates"),
    # dual-label enumerations: refused before the first label
    (["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "1e7"], "dual labels"),
    (["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "1",
      "--min-intensity", "1e-30"], "dual labels"),
    (["diffract", "--scheme", "periodic:32", "--window", "A", "--kmax", "1e9"], "dual labels"),
    (["diffract", "--scheme", "combined:32", "--window", "fib x A", "--kmax", "1e6"],
     "dual labels"),
    # over the 2e6 label budget, under the 5e7 candidate one
    (["diffract", "--scheme", "periodic:32", "--window", "A", "--kmax", "4e5"], "dual labels"),
    (["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "1e5",
      "--min-intensity", "1e-5"], "dual labels"),
    (["diffract", "--scheme", "combined:100000", "--window", "[0,1)x{0}@100000",
      "--kmax", "0.001", "--include-zeros"], "dual labels"),
    # the N x N shift matrix of a pattern table: 7 TiB at N = 10^6
    (["homometry", "--sets", "{0,1}@1000000", "{0,2}@1000000", "--order", "2"], "pattern cells"),
]


@pytest.mark.parametrize("argv, unit", RESOURCE_LIMITS,
                         ids=[" ".join([argv[0], argv[2]] + argv[-2:])
                              for argv, _ in RESOURCE_LIMITS])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resource_limit_is_one_line_error(argv, unit, tmp_path, capsys, alarm_guard):
    code = run(*argv, "-o", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert err.startswith("error: resource limit: ") and err.count("\n") == 1
    assert "Traceback" not in err and len(err) < 200
    # each budget names what it counts
    assert f" {unit}, over the budget of " in err
