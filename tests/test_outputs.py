"""Output files: pinned bytes of the README examples, atomic writes, write errors."""

import hashlib
import os
import re
from pathlib import Path

import pytest

from modelsets import (correlation_measure, diffraction, generate, make_scheme,
                       parse_scheme, parse_window, save_pointset, schemes)
from modelsets.cli import EXIT_OK, EXIT_USAGE, expand_window_literal, main
from modelsets.pointsets import _atomic_write

# the "Command line" examples of the README, with the sha256 of every file they write
README_EXAMPLES = [
    ["generate", "--scheme", "fibonacci", "--window", "[-1,1/tau)", "--region", "-2", "2",
     "-o", "points.txt"],
    ["generate", "--scheme", "periodic:32", "--window", "A", "--region", "0", "31",
     "-o", "a.txt"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--order", "2",
     "--cutoff", "5", "-o", "corr.csv"],
    ["correlate", "--scheme", "combined:32", "--window", "fib x A", "--compare", "fib x B",
     "--order", "3", "--cutoff", "4", "-o", "corr3.csv"],
    ["diffract", "--scheme", "periodic:32", "--window", "A", "-o", "spectrum.csv",
     "--svg", "spectrum.svg"],
    ["reconstruct", "--selftest", "--window", "[0,1)u[1.5,2.25)", "--grid", "512",
     "-o", "report.json"],
    ["homometry"],
]
README_DIGESTS = {
    "a.txt": "a168cf89fa80b3b098612490a98a6bde1b97685193dfe10d1a3afd58cb07065a",
    "corr.csv": "cb96654538646b8b9728128e9a08d5df89d691d338012011ee0520c7c776a97a",
    "corr3.csv": "971aa02daa29df821bb7b4e252465cddcea7d588ec72a755c12d70f4a1c3c426",
    "points.txt": "e9bc3c49c24b41e1972810de2a7b88f3779702865d2c63e4216e0a860eaad0aa",
    "report.json": "9e893307aa993677f2427127808aebbba4d5cdcb54708e99315768118b5abb04",
    "spectrum.csv": "0d9e71c3b4a51ff6bfb0d3c098dcef5cc05be2bc6216ac7dcbc26a51c81455d2",
    "spectrum.svg": "220446d13cebef1a46be8bcda57c043b4e1fb7e25e877c233dcec1dff4590f91",
}


def test_readme_examples_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in README_EXAMPLES:
        assert main(argv) == EXIT_OK, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == README_DIGESTS


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    names = {}
    exec(block, names)
    assert names["density"] == pytest.approx(0.7236, abs=1e-3)  # ~ tau/sqrt5
    assert names["report"].mismatch == 0.0


# patch-sized outputs: a 72,361-point file and empirical counts over R = 9e4
PATCH_EXAMPLES = [
    ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "-50000", "50000",
     "-o", "fib.txt"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--order", "2", "--cutoff", "5",
     "--empirical", "9e4", "-o", "emp.csv"],
    # coordinates beyond 2^31 (724 and 362 points), and a periodic patch (999 points)
    ["generate", "--scheme", "fibonacci", "--window", "fib",
     "--region", "10000000000", "10000001000", "-o", "fib_far.txt"],
    ["generate", "--scheme", "combined:32", "--window", "fib x A",
     "--region", "-10000001000", "-10000000000", "-o", "fibxA_far.txt"],
    ["generate", "--scheme", "periodic:32", "--window", "A", "--region", "-1000", "1000",
     "-o", "A.txt"],
]
PATCH_DIGESTS = {
    "fib.txt": "2778b1c7aed0084ea9d1a07ee5c51f14d784b080e8467f77ae64c2cf65bfca9a",
    "emp.csv": "7792db9276c740f05cde9b5e1b7f29aed647e93c5f36cfacfc40e872791baba9",
    "fib_far.txt": "c9cc67d14fe56f26843704cfe03e5f9dc5c1d36634a666ecc7ce8630f186a1e1",
    "fibxA_far.txt": "7ca1848f394ec0a250745e1499039b5ac3c956247da76b10e6ffdf639d504ec2",
    "A.txt": "b7277fb61e253f495b1089e46f34523cdf2b419536488e7efa3eb14a95dc1e50",
}


def test_patch_outputs_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in PATCH_EXAMPLES:
        assert main(argv) == EXIT_OK, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == PATCH_DIGESTS


# golden-ratio schemes: the dense-dual spectra and a combined patch
GOLDEN_RATIO_EXAMPLES = [
    ["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "10",
     "--min-intensity", "1e-5", "--svg", "fib.svg", "-o", "fib.csv"],
    ["diffract", "--scheme", "combined:32", "--window", "fib x A", "--kmax", "2",
     "--min-intensity", "1e-5", "-o", "fibxA.csv"],
    ["generate", "--scheme", "combined:32", "--window", "fib x A", "--region", "-2000", "2000",
     "-o", "fibxA.txt"],
    # with --include-zeros every enumerated dual label is a row (383 and 4,083)
    ["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "3", "--include-zeros",
     "-o", "fib_labels.csv"],
    ["diffract", "--scheme", "combined:32", "--window", "fib x A", "--kmax", "1",
     "--include-zeros", "-o", "fibxA_labels.csv"],
    # 256,363 rows
    ["diffract", "--scheme", "fibonacci", "--window", "fib", "--kmax", "1000",
     "--min-intensity", "1e-5", "-o", "fib_k1000.csv"],
]
GOLDEN_RATIO_DIGESTS = {
    "fib.csv": "eb9df5e4786f484fd606733a075eb2f8b573d81dca6064d391931be6fa5d4d8e",
    "fib.svg": "3b7ac8d065732126296097460227387e8b1d84db5966c844f9df911ad04073ac",
    "fibxA.csv": "9b6dbf569b470c7160bf3d72b1d168a4e00c286c20029dcc915faf87a06ab27a",
    "fibxA.txt": "f9202a2d2c2b5476f255026fde94c529c077f98a1bfd16889402c2dc14e65f06",
    "fib_k1000.csv": "b2b71f3c6530d2afcec3193403c4e7b3b2fb89d258625a12b1c404f57e6eedb9",
    "fib_labels.csv": "f534271592458cb8daf57d0f97a7c50ab613eb6864e7aca59753707f719532e6",
    "fibxA_labels.csv": "1cc08e94818d2915b05988765103b74950f67bd41c51837098e26c55f9d60920",
}


def test_golden_ratio_outputs_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_RATIO_EXAMPLES:
        assert main(argv) == EXIT_OK, argv
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == GOLDEN_RATIO_DIGESTS


FIB = make_scheme("fibonacci")
W = parse_window("[-1,1/tau)")
P32 = parse_scheme("periodic:32")
A = parse_window(expand_window_literal("A"))

WRITERS = {
    "save_pointset": lambda path: save_pointset(generate(FIB, W, (-2, 2)), path),
    "CorrelationMeasure.to_csv": lambda path: correlation_measure(FIB, W, 2, 2.0).to_csv(path),
    "Spectrum.to_csv": lambda path: diffraction(P32, A, 1.0).to_csv(path),
    "Spectrum.to_svg": lambda path: diffraction(P32, A, 1.0).to_svg(path),
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_failed_write_keeps_old_file(writer, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.write_bytes(b"old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        writer(str(out))
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("argv", [
    ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "-2", "2"],
    ["correlate", "--scheme", "fibonacci", "--window", "fib", "--cutoff", "2"],
    ["diffract", "--scheme", "periodic:32", "--window", "A"],
    ["reconstruct", "--selftest", "--window", "[0,1)", "--grid", "64"],
], ids=lambda argv: argv[0])
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    # the temp file cannot be created, or the rename lands on a directory or on ""
    (tmp_path / "dir" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "missing" / "out", tmp_path / "dir" / "out", ""):
        code = main(argv + ["-o", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # the message names the output, not the random temp file beside it
        assert repr(str(path)) in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "out"]


def test_failed_streamed_write_keeps_old_file(tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"old\n")

    def chunks():
        yield "first\n"
        yield "second\n"
        raise RuntimeError("third chunk failed")

    with pytest.raises(RuntimeError, match="third chunk failed"):
        _atomic_write(str(out), chunks())
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_unwritable_output_of_a_chunked_patch_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(schemes, "PATCH_CHUNK", 4)   # 4 chunks for these 15 points
    (tmp_path / "dir" / "out").mkdir(parents=True)
    argv = ["generate", "--scheme", "fibonacci", "--window", "fib", "--region", "-10", "10"]
    for path in (tmp_path / "missing" / "out", tmp_path / "dir" / "out"):
        code = main(argv + ["-o", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert repr(str(path)) in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "out"]
    assert main(argv + ["-o", str(tmp_path / "fib.txt")]) == EXIT_OK
    assert "wrote 15 points" in capsys.readouterr().out
