"""Output checks for every benchmark operation.

Three kinds, each a list of problems (empty means correct):

* invariants, for any seed, computed through the library's public functions;
* golden digests, for seed 0: the sha256 of every output file and the stdout
  of every operation, captured at the commit that introduced the benchmark
  (``golden.json``), since outputs must stay byte-identical;
* repeat identity: every later pass, traced or not, must reproduce the first
  pass byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import deque
from fractions import Fraction

from modelsets import cli, pointsets
from modelsets.schemes import (COMBINED, FIBONACCI, SQRT5, TAU, TAU_PRIME,
                               QuadLatticePoint, QuadNum, format_window, parse_scheme,
                               parse_window, window_measure)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SAMPLED_POINTS = 64                          # points tested for membership
RUN = 48                                     # consecutive points tested for completeness
EMPIRICAL_REL, EMPIRICAL_ABS = 0.02, 1e-3    # acceptance criterion 4
DENSITY_REL = 0.005                          # acceptance criterion 3 at R = 1e5 and above
MAX_MISMATCH = 0.01


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def record(op, rc, stdout) -> dict:
    """What must repeat byte for byte: exit code, stdout and output digests."""
    return {"rc": rc, "stdout": stdout,
            "files": {os.path.basename(p): sha256(p) for p in op.outputs
                      if os.path.exists(p)}}


def _scheme_window(op):
    scheme = parse_scheme(op.params["scheme"])
    return scheme, parse_window(cli.expand_window_literal(op.params["window"]))


def _expect(cond: bool, problems: list, text: str) -> None:
    if not cond:
        problems.append(text)


def _read_csv(path: str):
    with open(path) as fh:
        rows = [ln.rstrip("\n").split(",") for ln in fh]
    return rows[0], rows[1:]


def _zero_cell(scheme) -> str:
    return "0+0*tau" if scheme.kind in (FIBONACCI, COMBINED) else "0"


def _member(scheme, w, u: int, v: int, lo_q, hi_q) -> bool:
    """Exact test that u + v*tau is a point of the model set inside [lo_q, hi_q]."""
    p = QuadLatticePoint(u, v)
    intervals = w if scheme.kind == FIBONACCI else w.intervals
    inside = lo_q <= p.to_quad() <= hi_q and intervals.contains(p.star_quad())
    return inside and (scheme.kind != COMBINED or w.residues.contains(u))


def _brute_force(scheme, w, lo_q, hi_q) -> list:
    """Every model-set point in [lo_q, hi_q], by a plain loop over (u, v), sorted.

    x = u + v*tau in [a, b] and x* = u + v*tau' in the window hull bound v,
    since x - x* = v*sqrt5, and then u; the exact test decides each candidate.
    """
    intervals = w if scheme.kind == FIBONACCI else w.intervals
    s_lo, s_hi = (float(e) for e in intervals.hull())
    a, b = float(lo_q), float(hi_q)
    out = []
    for v in range(math.floor((a - s_hi) / SQRT5) - 1, math.ceil((b - s_lo) / SQRT5) + 2):
        u_lo = max(a - v * TAU, s_lo - v * TAU_PRIME)
        u_hi = min(b - v * TAU, s_hi - v * TAU_PRIME)
        for u in range(math.floor(u_lo) - 1, math.ceil(u_hi) + 2):
            if _member(scheme, w, u, v, lo_q, hi_q):
                out.append((u, v))
    return sorted(out, key=lambda p: p[0] + p[1] * TAU)


def check_generate(op, rec, problems):
    scheme, w = _scheme_window(op)
    path = op.outputs[0]
    lo, hi = (float(r) for r in op.params["region"])
    lo_q, hi_q = QuadNum.coerce(Fraction(lo)), QuadNum.coerce(Fraction(hi))
    words = rec["stdout"].split()
    _expect(words[:1] + words[2:] == ["wrote", "points", "to", path], problems,
            f"unexpected stdout {rec['stdout']!r}")
    n = int(words[1])
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        count = sum(1 for _ in fh)
    _expect(header == f"# modelsets pointset scheme={scheme.label()} "
                      f"window={format_window(w)} region=[{lo!r},{hi!r}]",
            problems, f"unexpected header {header!r}")
    _expect(count == n, problems, f"file holds {count} points, stdout says {n}")
    expected = window_measure(scheme, w) * (hi - lo)
    _expect(abs(n - expected) <= DENSITY_REL * expected, problems,
            f"{n} points, density predicts {expected:.1f}")
    if count < 3 * RUN:
        problems.append(f"patch of {count} points is too small to check")
        return

    # soundness on a seeded sample; completeness on three runs of consecutive
    # points (first, last, seeded middle) against a brute-force enumeration
    rng = random.Random(op.name)
    picks = set(rng.sample(range(count), SAMPLED_POINTS))
    k = rng.randrange(RUN, count - 2 * RUN)
    head, mid, tail = [], [], deque(maxlen=RUN)
    with open(path) as fh:
        fh.readline()
        for i, line in enumerate(fh):
            if i < RUN:
                head.append(line)
            if k <= i < k + RUN:
                mid.append(line)
            tail.append(line)
            if i in picks:
                u, v = (int(t) for t in line.split())
                _expect(_member(scheme, w, u, v, lo_q, hi_q), problems,
                        f"point {u} {v} lies outside the model set")
    for name, lines, first, last in (("first", head, True, False),
                                     ("middle", mid, False, False),
                                     ("last", tail, False, True)):
        pts = [tuple(int(t) for t in ln.split()) for ln in lines]
        a = lo_q if first else QuadLatticePoint(*pts[0]).to_quad()
        b = hi_q if last else QuadLatticePoint(*pts[-1]).to_quad()
        _expect(_brute_force(scheme, w, a, b) == pts, problems,
                f"the {name} {RUN} points differ from a brute-force enumeration")


def check_load(op, rec, problems, loaded, source_rec):
    if source_rec is None:
        problems.append("the operation that wrote the file failed")
        return
    n = int(source_rec["stdout"].split()[1])
    _expect(len(loaded) == n, problems, f"loaded {len(loaded)} points, wrote {n}")
    # saving a loaded file must reproduce it byte for byte
    resave = op.argv[0] + ".resave"
    try:
        pointsets.save_pointset(loaded, resave)
        _expect(sha256(resave) == sha256(op.argv[0]), problems,
                "re-saved patch differs from the file it was loaded from")
    finally:
        if os.path.exists(resave):
            os.unlink(resave)


def check_correlate(op, rec, problems):
    scheme, w = _scheme_window(op)
    path = op.outputs[0]
    header, rows = _read_csv(path)
    n = op.params["order"] - 1
    if op.params.get("compare"):
        _expect(rec["stdout"].startswith("EQUAL"), problems,
                f"--compare did not print EQUAL: {rec['stdout']!r}")
    else:
        _expect(rec["stdout"] == f"wrote {len(rows)} correlation entries to {path}",
                problems, f"unexpected stdout {rec['stdout']!r}")
    cols = [f"diff{i + 1}" for i in range(n)] + ["frequency"]
    if op.params.get("empirical"):
        cols.append("empirical")
    _expect(header == cols, problems, f"unexpected header {header}")
    density = window_measure(scheme, w)
    zero = [_zero_cell(scheme)] * n
    zero_rows = [r for r in rows if r[:n] == zero]
    _expect(len(zero_rows) == 1 and float(zero_rows[0][n]) == float(f"{density:.15g}"),
            problems, f"zero-difference row does not equal the window measure {density!r}")
    for r in rows:
        exact = float(r[n])
        if not 0 < exact <= density * (1 + 1e-12):
            problems.append(f"frequency {exact} at {r[:n]} outside (0, {density}]")
            break
        if op.params.get("empirical"):
            emp = float(r[n + 1])
            if abs(emp - exact) > EMPIRICAL_REL * exact + EMPIRICAL_ABS:
                problems.append(f"empirical {emp} vs exact {exact} at {r[:n]}")
                break


def check_diffract(op, rec, problems):
    scheme, w = _scheme_window(op)
    path = op.outputs[0]
    header, rows = _read_csv(path)
    _expect(rec["stdout"] == f"wrote {len(rows)} spectrum rows to {path}",
            problems, f"unexpected stdout {rec['stdout']!r}")
    nlab = len(header) - 2
    zero = [r for r in rows if all(c == "0" for c in r[:nlab])]
    density = window_measure(scheme, w)
    _expect(len(zero) == 1 and abs(float(zero[0][-1]) - density ** 2) <= 1e-12 * density ** 2,
            problems, f"k = 0 intensity does not equal the squared measure {density ** 2!r}")
    kmax, floor = op.params["kmax"], op.params["min_intensity"]
    bad = [r for r in rows if abs(float(r[-2])) > kmax + 1e-9 or float(r[-1]) < floor]
    _expect(not bad, problems, f"{len(bad)} peaks outside |k| <= {kmax} or below {floor}")
    for svg in op.outputs[1:]:
        with open(svg) as fh:
            text = fh.read()
        _expect(text.startswith("<svg") and text.endswith("</svg>\n"), problems,
                f"{svg} is not a complete SVG document")


def check_homometry(op, rec, problems):
    lines = rec["stdout"].splitlines()
    _expect(len(lines) == 4 and all(ln.endswith("[PASS]") for ln in lines), problems,
            f"homometry did not pass: {rec['stdout']!r}")


def check_reconstruct(op, rec, problems):
    _expect(rec["stdout"].endswith("-> PASS"), problems,
            f"selftest did not pass: {rec['stdout']!r}")
    with open(op.outputs[0]) as fh:
        report = json.load(fh)
    _expect(report["M"] == op.params["grid"] and report["mismatch"] < MAX_MISMATCH,
            problems, f"report {report}")


_CHECKS = {"generate": check_generate, "correlate": check_correlate,
           "diffract": check_diffract, "homometry": check_homometry,
           "reconstruct": check_reconstruct}


def invariants(op, rec, loaded=None, records=None) -> list[str]:
    """Problems with one operation's first-pass outputs, for any seed."""
    problems: list[str] = []
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}"]
    missing = [p for p in op.outputs if not os.path.exists(p)]
    if missing:
        return [f"missing outputs {missing}"]
    if op.kind == "load":
        check_load(op, rec, problems, loaded, records.get(op.params["source"]))
    else:
        _CHECKS[op.kind](op, rec, problems)
    return problems


def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[workload]


def save_golden(workload: str, records: dict) -> None:
    table = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            table = json.load(fh)
    table[workload] = records
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def differences(rec: dict, ref: dict | None, ref_name: str) -> list[str]:
    """What in ``rec`` differs from the reference record ``ref``."""
    if ref is None:
        return [f"no {ref_name} record"]
    return [f"{key} differs from the {ref_name}" for key in ("rc", "stdout", "files")
            if rec[key] != ref[key]]
