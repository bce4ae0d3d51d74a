"""Seeded inputs for the three benchmark workloads.

Seed 0 gives exactly the README / acceptance literals.  Any other seed moves
window endpoints, residue translations and region offsets inside families
that keep the amount of work fixed: the same interval count, hull length,
region length and grid size M.  Interval windows move by k/32, a whole
number of cells on every grid used here, so sampled indicators are exact
circular shifts and every literal is a finite decimal.  The program only
ever sees the generated literals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

WORKLOADS = ("patch", "exact", "recover")
OUT_DIR = ".perfbench_out"      # relative to the checkout root

# the documented homometric pair in Z/32Z (README aliases A and B)
SET_A = (0, 7, 8, 9, 12, 15, 17, 18, 19, 20, 21, 22, 26, 27, 29, 30)
SET_B = (0, 1, 8, 9, 10, 12, 13, 15, 18, 19, 20, 21, 22, 23, 27, 30)
MODULUS = 32

GRIDS = (512, 1024, 2048)


@dataclass(frozen=True)
class Op:
    """One user-facing operation: a CLI argv, or the library read path."""

    name: str                 # unique within the workload
    kind: str                 # generate | load | correlate | diffract | homometry | reconstruct
    argv: tuple               # CLI arguments; for ``load`` the point-file path
    outputs: tuple = ()       # files the operation writes
    params: dict = field(default_factory=dict)   # facts the output checks need


@dataclass(frozen=True)
class Inputs:
    shift: Fraction           # internal-space shift of every interval window
    res_a: int                # residue translation of A
    res_b: int                # residue translation of B
    offset_big: int           # region offset of the 1e6-long patches
    offset_small: int         # region offset of the 1e5-long patch
    recon_shift: Fraction     # shift of the reconstruction windows


def draw(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(Fraction(0), 0, 0, 0, 0, Fraction(0))
    rng = random.Random(seed)
    return Inputs(shift=Fraction(rng.randint(-32, 32), 32),
                  res_a=rng.randrange(MODULUS), res_b=rng.randrange(MODULUS),
                  offset_big=rng.randint(-5000, 5000),
                  offset_small=rng.randint(-500, 500),
                  recon_shift=Fraction(rng.randint(-16, 16), 32))


def _dec(x: Fraction) -> str:
    """Exact decimal text of a dyadic rational."""
    return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


def _plus(expr: str, a: Fraction) -> str:
    return expr if a == 0 else f"{expr}{'+' if a > 0 else '-'}{_dec(abs(a))}"


def _intervals(pairs, a: Fraction) -> str:
    return "u".join(f"[{_dec(Fraction(lo) + a)},{_dec(Fraction(hi) + a)})" for lo, hi in pairs)


def _residues(elems, t: int) -> str:
    return "{" + ",".join(str(e) for e in sorted((e + t) % MODULUS for e in elems)) \
        + "}@" + str(MODULUS)


def fib(a: Fraction) -> str:
    return "fib" if a == 0 else f"[{_plus('-1', a)},{_plus('1/tau', a)})"


def fib_times(a: Fraction, name: str, elems, t: int) -> str:
    if a == 0 and t == 0:
        return f"fib x {name}"
    return f"{fib(a)} x {_residues(elems, t)}"


def two_intervals(a: Fraction) -> str:
    return _intervals([(0, 1), (Fraction(3, 2), Fraction(9, 4))], a)


def _region(half: int, offset: int) -> tuple[str, str]:
    # integers: argparse would take "-5e5" for an option
    return str(-half + offset), str(half + offset)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    x = draw(seed)
    out = f"{OUT_DIR}/{workload}"
    W_fib = fib(x.shift)
    W_fib_a = fib_times(x.shift, "A", SET_A, x.res_a)
    W_fib_b = fib_times(x.shift, "B", SET_B, x.res_b)
    ops: list[Op] = []

    if workload == "patch":
        big = _region(500_000, x.offset_big)
        small = _region(50_000, x.offset_small)
        for name, scheme, window, region in (
                ("generate.fib.1e6", "fibonacci", W_fib, big),
                ("generate.fibxA.1e6", "combined:32", W_fib_a, big),
                ("generate.fib.1e5", "fibonacci", W_fib, small)):
            path = f"{out}/{name}.txt"
            ops.append(Op(name, "generate",
                          ("generate", "--scheme", scheme, "--window", window,
                           "--region", *region, "-o", path),
                          (path,), {"scheme": scheme, "window": window, "region": region}))
        ops.append(Op("load.fib.1e5", "load", (f"{out}/generate.fib.1e5.txt",),
                      params={"source": "generate.fib.1e5"}))
        for name, scheme, window, order, cutoff, R in (
                ("correlate.fib.o2.emp", "fibonacci", W_fib, 2, "5", "9e4"),
                ("correlate.fibxA.o3.emp", "combined:32", W_fib_a, 3, "3", "4e4")):
            path = f"{out}/{name}.csv"
            ops.append(Op(name, "correlate",
                          ("correlate", "--scheme", scheme, "--window", window,
                           "--order", str(order), "--cutoff", cutoff, "--empirical", R,
                           "-o", path),
                          (path,), {"scheme": scheme, "window": window, "order": order,
                                    "empirical": True}))

    elif workload == "exact":
        for name, scheme, window, order, cutoff, compare in (
                ("correlate.fib.o3.c14", "fibonacci", W_fib, 3, "14", None),
                ("correlate.two.o4.c4", "fibonacci", two_intervals(x.shift), 4, "4", None),
                ("correlate.fibxA.cmpB.o3.c4", "combined:32", W_fib_a, 3, "4", W_fib_b)):
            path = f"{out}/{name}.csv"
            argv = ["correlate", "--scheme", scheme, "--window", window]
            if compare is not None:
                argv += ["--compare", compare]
            argv += ["--order", str(order), "--cutoff", cutoff, "-o", path]
            ops.append(Op(name, "correlate", tuple(argv), (path,),
                          {"scheme": scheme, "window": window, "order": order,
                           "compare": compare is not None}))
        path, svg = f"{out}/diffract.fib.k10.csv", f"{out}/diffract.fib.k10.svg"
        ops.append(Op("diffract.fib.k10", "diffract",
                      ("diffract", "--scheme", "fibonacci", "--window", W_fib,
                       "--kmax", "10", "--min-intensity", "1e-5", "--svg", svg, "-o", path),
                      (path, svg), {"scheme": "fibonacci", "window": W_fib,
                                    "kmax": 10.0, "min_intensity": 1e-5}))
        path = f"{out}/diffract.fibxA.k2.csv"
        ops.append(Op("diffract.fibxA.k2", "diffract",
                      ("diffract", "--scheme", "combined:32", "--window", W_fib_a,
                       "--kmax", "2", "--min-intensity", "1e-5", "-o", path),
                      (path,), {"scheme": "combined:32", "window": W_fib_a,
                                "kmax": 2.0, "min_intensity": 1e-5}))
        ops.append(Op("homometry", "homometry", ("homometry",)))

    elif workload == "recover":
        a = x.recon_shift
        windows = (("unit", _intervals([(0, 1)], a)),
                   ("centred", _intervals([(Fraction(-1, 2), Fraction(1, 2))], a)),
                   ("two", two_intervals(a)))
        for label, window in windows:
            for M in GRIDS:
                name = f"reconstruct.{label}.M{M}"
                path = f"{out}/{name}.json"
                ops.append(Op(name, "reconstruct",
                              ("reconstruct", "--selftest", "--window", window,
                               "--grid", str(M), "-o", path),
                              (path,), {"window": window, "grid": M}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops

