"""The columnar patch path against plain object loops with exact arithmetic.

Each oracle here walks lattice-point objects one at a time and decides every
membership in Q(tau), the way patches were handled before they became
coordinate arrays; the array code must agree with it exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from modelsets import (IntervalUnion, ProductWindow, QuadLatticePoint, QuadNum,
                       ResidueSet, freq_empirical, generate, load_pointset,
                       make_scheme, parse_window, save_pointset)
from modelsets.schemes import COMBINED, FIBONACCI, PERIODIC, SQRT5, TAU, TAU_PRIME

FIB = make_scheme("fibonacci")
W = parse_window("[-1,1/tau)")
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def points(ps) -> tuple:
    """The patch as lattice-point objects (ints for periodic:N), built from its coords."""
    if ps.scheme.kind == PERIODIC:
        return tuple(ps.coords[0].tolist())
    return tuple(map(QuadLatticePoint, *ps.coords.tolist()))


def phys(scheme, p) -> float:
    return float(p) if scheme.kind == PERIODIC else p.phys


def brute_force(scheme, w, lo, hi) -> list:
    """Every point of the model set in [lo, hi], by a plain loop with exact tests.

    x = u + v*tau in [lo, hi] and x* = u + v*tau' in the window hull bound
    v = (x - x*)/sqrt5 and then u = x* - v*tau'; the margins absorb rounding.
    """
    lo_q, hi_q = QuadNum.coerce(Fraction(lo)), QuadNum.coerce(Fraction(hi))
    if scheme.kind == PERIODIC:
        return [n for n in range(math.ceil(lo), math.floor(hi) + 1) if w.contains(n)]
    iu = w if scheme.kind == FIBONACCI else w.intervals
    if iu.is_empty():
        return []
    a, b = (float(e) for e in iu.hull())
    out = []
    for v in range(math.floor((lo - b) / SQRT5) - 2, math.ceil((hi - a) / SQRT5) + 3):
        for u in range(math.floor(a - v * TAU_PRIME) - 2, math.ceil(b - v * TAU_PRIME) + 3):
            p = QuadLatticePoint(u, v)
            if (lo_q <= p.to_quad() <= hi_q and iu.contains(p.star_quad())
                    and (scheme.kind != COMBINED or w.residues.contains(u))):
                out.append(p)
    return sorted(out, key=lambda p: p.to_quad())


def freq_loop(ps, pattern, R) -> float:
    """Occurrences per unit length, one point and one set lookup at a time."""
    members = set(points(ps))
    count = sum(1 for p in members
                if -R / 2 < phys(ps.scheme, p) < R / 2
                and all(p + x in members for x in pattern))
    return count / R


# -- strategies ---------------------------------------------------------------

small = st.integers(-6, 6)


@st.composite
def star_intervals(draw):
    """An interval window whose endpoints are stars of lattice points."""
    ends = [QuadLatticePoint(draw(small), draw(small)).star_quad() for _ in range(2)]
    assume(ends[0] != ends[1] and all(abs(float(e)) < 4 for e in ends))
    return IntervalUnion([tuple(sorted(ends))])


@st.composite
def residue_sets(draw, modulus):
    elems = draw(st.sets(st.integers(0, modulus - 1), min_size=1))
    return ResidueSet(modulus, elems)


@st.composite
def lattice_region(draw):
    """A region whose endpoints are the floats nearest to lattice points."""
    u, v = draw(st.integers(-40, 40)), draw(st.integers(-25, 25))
    lo = u + v * TAU
    hi = lo + draw(st.sampled_from([1.0, TAU, 3 * TAU, 20.0, 40 + 5 * TAU]))
    return lo, hi


@st.composite
def scheme_window_region(draw):
    kind = draw(st.sampled_from([FIBONACCI, PERIODIC, COMBINED]))
    if kind == PERIODIC:
        n = draw(st.sampled_from([4, 7, 32]))
        lo = draw(st.integers(-50, 50)) + draw(st.sampled_from([0.0, 0.5]))
        return make_scheme(PERIODIC, n), draw(residue_sets(n)), (lo, lo + draw(st.integers(1, 60)))
    iu = draw(star_intervals())
    if kind == FIBONACCI:
        return FIB, iu, draw(lattice_region())
    n = draw(st.sampled_from([4, 32]))
    return make_scheme(COMBINED, n), ProductWindow(iu, draw(residue_sets(n))), \
        draw(lattice_region())


# -- generate -------------------------------------------------------------------

@SETTINGS
@given(scheme_window_region())
def test_generate_matches_brute_force(case):
    scheme, w, (lo, hi) = case
    ps = generate(scheme, w, (lo, hi))
    assert points(ps) == tuple(brute_force(scheme, w, lo, hi))
    assert len(ps) == len(points(ps))


@pytest.mark.parametrize("region", [(1e14, 1e14 + 2000), (-1e14 - 2000, -1e14)])
def test_generate_far_from_origin_is_exact(region, tmp_path):
    # at |x| ~ 1e14 the float star of a point is off by ~1e-2, far more than
    # a fixed guard band; every point must still pass the exact test
    ps = generate(FIB, W, region)
    assert points(ps) == tuple(brute_force(FIB, W, *region))
    path = str(tmp_path / "far.txt")
    save_pointset(ps, path)
    assert points(load_pointset(path)) == points(ps)


# -- freq_empirical --------------------------------------------------------------

R = 1000.0
PATCHES = {
    "fib": generate(FIB, W, (-R / 2 - 40, R / 2 + 40)),
    "fib x A": generate(make_scheme(COMBINED, 32),
                        ProductWindow(W, ResidueSet(32, (0, 7, 8, 9, 12, 15, 17, 18, 19,
                                                         20, 21, 22, 26, 27, 29, 30))),
                        (-R / 2 - 40, R / 2 + 40)),
    "periodic": generate(make_scheme(PERIODIC, 7), ResidueSet(7, (0, 1, 3)),
                         (-R / 2 - 40, R / 2 + 40)),
}


@st.composite
def patch_and_pattern(draw):
    ps = PATCHES[draw(st.sampled_from(sorted(PATCHES)))]
    if ps.scheme.kind == PERIODIC:
        point = st.integers(-30, 30)
    else:
        point = st.builds(QuadLatticePoint, st.integers(-15, 15), st.integers(-9, 9)) \
            .filter(lambda p: abs(p.phys) <= 30)
    return ps, draw(st.lists(point, max_size=3))


@SETTINGS
@given(patch_and_pattern())
def test_freq_empirical_matches_loop(case):
    ps, pattern = case
    assert freq_empirical(ps, pattern, R) == freq_loop(ps, pattern, R)


def test_freq_empirical_counts_known_pattern():
    # the tau step occurs: the loop oracle gives a nonzero count here
    ps = PATCHES["fib"]
    assert freq_empirical(ps, (QuadLatticePoint(0, 1),), R) == \
        freq_loop(ps, (QuadLatticePoint(0, 1),), R) > 0
