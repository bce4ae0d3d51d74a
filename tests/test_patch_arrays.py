"""The columnar patch path against plain object loops with exact arithmetic.

Each oracle here walks lattice-point objects one at a time and decides every
membership in Q(tau), the way patches were handled before they became
coordinate arrays; the array code must agree with it exactly.  The point-file
writer is held to ``%d`` formatting, and the exact-width lattice enumeration
to the one-unit-margin row loop it replaced.
"""

import hashlib
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from modelsets import (IntervalUnion, ParameterError, PointSet, ProductWindow,
                       QuadLatticePoint, QuadNum, ResidueSet, correlations, freq_empirical,
                       gap_sequence, generate, load_pointset, make_scheme, parse_window, pointsets,
                       save_pointset, schemes, spectra, support_differences)
from modelsets.pointsets import _int_lines
from modelsets.schemes import (COMBINED, FIBONACCI, PERIODIC, SQRT5, TAU, TAU_PRIME,
                               _float_hull, _quad_candidates)
from modelsets.spectra import _golden_dual_labels

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
    # gaps of very different lengths: a window with a narrow hole, a wide window, and
    # two residues of 32
    "narrow gap": generate(FIB, parse_window("[0,1)u[1.001,2)"), (-R / 2 - 40, R / 2 + 40)),
    "dense": generate(FIB, parse_window("[0,20)"), (-R / 2 - 40, R / 2 + 40)),
    "fib x sparse": generate(make_scheme(COMBINED, 32), ProductWindow(W, ResidueSet(32, (0, 13))),
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


def test_freq_empirical_on_a_one_point_patch():
    ps = PointSet(FIB, W, np.array([[0], [0]]), (-5.0, 5.0))
    assert freq_empirical(ps, (QuadLatticePoint(0, 0),), 2.0) == 1 / 2.0
    for x in (QuadLatticePoint(1, 0), QuadLatticePoint(-1, 0), QuadLatticePoint(0, 1)):
        assert freq_empirical(ps, (x,), 2.0) == 0.0
    per = PointSet(P7.scheme, P7.window, np.array([[3]]), (-10.0, 10.0))
    assert freq_empirical(per, (0,), 8.0) == 1 / 8.0
    assert freq_empirical(per, (1,), 8.0) == freq_empirical(per, (-1,), 8.0) == 0.0


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_freq_empirical_with_partners_past_both_ends(name):
    # the region is exactly the one needed: the partners of the points near either end
    # of (-r/2, r/2) would lie past the first or the last column of the patch
    ps, r = PATCHES[name], 400.0
    p = points(ps)
    j = int(np.searchsorted(ps.physical(), 0.0))
    x = p[j + 3] - p[j]   # a difference that occurs near 0
    for pattern in [(x,), (-x,), (x, -x)]:
        ext = [phys(ps.scheme, y) for y in pattern]
        sub = generate(ps.scheme, ps.window, (-r / 2 + min(0, *ext), r / 2 + max(0, *ext)))
        got = freq_empirical(sub, pattern, r)
        assert got == freq_loop(sub, pattern, r)
        assert got > 0 or len(pattern) == 2


def test_freq_empirical_leaves_out_points_at_both_ends_on_periodic():
    ps = PATCHES["periodic"]   # residues 0, 1, 3 of 7: -7 and 7, -14 and 14 are points
    for r, inside in [(14.0, 5), (28.0, 11)]:
        for pattern in [(), (7,), (-7,), (7, -7)]:
            assert freq_empirical(ps, pattern, r) == freq_loop(ps, pattern, r) == inside / r


@pytest.mark.parametrize("y, x, short", [((11, 7), QuadLatticePoint(-1, 2), True),
                                         ((14, 6), QuadLatticePoint(0, 1), False)])
def test_freq_empirical_finds_a_partner_off_by_float_error(y, x, short):
    # the float distance from y to y + x is below or above the float length of x, so
    # the partner's shift is the last one before a stop test that has no slack
    ps = PointSet(FIB, W, np.array([[y[0], y[0] + x.u], [y[1], y[1] + x.v]]), (-30.0, 30.0))
    p, q = ps.physical()
    assert (q - p < x.phys) if short else (q - p > x.phys)
    assert freq_empirical(ps, (x,), 50.0) == freq_loop(ps, (x,), 50.0) == 1 / 50.0


# -- the point-file writer -----------------------------------------------------------

def percent_lines(coords) -> str:
    """Oracle: the file body as "%d" formatting writes it, one line per column."""
    line = " ".join(["%d"] * len(coords)) + "\n"
    return (line * coords.shape[1]) % tuple(coords.T.ravel().tolist())


# 0, +-(10^k - 1), +-10^k, the int32 boundary +-2^31 and the coordinate limit
EDGES = [0, 2**31 - 1, 2**31, 2**62 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0)]
coordinates = st.one_of(st.integers(-2**62 + 1, 2**62 - 1), st.integers(-1000, 1000),
                        st.sampled_from(EDGES + [-e for e in EDGES]))


@st.composite
def coordinate_arrays(draw):
    rows, n = draw(st.sampled_from([1, 2])), draw(st.integers(0, 8))
    return np.array(draw(st.lists(coordinates, min_size=rows * n, max_size=rows * n)),
                    dtype=np.int64).reshape(rows, n)


@settings(max_examples=300, deadline=None)
@given(coordinate_arrays())
@example(np.zeros((1, 0), dtype=np.int64))
@example(np.zeros((2, 0), dtype=np.int64))
@example(np.array([[-2**31, 2**31 - 1, 0], [2**31, -(2**31 - 1), -1]], dtype=np.int64))
def test_int_lines_match_percent_formatting(coords):
    assert _int_lines(coords) == percent_lines(coords).encode("ascii")


def test_empty_patch_file_is_the_header_line(tmp_path):
    path = tmp_path / "empty.txt"
    save_pointset(PointSet(FIB, W, np.zeros((2, 0), dtype=np.int64), (0.0, 1.0)), str(path))
    assert path.read_text() == "# modelsets pointset scheme=fibonacci window=[-1,-1+1*tau) " \
                               "region=[0.0,1.0]\n"


# -- lattice candidates ------------------------------------------------------------

def unit_margin_candidates(star, phys, budget, advice) -> np.ndarray:
    """Oracle: each row's u range widened by one on each side, one row at a time."""
    (wlo, whi), (lo, hi) = star, phys
    cols = []
    for v in range(math.floor((lo - whi) / math.sqrt(5)) - 2,
                   math.ceil((hi - wlo) / math.sqrt(5)) + 3):
        u_lo = math.ceil(max(wlo - v * TAU_PRIME, lo - v * TAU)) - 1
        u_hi = math.floor(min(whi - v * TAU_PRIME, hi - v * TAU)) + 1
        cols += [(u, v) for u in range(u_lo, u_hi + 1)]
    return np.array(cols, dtype=np.int64).reshape(-1, 2).T


def with_candidates(enumerate_, f, *args):
    """f(*args) with every caller of the lattice enumeration using ``enumerate_``."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (pointsets, correlations, spectra):
            mp.setattr(module, "_quad_candidates", enumerate_)
        try:
            return f(*args)
        except ParameterError as e:
            return str(e)


def same_result(a, b) -> bool:
    if isinstance(a, PointSet):
        return isinstance(b, PointSet) and np.array_equal(a.coords, b.coords)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


FIBS = [0, 1]
while len(FIBS) < 90:
    FIBS.append(FIBS[-1] + FIBS[-2])


@st.composite
def eighth_endpoints(draw):
    """Endpoints (a + b*tau)/8 with |value| < 4."""
    return [q for q in (QuadNum(Fraction(draw(st.integers(-40, 40)), 8),
                                Fraction(draw(st.integers(-24, 24)), 8))
                        for _ in range(draw(st.sampled_from([2, 4]))))
            if abs(float(q)) < 4]


@st.composite
def cancelling_endpoints(draw):
    """Endpoints c/8 +- (F(n+1) - F(n)*tau), within tau^-n of c/8 but with coefficients ~F(n)."""
    return [QuadNum(Fraction(draw(st.integers(-24, 24)), 8), 0)
            + draw(st.sampled_from([1, -1])) * QuadNum(FIBS[n + 1], -FIBS[n])
            for n in (draw(st.integers(30, 72)) for _ in range(draw(st.sampled_from([2, 4]))))]


@st.composite
def enumeration_cases(draw):
    ends = sorted(set(draw(st.one_of(eighth_endpoints(), cancelling_endpoints()))))
    assume(len(ends) >= 2)
    iu = IntervalUnion(list(zip(ends[::2], ends[1::2])))
    scheme, w = FIB, iu
    if draw(st.booleans()):
        scheme, w = make_scheme(COMBINED, 8), ProductWindow(iu, draw(residue_sets(8)))
    if draw(st.booleans()):
        lo = draw(st.floats(-60, 60))
        region = (lo, lo + draw(st.floats(0.5, 40)))
    else:  # at the float-position limit for this hull width, or one binade past it
        lo, hi = _float_hull(iu)
        k = math.floor(52 - math.log2(hi - lo))
        x = 2.0 ** (k + 1 + draw(st.integers(-2, 1))) - 100
        region = (x, x + 60) if draw(st.booleans()) else (-x - 60, -x)
    return scheme, w, region, draw(st.floats(0, 5))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(enumeration_cases())
def test_exact_width_candidates_match_the_unit_margin(case):
    scheme, w, region, cutoff = case
    for f, args in [(generate, (scheme, w, region)),
                    (support_differences, (scheme, w, cutoff))]:
        assert same_result(with_candidates(_quad_candidates, f, *args),
                           with_candidates(unit_margin_candidates, f, *args))


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 12), st.floats(0, 12), st.sampled_from([1, 2, 32]), st.integers(0, 31))
def test_exact_width_dual_labels_match_the_unit_margin(kmax, kappa_bound, N, b):
    args = (kmax, kappa_bound, b % N, N)
    assert same_result(with_candidates(_quad_candidates, _golden_dual_labels, *args),
                       with_candidates(unit_margin_candidates, _golden_dual_labels, *args))


ranges = st.tuples(st.floats(-1e3, 1e3), st.floats(0, 30)).map(lambda t: (t[0], t[0] + t[1]))
far_ranges = st.tuples(st.floats(-2.0 ** 60, 2.0 ** 60), st.floats(0, 30)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(ranges, st.builds(lambda u, v, d: (u + v * TAU_PRIME, u + v * TAU_PRIME + d),
                                   st.integers(-50, 50), st.integers(-50, 50),
                                   st.sampled_from([0.0, 1.0, TAU]))),
       st.one_of(ranges, far_ranges))
def test_candidates_keep_every_box_point_and_visit_no_more(star, phys):
    new = set(zip(*_quad_candidates(star, phys, 10**7, "").tolist()))
    old = set(zip(*unit_margin_candidates(star, phys, 10**7, "").tolist()))
    assert new <= old
    (wlo, whi), (lo, hi) = ((QuadNum.coerce(Fraction(x)) for x in r) for r in (star, phys))
    assert {(u, v) for u, v in old
            if wlo <= QuadNum(u + v, -v) <= whi and lo <= QuadNum(u, v) <= hi} <= new


def test_fibonacci_patch_visits_hardly_more_candidates_than_points(monkeypatch):
    visited = []

    def counting(*args):
        cand = _quad_candidates(*args)
        visited.append(cand.shape[1])
        return cand

    monkeypatch.setattr(pointsets, "_quad_candidates", counting)
    ps = generate(FIB, W, (-5e5, 5e5))
    # one call a physical block, and hardly a candidate more over all the blocks
    assert len(visited) > 1 and sum(visited) <= 1.01 * len(ps) + 2


# -- chunk boundaries ---------------------------------------------------------------

CHUNKS = [1, 3, schemes.PATCH_CHUNK]


def check_chunk_sizes_agree(scheme, w, region):
    """generate and save_pointset give the same columns and bytes at every chunk size,
    and the file body is the "%d" oracle's; a refused region is refused at every size."""
    results = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "patch.txt"
        for chunk in CHUNKS:
            mp.setattr(schemes, "PATCH_CHUNK", chunk)
            try:
                ps = generate(scheme, w, region)
            except ParameterError as e:
                results.append(str(e))
                continue
            save_pointset(ps, str(path))
            results.append((ps.coords, path.read_bytes()))
    if isinstance(results[0], str):
        assert results == results[:1] * len(CHUNKS)
        return None
    (coords, text), *others = results
    assert text.decode().partition("\n")[2] == percent_lines(coords)
    for c, t in others:
        assert c.dtype == coords.dtype and np.array_equal(c, coords)
        assert t == text
    return coords


@SETTINGS
@given(st.one_of(scheme_window_region(), enumeration_cases().map(lambda c: c[:3])))
def test_chunk_size_changes_no_patch_and_no_byte(case):
    check_chunk_sizes_agree(*case)


FIB_X_A, P7 = PATCHES["fib x A"], PATCHES["periodic"]


@pytest.mark.parametrize("scheme, w, region, size", [
    (FIB, W, (0.1, 0.1 + 1e-9), 0),                    # empty patches
    (P7.scheme, ResidueSet(7, (0,)), (1.0, 6.0), 0),
    (FIB_X_A.scheme, FIB_X_A.window, (0.25, 0.5), 0),
    (P7.scheme, P7.window, (1.0, 6.0), 2),
    (FIB, W, (-30.0, 3000.0), 2192),                   # 1 to 4 digits, both signs
    (P7.scheme, P7.window, (-1000.0, 1000.0), 857),
    (FIB_X_A.scheme, FIB_X_A.window, (-2000.0, 200.0), 794),
    (FIB, W, (-1e14 - 2000, -1e14), 1448),             # 14 digits, a wide guard band
])
def test_chunk_boundaries_on_known_patches(scheme, w, region, size):
    coords = check_chunk_sizes_agree(scheme, w, region)
    assert coords.shape[1] == size


# -- physical blocks -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(0, 70)), max_size=12),
       st.sampled_from([1, 3, 32, 2**40]), st.data())
def test_residue_count_matches_a_loop(rows, N, data):
    # a modulus above the number of rows (32 or 2^40 here) is counted without a table
    rs = ResidueSet(N, data.draw(st.lists(st.integers(0, min(N, 40) - 1), max_size=8)))
    first = np.array([f for f, _ in rows], dtype=np.int64)
    count = np.array([c for _, c in rows], dtype=np.int64)
    assert pointsets._residue_count(first, count, rs) == \
        sum(rs.contains(u) for f, c in rows for u in range(f, f + c))
    assert pointsets._residue_count(first, count, None) == sum(c for _, c in rows)


@pytest.mark.parametrize("n", [42, 45])
def test_a_point_within_the_float_guard_of_a_cut_is_kept_once(n, monkeypatch):
    # v = F(n)/2 and F(n+1) odd: v*tau is within tau^-n/2 of the half-integer F(n+1)/2,
    # below it for even n and above it for odd n, far inside the float error of the
    # positions there; its star is -F(n-1)/2, within the window of width 1 about it
    v, half = FIBS[n] // 2, FIBS[n + 1] / 2
    w = parse_window(f"[{-(FIBS[n - 1] + 1) // 2},{-(FIBS[n - 1] - 1) // 2})")
    monkeypatch.setattr(schemes, "PATCH_CHUNK", 64)
    span = schemes._block_span(_float_hull(w))
    lo, hi = half - span - 0.25, half + 2 * span + 0.3   # cuts at half - span, half, ...
    ends = []

    def recording(star, phys, *args):
        ends.append(phys[1])
        return _quad_candidates(star, phys, *args)

    monkeypatch.setattr(pointsets, "_quad_candidates", recording)
    ps = generate(FIB, w, (lo, hi))
    assert half in ends   # a block ends at the cut beside the point
    pts, p = points(ps), QuadLatticePoint(0, v)
    assert pts == tuple(brute_force(FIB, w, lo, hi)) and pts.count(p) == 1
    assert abs(ps.physical()[pts.index(p)] - half) < 1e-6


def test_an_out_of_order_pair_across_a_chunk_seam_is_refused(tmp_path, monkeypatch):
    ps = generate(FIB, W, (-3.0, 6.0))
    path = tmp_path / "pts.txt"
    save_pointset(ps, str(path))
    lines = path.read_text().splitlines()
    lines[4], lines[5] = lines[5], lines[4]   # points 3 and 4, on either side of a seam
    path.write_text("\n".join(lines) + "\n")
    swapped = ps.coords[:, [0, 1, 2, 4, 3, *range(5, len(ps))]]
    errors = []
    for chunk in (4, CHUNKS[-1]):
        monkeypatch.setattr(schemes, "PATCH_CHUNK", chunk)
        with pytest.raises(ParameterError, match="^physical positions must be strictly "
                                                 "increasing$"):
            PointSet(FIB, W, swapped, ps.region)
        with pytest.raises(ParameterError) as e:
            load_pointset(str(path))
        errors.append(str(e.value))
    assert len(ps) > 5 and errors == 2 * [
        f"{path}:6: point {tuple(swapped[:, 4].tolist())} is out of order: "
        "physical positions must be strictly increasing"]


@pytest.mark.parametrize("chunk", CHUNKS[1:])
def test_block_size_changes_no_empirical_frequency_and_no_gap(chunk, monkeypatch):
    # the values of the patches that a global sort of all candidates made
    monkeypatch.setattr(schemes, "PATCH_CHUNK", chunk)
    ps = generate(FIB, W, (-2010.0, 2010.0))
    gaps = np.array(gap_sequence(ps))
    assert hashlib.sha256(gaps.tobytes()).hexdigest() == \
        "e888bf4e866f3600ba5c3868857a3fa681f39fc5bde0ef89512d12a63068ed19"
    got = [freq_empirical(ps, [QuadLatticePoint(*x) for x in pattern], 4000).hex()
           for pattern in [[(1, 0)], [(0, 1)], [(1, 1)], [(1, 1), (2, 1)]]]
    assert got == ["0x1.1b22d0e560419p-2", "0x1.c9fbe76c8b439p-2", "0x1.1b020c49ba5e3p-1",
                   "0x1.b020c49ba5e35p-4"]
    set_a = ResidueSet(32, (0, 7, 8, 9, 12, 15, 17, 18, 19, 20, 21, 22, 26, 27, 29, 30))
    per = generate(make_scheme("periodic", 32), set_a, (-1100.0, 1100.0))
    assert [freq_empirical(per, pattern, 2000).hex() for pattern in [(3,), (3, 11)]] == \
        ["0x1.1f3b645a1cac1p-2", "0x1.3e76c8b439581p-3"]
