"""Patch generation, gaps, densities, and the point-set file format."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelsets import (IntervalUnion, ParameterError, QuadLatticePoint, QuadNum, ResidueSet,
                       ResourceError, gap_sequence, generate, load_pointset,
                       make_scheme, parse_window, save_pointset, window_measure)
from modelsets.schemes import TAU

FIB = make_scheme("fibonacci")
FIB_WINDOW = parse_window("[-1,1/tau)")
SET_A = ResidueSet(32, (0, 7, 8, 9, 12, 15, 17, 18, 19, 20, 21, 22, 26, 27, 29, 30))


def test_generate_small_fibonacci_patch():
    ps = generate(FIB, FIB_WINDOW, (-2, 2))
    assert list(zip(*ps.coords.tolist())) == [(-1, 0), (0, 0), (0, 1)]
    assert list(ps.physical()) == pytest.approx([-1.0, 0.0, TAU])


def test_generate_periodic_one_period():
    per = make_scheme("periodic", 32)
    ps = generate(per, SET_A, (0, 31))
    assert tuple(ps.coords[0].tolist()) == SET_A.elems


def test_generate_empty_window():
    ps = generate(FIB, IntervalUnion.empty(), (-10, 10))
    assert len(ps) == 0


def test_generate_boundary_membership_is_exact():
    # star(-1, 0) = -1 sits exactly on the closed endpoint of [-1, 1/tau): kept
    ps = generate(FIB, FIB_WINDOW, (-2, 2))
    assert (-1, 0) in set(zip(*ps.coords.tolist()))
    # star(0, -1) = tau - 1 sits exactly on the open endpoint: dropped
    probe = QuadLatticePoint(0, -1)
    assert float(probe.star_quad()) == pytest.approx(TAU - 1)
    assert -2 <= probe.phys <= 2
    assert (0, -1) not in set(zip(*ps.coords.tolist()))


def test_density_converges_to_window_measure():
    ps = generate(FIB, FIB_WINDOW, (0, 10_000))
    exact = window_measure(FIB, FIB_WINDOW)
    assert abs(ps.density() - exact) / exact < 0.02


def test_combined_full_residues_has_plain_density():
    # thinning by the full residue set changes nothing: same count to R = 1e4
    from modelsets import ProductWindow
    comb = make_scheme("combined", 32)
    full = ProductWindow(FIB_WINDOW, ResidueSet(32, range(32)))
    n_comb = len(generate(comb, full, (0, 10_000)))
    n_fib = len(generate(FIB, FIB_WINDOW, (0, 10_000)))
    assert n_comb == n_fib
    assert window_measure(comb, full) == pytest.approx(window_measure(FIB, FIB_WINDOW))


def test_generate_monotone_in_window():
    small = parse_window("[0,0.3)")
    large = parse_window("[-0.2,0.5)")
    ps_small = generate(FIB, small, (0, 300))
    ps_large = generate(FIB, large, (0, 300))
    assert set(zip(*ps_small.coords.tolist())) <= set(zip(*ps_large.coords.tolist()))


def test_fibonacci_gaps_take_two_values():
    ps = generate(FIB, FIB_WINDOW, (0, 1000))
    gaps = np.array(gap_sequence(ps))
    short, long_ = 1.0, TAU
    assert np.all((np.abs(gaps - short) < 1e-9) | (np.abs(gaps - long_) < 1e-9))


def test_meyer_difference_set_spacing():
    ps = generate(FIB, FIB_WINDOW, (0, 1000))
    ph = ps.physical()
    diffs = np.unique(np.round(ph[None, :] - ph[:, None], 9))
    spacings = np.diff(diffs)
    assert spacings.min() >= TAU**-2 - 1e-6


def test_gap_sequence_absent_site_convention():
    per = make_scheme("periodic", 32)
    ps = generate(per, SET_A, (0, 31))
    gaps = gap_sequence(ps, absent_sites=True)
    assert gaps == [6, 0, 0, 2, 2, 1, 0, 0, 0, 0, 0, 3, 0, 1, 0, 1]
    assert gaps[:4] == [6, 0, 0, 2] and gaps[-3:] == [1, 0, 1]


def test_gap_sequence_two_points():
    per = make_scheme("periodic", 4)
    ps = generate(per, ResidueSet(4, (0, 1)), (0, 1))
    gaps = gap_sequence(ps)
    assert gaps == [1.0] and type(gaps[0]) is float  # prints as 1.0, not np.float64(1.0)


def test_gap_sequence_errors():
    per = make_scheme("periodic", 32)
    ps = generate(per, SET_A, (0, 0.5))
    with pytest.raises(ParameterError):
        gap_sequence(ps)
    fibs = generate(FIB, FIB_WINDOW, (0, 10))
    with pytest.raises(ParameterError):
        gap_sequence(fibs, absent_sites=True)
    # two periods, and part of one: the wrap-around gap would read -31 and 11
    for region in ((0, 63), (0, 20)):
        with pytest.raises(ParameterError, match="^the absent-site gap convention needs a "
                                                 "region of one period, exactly 32 integer"):
            gap_sequence(generate(per, SET_A, region), absent_sites=True)


def test_generate_resource_guard():
    # refused by the candidate estimate, before any array is allocated
    with pytest.raises(ResourceError, match="visit ~"):
        generate(FIB, FIB_WINDOW, (0, 1e9))


def test_pointset_file_roundtrip_bytes(tmp_path):
    for scheme, window in [
        (FIB, FIB_WINDOW),
        (make_scheme("periodic", 32), SET_A),
        (make_scheme("combined", 32),
         parse_window("[-1,1/tau)x{0,7,8,9,12,15,17,18,19,20,21,22,26,27,29,30}@32")),
    ]:
        ps = generate(scheme, window, (-50, 50))
        path = tmp_path / "pts.txt"
        save_pointset(ps, str(path))
        loaded = load_pointset(str(path))
        assert loaded.coords.tolist() == ps.coords.tolist()
        assert loaded.region == ps.region
        again = tmp_path / "pts2.txt"
        save_pointset(loaded, str(again))
        assert path.read_bytes() == again.read_bytes()


def test_load_rejects_corrupt_star(tmp_path):
    ps = generate(FIB, FIB_WINDOW, (-5, 5))
    path = tmp_path / "pts.txt"
    save_pointset(ps, str(path))
    lines = path.read_text().splitlines()
    lines.append("3 0")  # physical 3, star 3: far outside the window
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError):
        load_pointset(str(path))


def test_load_rejects_corrupt_star_in_guard_band(tmp_path):
    # star(0, -1) = 1/tau is the open endpoint of the window: its float star
    # equals the float endpoint, so only the exact fallback can reject it
    ps = generate(FIB, FIB_WINDOW, (-5, 5))
    path = tmp_path / "pts.txt"
    save_pointset(ps, str(path))
    header = path.read_text().splitlines()[0]
    pts = sorted(list(zip(*ps.coords.tolist())) + [(0, -1)], key=lambda p: p[0] + p[1] * TAU)
    path.write_text("\n".join([header] + [f"{u} {v}" for u, v in pts]) + "\n")
    with pytest.raises(ParameterError, match="star outside the window"):
        load_pointset(str(path))


@pytest.mark.parametrize("scheme, window", [(FIB, FIB_WINDOW), (make_scheme("periodic", 32), SET_A)],
                         ids=["fibonacci", "periodic"])
def test_load_rejects_points_outside_header_region(tmp_path, scheme, window):
    # a [-50, 50] patch relabelled [-5, 5]: its first point (line 2) lies outside
    path = tmp_path / "pts.txt"
    save_pointset(generate(scheme, window, (-50, 50)), str(path))
    path.write_text(path.read_text().replace("region=[-50.0,50.0]", "region=[-5.0,5.0]"))
    with pytest.raises(ParameterError, match=re.escape(f"{path}:2: point (")
                       + r".*\) lies outside the region \[-5\.0, 5\.0\]"):
        load_pointset(str(path))


def test_load_names_the_line_of_a_star_outside_the_window(tmp_path):
    ps = generate(FIB, FIB_WINDOW, (-5, 5))
    path = tmp_path / "pts.txt"
    save_pointset(ps, str(path))
    lines = path.read_text().splitlines()
    lines.append("")
    lines.append("5 0")  # physical 5, star 5; the blank line before it is skipped
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=re.escape(
            f"{path}:{len(lines)}: point (5, 0) has star outside the window")):
        load_pointset(str(path))


@pytest.mark.parametrize("scheme, window, extra, point", [
    (FIB, FIB_WINDOW, "3 0", "(3, 0)"),   # physical 3, after the point at 1 + 2*tau
    (make_scheme("periodic", 32), SET_A, "0", "(0,)"),   # a repeat of the last point
], ids=["fibonacci", "periodic-duplicate"])
def test_load_names_the_line_of_a_point_out_of_order(tmp_path, scheme, window, extra, point):
    path = tmp_path / "pts.txt"
    save_pointset(generate(scheme, window, (-5, 5)), str(path))
    lines = path.read_text().splitlines() + [extra]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=re.escape(
            f"{path}:{len(lines)}: point {point} is out of order")):
        load_pointset(str(path))


def test_generate_refuses_regions_beyond_float_resolution():
    # beyond 2^52 neighbouring float positions are 1 apart, more than the 1/tau
    # lower bound on the gap between points of [-1, 1/tau)
    for region in [(6e15, 6e15 + 100), (-6e15 - 100, -6e15)]:
        with pytest.raises(ParameterError, match="too far out for float positions"):
            generate(FIB, FIB_WINDOW, region)
    ps = generate(FIB, FIB_WINDOW, (3e15, 3e15 + 100))
    assert len(ps) > 50 and np.all(np.diff(ps.physical()) > 0)
    # [0, 1) has an exact float width: a spacing of 1 is still no more than the gap
    assert len(generate(FIB, parse_window("[0,1)"), (2.0**52, 2.0**52 + 10))) == 4
    # integers stay exact floats up to 2^53
    assert len(generate(make_scheme("periodic", 32), SET_A, (6e15, 6e15 + 63))) == 32
    with pytest.raises(ParameterError, match="too far out for float positions"):
        generate(make_scheme("periodic", 32), SET_A, (1e16, 1e16 + 64))


def floor_quad(x: QuadNum) -> int:
    """floor((p + q*tau)/d) = floor((2p + q + q*sqrt5) / 2d), in integers."""
    r = math.isqrt(5 * x.q * x.q)   # floor(|q| sqrt5), which is irrational unless q = 0
    return (2 * x.p + x.q + (r if x.q >= 0 else -r - 1)) // (2 * x.d)


def exact_patch(window: IntervalUnion, lo: float, hi: float) -> set:
    """Every (u, v) with u + v*tau in [lo, hi] and u + v*tau' in the window, no float test."""
    lo_q, hi_q = QuadNum(Fraction(lo)), QuadNum(Fraction(hi))
    (a, b), = window.intervals
    # rows: u + v*tau in [lo, hi] and u + v*tau' in [a, b) give v*sqrt5 within
    # [lo - b, hi - a]; the margin covers the float error of the bounds
    v_lo = math.floor((lo - float(b)) / math.sqrt(5)) - 16
    v_hi = math.ceil((hi - float(a)) / math.sqrt(5)) + 16
    points = set()
    for v in range(v_lo, v_hi + 1):
        vtau_prime = QuadNum(v, -v)
        for u in range(-floor_quad(vtau_prime - a), floor_quad(b - vtau_prime) + 1):
            if lo_q <= QuadNum(u, v) <= hi_q and window.contains(QuadNum(u + v, -v)):
                points.add((u, v))
    return points


@st.composite
def far_window_and_region(draw):
    """[a, a + w) with a in Q(tau)/8 and w = c/tau^n, with a region near +-2^49 .. 2^56.

    Narrow windows pass the spacing test farthest out, beyond where the float
    error of a candidate row's bounds grows past one unit.
    """
    a = QuadNum(Fraction(draw(st.integers(-40, 40)), 8), Fraction(draw(st.integers(-20, 20)), 8))
    w = QuadNum(Fraction(draw(st.integers(1, 8)), 8))
    for _ in range(draw(st.integers(0, 7))):
        w = w / QuadNum(0, 1)
    lo = draw(st.sampled_from([-1, 1])) * 2.0 ** draw(st.integers(49, 56)) \
        * (1 + draw(st.integers(0, 2**20)) / 2**20)
    hi = lo + draw(st.integers(2, 64)) * max(1.0, float(np.spacing(abs(lo))))
    return IntervalUnion([(a, a + w)]), lo, hi


def assert_generate_is_exact_or_refused(window, lo, hi):
    try:
        ps = generate(FIB, window, (lo, hi))
    except ParameterError as err:
        assert "too far out for float positions" in str(err)
        return
    got = set(map(tuple, ps.coords.T.tolist()))
    assert got == exact_patch(window, lo, hi) and len(got) == len(ps)


@settings(max_examples=40, deadline=None)
@given(far_window_and_region())
def test_generate_at_the_float_position_limit(case):
    # beyond 2^48 the candidate rows are widened by one unit, not by their float guard
    assert_generate_is_exact_or_refused(*case)


def test_generate_refuses_a_far_narrow_window_rather_than_miss_points():
    # hull width 0.12 passes the spacing test out to 2^56, but at 2^55 the float
    # row bounds err by more than the one-unit margin: an exact search finds 4
    # points, and the unit margin found 3 of them
    window = parse_window("[-11/4+13/8*tau,0)")
    region = (-3.602879701896393e16, -3.6028797018963868e16)
    assert len(exact_patch(window, *region)) == 4
    with pytest.raises(ParameterError, match=r"too far out for float positions: lattice rows "
                                             r"there reach 2\.61e\+16, .* only below 2\^52$"):
        generate(FIB, window, region)
    # the same window inside the limit
    assert_generate_is_exact_or_refused(window, -2.0**51 - 60, -2.0**51)
    assert len(generate(FIB, window, (-2.0**51 - 60, -2.0**51))) > 0


@pytest.mark.parametrize("scheme, window, line, why", [
    (FIB, FIB_WINDOW, "1.5 0", "'1.5' is not an integer"),
    (FIB, FIB_WINDOW, "x 0", "'x' is not an integer"),
    (FIB, FIB_WINDOW, "3", "expected 2 integer(s), got 1 fields"),
    (FIB, FIB_WINDOW, "1 2 3", "expected 2 integer(s), got 3 fields"),
    (FIB, FIB_WINDOW, "99999999999999999999 0", "is not below 2^62"),  # beyond int64
    (FIB, FIB_WINDOW, "4611686018427387904 0", "is not below 2^62"),   # 2^62
    (make_scheme("periodic", 32), SET_A, "7 8", "expected 1 integer(s), got 2 fields"),
], ids=["float", "word", "one-column", "three-columns", "beyond-int64", "2^62",
        "periodic-two-columns"])
def test_load_rejects_malformed_line(tmp_path, scheme, window, line, why):
    path = tmp_path / "pts.txt"
    save_pointset(generate(scheme, window, (0, 31)), str(path))
    lines = path.read_text().splitlines()
    lines.insert(2, line)  # after the header and the first point: line 3 of the file
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(why)):
        load_pointset(str(path))
