"""Exact vs empirical frequencies and correlation measures."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modelsets import (IntervalUnion, ParameterError, ProductWindow, QuadLatticePoint,
                       ResidueSet, correlation_measure, correlations_equal, freq_empirical,
                       freq_exact, generate, make_scheme, parse_window, star,
                       support_differences, window_intersect, window_measure)
from modelsets import correlations
from modelsets.cli import expand_window_literal
from modelsets.schemes import TAU, TAU_PRIME, QuadNum, parse_scheme

FIB = make_scheme("fibonacci")
W = parse_window("[-1,1/tau)")
TAU_PT = QuadLatticePoint(0, 1)

ONE_OVER_SQRT5 = 0.4472135954999579  # window cut with its tau-translate has length 1


def test_freq_exact_examples():
    assert freq_exact(FIB, W, (TAU_PT,)) == pytest.approx(ONE_OVER_SQRT5, abs=1e-12)
    # empty pattern: the frequency of {0} is the density
    assert freq_exact(FIB, W, ()) == pytest.approx(window_measure(FIB, W))
    # star(3 + 0*tau) = 3 lies outside W - W
    assert freq_exact(FIB, W, (QuadLatticePoint(3, 0),)) == 0.0


def test_freq_exact_translation_invariance():
    rng = random.Random(5)
    pats = [(TAU_PT,), (TAU_PT, QuadLatticePoint(1, 1)), (QuadLatticePoint(-1, 1),)]
    for _ in range(20):
        t = QuadNum(rng.randint(-5, 5), rng.randint(-3, 3))
        moved = W.translate(t)
        for pat in pats:
            assert freq_exact(FIB, moved, pat) == pytest.approx(
                freq_exact(FIB, W, pat), abs=1e-14)


def test_freq_monotone_under_pattern_growth():
    base = (TAU_PT,)
    bigger = (TAU_PT, QuadLatticePoint(1, 1))
    assert freq_exact(FIB, W, bigger) <= freq_exact(FIB, W, base) + 1e-15


def test_repeats_and_zero_leave_frequencies_unchanged():
    zero = QuadLatticePoint(0, 0)
    ps = generate(FIB, W, (-1_005, 1_005))
    for pat in [(TAU_PT,), (QuadLatticePoint(-1, 1), TAU_PT)]:
        padded = pat + (zero,) + pat[::-1]
        assert freq_exact(FIB, W, padded) == freq_exact(FIB, W, pat)
        assert freq_empirical(ps, padded, 2e3) == freq_empirical(ps, pat, 2e3)
    assert freq_exact(FIB, W, (zero, zero)) == freq_exact(FIB, W, ())
    assert freq_empirical(ps, (zero, zero), 2e3) == freq_empirical(ps, (), 2e3)


def test_pattern_points_of_the_wrong_type_are_refused():
    per = parse_scheme("periodic:32")
    a = parse_window(expand_window_literal("A"))
    ps = generate(per, a, (-100, 100))
    for bad in (2.7, np.int64(2), TAU_PT):
        with pytest.raises(ParameterError):
            freq_exact(per, a, (bad,))
        with pytest.raises(ParameterError):
            freq_empirical(ps, (bad,), 50)
    fib_ps = generate(FIB, W, (-100, 100))
    with pytest.raises(ParameterError):
        freq_exact(FIB, W, (2,))
    with pytest.raises(ParameterError):
        freq_empirical(fib_ps, (2,), 50)


def test_freq_empirical_matches_exact():
    ps = generate(FIB, W, (-10_005, 10_005))
    got = freq_empirical(ps, (TAU_PT,), 2e4)
    assert got == pytest.approx(ONE_OVER_SQRT5, abs=0.01)
    dens = freq_empirical(ps, (), 2e4)
    assert dens == pytest.approx(window_measure(FIB, W), rel=0.01)


def test_freq_empirical_region_check():
    ps = generate(FIB, W, (-100, 100))
    with pytest.raises(ParameterError, match="too small"):
        freq_empirical(ps, (TAU_PT,), 1000)


def test_freq_empirical_empty_patch():
    per = make_scheme("periodic", 4)
    ps = generate(per, ResidueSet(4, (0,)), (-50, 50))
    empty = ps.__class__(per, ps.window, (), ps.region)
    assert freq_empirical(empty, (), 10) == 0.0


def test_correlation_measure_order2():
    m = correlation_measure(FIB, W, 2, 5.0)
    assert m.entry((TAU_PT,)) == pytest.approx(ONE_OVER_SQRT5, abs=1e-12)
    assert m.density() == pytest.approx(window_measure(FIB, W), abs=1e-12)
    # reflection symmetry of pair frequencies; nothing exceeds the density
    for (x,), f in m.entries.items():
        assert m.entry((-x,)) == pytest.approx(f, abs=1e-12)
        assert 0 < f <= m.density() + 1e-12


def test_correlation_measure_zero_cutoff():
    m = correlation_measure(FIB, W, 2, 0.0)
    assert set(m.entries) == {(QuadLatticePoint(0, 0),)}


def test_correlation_support_is_complete():
    # every difference of a generated patch within the cutoff must show up
    ps = generate(FIB, W, (-30, 30))
    support = set(support_differences(FIB, W, 8.0))
    pts = list(map(QuadLatticePoint, *ps.coords.tolist()))
    for i, p in enumerate(pts):
        for q in pts[i:]:
            d = q - p
            if abs(d.phys) <= 8.0:
                assert d in support


def test_correlations_equal_self_and_mismatch():
    m = correlation_measure(FIB, W, 2, 3.0)
    assert correlations_equal(m, m, tol=0.0) == (True, None)
    m2 = correlation_measure(FIB, W, 2, 4.0)
    with pytest.raises(ParameterError):
        correlations_equal(m, m2)
    # integer and Z[tau] keys do not compare
    m3 = correlation_measure(make_scheme("periodic", 32), ResidueSet(32, (0, 7)), 2, 3.0)
    with pytest.raises(ParameterError, match="lattice"):
        correlations_equal(m, m3)


def test_correlations_equal_reports_witness():
    m1 = correlation_measure(FIB, W, 2, 3.0)
    shrunk = parse_window("[-0.9,1/tau)")
    m2 = correlation_measure(FIB, shrunk, 2, 3.0)
    equal, witness = correlations_equal(m1, m2, tol=1e-9)
    assert not equal and witness is not None
    key, v1, v2 = witness
    assert abs(v1 - v2) > 1e-9


def test_product_factorization_combined():
    comb = make_scheme("combined", 32)
    S = ResidueSet(32, (0, 7, 8, 9, 12))
    pw = ProductWindow(W, S)
    rng = random.Random(3)
    for _ in range(20):
        x = QuadLatticePoint(rng.randint(-6, 6), rng.randint(-4, 4))
        y = QuadLatticePoint(rng.randint(-6, 6), rng.randint(-4, 4))
        whole = freq_exact(comb, pw, (x, y))
        interval = freq_exact(FIB, W, (x, y))
        members = set(S.elems)
        count = sum(1 for a in S.elems
                    if (a + x.u) % 32 in members and (a + y.u) % 32 in members)
        assert whole == pytest.approx(interval * count / 32, abs=1e-12)


@pytest.mark.parametrize("name", ["A", "B"])
def test_periodic_support_differences_match_integer_loop(name):
    scheme = parse_scheme("periodic:32")
    w = parse_window(expand_window_literal(name))
    loop = [x for x in range(-100, 101) if freq_exact(scheme, w, (x,)) > 0]
    assert support_differences(scheme, w, 100.0) == loop


def loop_support_differences(scheme, w, cutoff):
    """Oracle: one (u, v) at a time over the hull of W - W, widened by one on each side."""
    iu = w if isinstance(w, IntervalUnion) else w.intervals
    lo, hi = (float(x) for x in iu.hull())
    diff_lo, diff_hi = lo - hi, hi - lo
    vmin = math.floor((-cutoff - diff_hi) / math.sqrt(5)) - 2
    vmax = math.ceil((cutoff - diff_lo) / math.sqrt(5)) + 2
    out = []
    for v in range(vmin, vmax + 1):
        ulo = math.floor(diff_lo - v * TAU_PRIME) - 1
        uhi = math.ceil(diff_hi - v * TAU_PRIME) + 1
        for u in range(ulo, uhi + 1):
            if abs(u + v * TAU) > cutoff + 1e-12:
                continue
            x = QuadLatticePoint(u, v)
            if not window_intersect(w, w.translate(star(scheme, -x))).is_empty():
                out.append(x)
    out.sort(key=lambda p: (p.phys, p.u, p.v))
    return out


# unions of up to three intervals with endpoints in Z/16
interval_windows = st.lists(st.integers(-48, 48), min_size=2, max_size=6, unique=True).map(
    sorted).map(lambda ends: IntervalUnion(
        (Fraction(a, 16), Fraction(b, 16)) for a, b in zip(ends[::2], ends[1::2])))
cutoffs = st.one_of(st.floats(0, 25),
                    # a lattice length, where the cutoff test is an equality
                    st.builds(lambda u, v: abs(u + v * TAU), st.integers(-20, 20),
                              st.integers(-12, 12)).filter(lambda c: c <= 25))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(interval_windows, cutoffs, st.sets(st.integers(0, 31), min_size=1),
       st.booleans())
def test_support_differences_match_the_per_difference_loop(iu, cutoff, residues, combined):
    scheme, w = make_scheme("fibonacci"), iu
    if combined:
        scheme, w = make_scheme("combined", 32), ProductWindow(iu, ResidueSet(32, residues))
    assert support_differences(scheme, w, cutoff) == loop_support_differences(scheme, w, cutoff)


ORACLE_CASES = [  # (scheme, window, cutoff per order 2, 3, 4)
    ("fibonacci", "[-1,1/tau)", (5.0, 4.0, 3.0)),
    ("fibonacci", "[0,1)u[1.5,2.25)", (4.0, 3.0, 2.0)),
    ("combined:32", "fib x A", (5.0, 3.0, 2.0)),
    ("periodic:32", "A", (8.0, 5.0, 3.0)),
]


@pytest.mark.parametrize("scheme_text,window_text,cutoffs", ORACLE_CASES)
@pytest.mark.parametrize("order", [2, 3, 4])
def test_correlation_measure_matches_ordered_tuple_oracle(scheme_text, window_text,
                                                          cutoffs, order):
    scheme = parse_scheme(scheme_text)
    w = parse_window(expand_window_literal(window_text))
    cutoff = cutoffs[order - 2]
    base = support_differences(scheme, w, cutoff)
    oracle = {}
    for tup in product(base, repeat=order - 1):
        f = freq_exact(scheme, w, tup)
        if f > 0:
            oracle[tup] = f
    assert oracle
    assert correlation_measure(scheme, w, order, cutoff).entries == oracle


def _counting(monkeypatch, name):
    """Replace correlations.<name> by a wrapper that records its arguments."""
    calls = []
    inner = getattr(correlations, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(correlations, name, counting)
    return calls


def test_correlation_measure_evaluates_each_pattern_once(monkeypatch):
    w = parse_window("[0,1)u[1.5,2.25)")
    base = support_differences(FIB, w, 4.0)
    monkeypatch.setattr(correlations, "support_differences", lambda *a: base)
    calls = _counting(monkeypatch, "window_measure")
    correlation_measure(FIB, w, 4, 4.0)
    assert len(base) ** 3 == 4913
    zero = QuadLatticePoint(0, 0)
    patterns = {frozenset(t) - {zero} for t in product(base, repeat=3)}
    assert len(calls) == len(patterns) == 697


@pytest.mark.parametrize("scheme_text,window_text", [
    ("fibonacci", "[0,1)u[1.5,2.25)"), ("periodic:32", "A"), ("combined:32", "fib x A")])
def test_correlation_measure_translates_each_difference_once(monkeypatch, scheme_text,
                                                            window_text):
    scheme = parse_scheme(scheme_text)
    w = parse_window(expand_window_literal(window_text))
    base = support_differences(scheme, w, 3.0)
    monkeypatch.setattr(correlations, "support_differences", lambda *a: base)
    calls = _counting(monkeypatch, "star")
    correlation_measure(scheme, w, 3, 3.0)
    assert len(calls) == len(base)


def test_csv_deterministic(tmp_path):
    m = correlation_measure(FIB, W, 2, 4.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    m.to_csv(str(p1))
    m.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "diff1,frequency"
