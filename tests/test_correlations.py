"""Exact vs empirical frequencies and correlation measures."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

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
from modelsets.schemes import FLOAT_GUARD, FLOAT_REL, TAU, TAU_PRIME, QuadNum, parse_scheme

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


def test_freq_empirical_decides_the_interval_ends_exactly():
    ps = generate(FIB, W, (-10, 10))
    # -1, 0 and tau lie in (-tau, tau) exactly; the float of tau is above tau
    R = 2 * TAU
    assert freq_empirical(ps, (), R) == 3 / R
    # the open interval (-1, 1) leaves out the point -1; the next float takes it in
    assert freq_empirical(ps, (), 2.0) == 1 / 2.0
    R = math.nextafter(2.0, math.inf)
    assert freq_empirical(ps, (), R) == 2 / R
    per = generate(make_scheme("periodic", 32), parse_window(expand_window_literal("A")),
                   (-40, 40))
    assert freq_empirical(per, (), 16.0) == sum(1 for n in per.coords[0] if -8 < n < 8) / 16


def test_support_differences_at_a_float_lattice_length():
    # the float 1.6180339887498947 is below tau, so +-tau are outside the cutoff
    keys = {x for (x,) in correlation_measure(FIB, W, 2, 1.6180339887498947).entries}
    assert keys == {QuadLatticePoint(-1, 0), QuadLatticePoint(0, 0), QuadLatticePoint(1, 0)}
    assert QuadLatticePoint(0, 1) in support_differences(FIB, W, math.nextafter(TAU, math.inf))


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


def test_pattern_points_of_2_62_and_orders_past_4_are_refused():
    ps = generate(FIB, W, (-100, 100))
    with pytest.raises(ParameterError,
                       match=r"^lattice coordinates must stay below 2\^62 in magnitude$"):
        freq_empirical(ps, (QuadLatticePoint(2**62, 0),), 10)
    with pytest.raises(ParameterError, match="^order must be 2, 3 or 4$"):
        correlation_measure(FIB, W, 5, 1.0)


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
            if not -cutoff <= QuadNum(u, v) <= cutoff:
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
                    # a lattice length and the floats on either side of it, where the
                    # exact cutoff test meets a lattice value within a rounding
                    st.builds(lambda u, v: abs(u + v * TAU), st.integers(-20, 20),
                              st.integers(-12, 12))
                    .flatmap(lambda c: st.sampled_from([math.nextafter(c, -math.inf), c,
                                                        math.nextafter(c, math.inf)]))
                    .filter(lambda c: 0 <= c <= 25))


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
    """Replace correlations.<name> by a wrapper that records its arguments and result."""
    calls = []
    inner = getattr(correlations, name)

    def counting(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(correlations, name, counting)
    return calls


def sorted_live_tuples(scheme, w, base, n):
    """Oracle: the sorted index tuples of ``base``, in (u, v) order, whose window is
    non-empty, found one pattern at a time through the window objects."""
    base = sorted(base)
    out = []
    for t in combinations_with_replacement(range(len(base)), n):
        cut = w
        for i in t:
            cut = window_intersect(cut, w.translate(star(scheme, -base[i])))
        if not cut.is_empty():
            out.append(t)
    return out


def test_correlation_measure_evaluates_each_pattern_once(monkeypatch):
    # one window_measure call per table, for the check of the zero tuple, and one
    # evaluation of each sorted tuple: the real cut returns each sorted tuple with a
    # non-empty window once, in lexicographic order
    w = parse_window("[0,1)u[1.5,2.25)")
    base = support_differences(FIB, w, 4.0)
    monkeypatch.setattr(correlations, "support_differences", lambda *a: base)
    measures = _counting(monkeypatch, "window_measure")
    cuts = _counting(monkeypatch, "_real_cuts")
    m = correlation_measure(FIB, w, 4, 4.0)
    assert len(base) ** 3 == 4913 and math.comb(len(base) + 2, 3) == 969
    assert len(measures) == 1 and measures[0][1] == m.density()
    ((_, (tuples, _)),) = cuts
    assert [tuple(t) for t in tuples.T.tolist()] == sorted_live_tuples(FIB, w, base, 3)
    assert tuples.shape[1] == 368


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


def index_keyed_entries(scheme, w, order, cutoff):
    """The memo keyed on sets of indices into the support list, with the indices of
    cuts equal to W dropped: the oracle of the memo keyed on distinct cuts."""
    base = support_differences(scheme, w, cutoff)
    cuts = [correlations._pair_cut(scheme, w, x) for x in base]
    trivial = {i for i, cut in enumerate(cuts) if cut == w}
    freqs, entries = {}, {}
    for idx, tup in zip(product(range(len(base)), repeat=order - 1),
                        product(base, repeat=order - 1)):
        key = frozenset(idx) - trivial
        if key not in freqs:
            cut = w
            for i in key:
                cut = window_intersect(cut, cuts[i])
            freqs[key] = (not cut.is_empty(), window_measure(scheme, cut))
        if freqs[key][0]:
            entries[tup] = freqs[key][1]
    return entries


MEMO_CASES = [(s, w, order, cutoffs[order - 2]) for s, w, cutoffs in ORACLE_CASES
              for order in (2, 3, 4)] + \
             [("fibonacci", w, order, 25.0) for w in ("[0,1)u[1.5,2.25)", "[0,0.4)u[0.6,1.1)")
              for order in (2, 3)]


@pytest.mark.parametrize("scheme_text,window_text,order,cutoff", MEMO_CASES)
def test_correlation_measure_matches_the_index_keyed_memo(scheme_text, window_text, order,
                                                           cutoff):
    scheme = parse_scheme(scheme_text)
    w = parse_window(expand_window_literal(window_text))
    assert correlation_measure(scheme, w, order, cutoff).entries == \
        index_keyed_entries(scheme, w, order, cutoff)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(interval_windows, st.integers(2, 12), st.sets(st.integers(0, 11)),
       st.sampled_from(["fibonacci", "periodic", "combined"]), st.integers(2, 4),
       st.floats(0, 1))
def test_correlation_measure_matches_the_index_keyed_memo_on_random_windows(
        iu, N, residues, kind, order, scale):
    rs = ResidueSet(N, residues)
    scheme = make_scheme(kind) if kind == "fibonacci" else make_scheme(kind, N)
    w = {"fibonacci": iu, "periodic": rs, "combined": ProductWindow(iu, rs)}[kind]
    cutoff = scale * {2: 12.0, 3: 6.0, 4: 2.5}[order]
    assert correlation_measure(scheme, w, order, cutoff).entries == \
        index_keyed_entries(scheme, w, order, cutoff)


@pytest.mark.parametrize("scheme_text,window_text,cutoff,differences,cuts,evaluations", [
    ("fibonacci", "[0,1)u[1.5,2.25)", 25.0, 101, 97, 3677),  # sorted pairs, non-empty cut
    ("periodic:32", "A", 100.0, 195, 31, 961),               # residue pairs
])
def test_correlation_measure_evaluates_each_set_of_distinct_cuts_once(
        monkeypatch, scheme_text, window_text, cutoff, differences, cuts, evaluations):
    # the real factor is cut once per sorted pair of differences, and the residue
    # factor counted once per distinct pair of their residues; one window_measure call
    scheme = parse_scheme(scheme_text)
    w = parse_window(expand_window_literal(window_text))
    base = support_differences(scheme, w, cutoff)
    assert len(base) == differences
    assert len({correlations._pair_cut(scheme, w, x) for x in base}) == cuts
    measures = _counting(monkeypatch, "window_measure")
    real = _counting(monkeypatch, "_real_cuts")
    residue = _counting(monkeypatch, "_residue_counts")
    correlation_measure(scheme, w, 3, cutoff)
    assert len(measures) == 1
    if scheme.kind == "periodic":
        ((args, _),) = residue
        evaluated = {tuple(r) for r in args[1].tolist()}
        residues = [-x % 32 for x in sorted(base)]
        assert evaluated == {(residues[i], residues[j])
                             for i, j in combinations_with_replacement(range(len(base)), 2)}
        assert len(args[1]) == len(evaluated) == evaluations and not real
    else:
        ((_, (tuples, _)),) = real
        assert len({tuple(t) for t in tuples.T.tolist()}) == tuples.shape[1] == evaluations
        assert (tuples[0] <= tuples[1]).all() and not residue


def test_csv_deterministic(tmp_path):
    m = correlation_measure(FIB, W, 2, 4.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    m.to_csv(str(p1))
    m.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "diff1,frequency"


def test_entry_refuses_a_key_of_the_wrong_length():
    m = correlation_measure(FIB, W, 3, 2.0)
    assert m.entry((TAU_PT, TAU_PT)) == m.entries[(TAU_PT, TAU_PT)]
    for key in ((TAU_PT,), (TAU_PT,) * 3):
        with pytest.raises(ParameterError, match=rf"^an order-3 correlation key has 2 "
                                                 rf"differences, got {len(key)}$"):
            m.entry(key)


def cancelling(k: int) -> QuadNum:
    """tau'^k = F(k+1) - F(k)*tau exactly: a tiny number with coefficients near tau^k."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return QuadNum(b, -a)


def quad_union(ends) -> IntervalUnion:
    ends = sorted(set(ends))   # QuadNum order and equality are exact
    return IntervalUnion(zip(ends[::2], ends[1::2]))


# ends on the grid Z/8, where lattice translates touch; in two windows of three, one end
# is moved by a cancelling +-tau'^k whose coefficients exceed 2^31 (k >= 45)
grid_windows = st.builds(
    lambda ends, i, tweak: quad_union(QuadNum(Fraction(e, 8)) + (tweak if j == i % len(ends)
                                                                  else 0)
                                      for j, e in enumerate(ends)),
    st.lists(st.integers(-24, 24), min_size=2, max_size=6, unique=True), st.integers(0, 5),
    st.one_of(st.just(0), st.integers(45, 70).map(cancelling),
              st.integers(45, 70).map(lambda k: -cancelling(k)))).filter(
    lambda iu: not iu.is_empty())


def exact_oracle(scheme, w, order, cutoff):
    """Every ordered tuple of the support whose window is non-empty, with the bits of its
    ``freq_exact`` value."""
    out = {}
    for tup in product(support_differences(scheme, w, cutoff), repeat=order - 1):
        cut = w
        for x in tup:
            cut = window_intersect(cut, w.translate(star(scheme, -x)))
        if not cut.is_empty():
            out[tup] = freq_exact(scheme, w, tup).hex()
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_windows, st.integers(2, 12), st.sets(st.integers(0, 11), min_size=1),
       st.sampled_from(["fibonacci", "periodic", "combined"]), st.integers(2, 4),
       st.integers(1, 8).map(lambda i: i / 8))
def test_correlation_measure_equals_freq_exact_bit_for_bit(iu, N, residues, kind, order, scale):
    rs = ResidueSet(N, residues)
    scheme = make_scheme(kind) if kind == "fibonacci" else make_scheme(kind, N)
    w = {"fibonacci": iu, "periodic": rs, "combined": ProductWindow(iu, rs)}[kind]
    cutoff = scale * {2: 8.0, 3: 3.0, 4: 1.5}[order]
    m = correlation_measure(scheme, w, order, cutoff)
    assert {k: v.hex() for k, v in m.entries.items()} == exact_oracle(scheme, w, order, cutoff)


def test_correlation_measure_decides_touching_ends_and_large_coefficients_exactly(monkeypatch):
    # translates of [0,1)u[2,2.5) by integers touch it: the float band decides in int64;
    # the end 1 + tau'^60 has coefficients near 2^41, so its table is cut in Python ints
    bands = []
    inner = correlations._quad_positive

    def positive(d, top):
        band = FLOAT_GUARD + FLOAT_REL * top
        bands.append(np.count_nonzero(abs(d[0].astype(float) + d[1].astype(float) * TAU) <= band))
        return inner(d, top)

    monkeypatch.setattr(correlations, "_quad_positive", positive)
    for w, dtype in ((parse_window("[0,1)u[2,2.5)"), np.int64),
                     (quad_union([QuadNum(0), 1 + cancelling(60)]), object)):
        bands.clear()
        m = correlation_measure(FIB, w, 3, 3.0)
        assert sum(bands) > 0 and m.length.dtype == dtype
        assert {k: v.hex() for k, v in m.entries.items()} == exact_oracle(FIB, w, 3, 3.0)
