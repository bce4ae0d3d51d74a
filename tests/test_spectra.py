"""Dual points, window transforms, diffraction, zero condition, deck grids."""

import ast
import math
import random
import threading
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelsets import (DualPoint, IntervalUnion, ParameterError, ProductWindow,
                       QuadLatticePoint, QuadNum, ResidueSet, ResourceError, cyclotomic_pair,
                       deck_functions, diffraction, generate, make_scheme, parse_window,
                       residue_deck_tables, roundtrip, sample_window, spectra, window_ft,
                       window_measure, zero_condition)
from modelsets.errors import check_real
from modelsets.schemes import SQRT5, TAU, TAU_PRIME
from modelsets.spectra import _golden_dual_labels

FIB = make_scheme("fibonacci")
PER32 = make_scheme("periodic", 32)
COMB32 = make_scheme("combined", 32)
W = parse_window("[-1,1/tau)")
SET_A, SET_B = cyclotomic_pair()


# ---------------------------------------------------------------------------
# dual points
# ---------------------------------------------------------------------------

def pairing(dp, p) -> Fraction:
    """k*x + k**x* (+ b*u/N on combined) from the exact k and k* of a dual point."""
    N = dp.scheme.modulus
    if dp.scheme.kind == "periodic":
        return dp.k_exact() * p + Fraction(dp.kstar() * p, N)
    if dp.scheme.kind == "fibonacci":
        kappa, extra = dp.kstar(), 0
    else:
        kappa, b = dp.kstar()
        extra = Fraction(b * p.u, N)
    total = dp.k_exact() * p.to_quad() + kappa * p.star_quad()
    assert total.b == 0
    return total.a + extra


def test_dual_pairing_integral_fibonacci():
    rng = random.Random(9)
    for _ in range(60):
        dp = DualPoint(FIB, (rng.randint(-9, 9), rng.randint(-9, 9)))
        p = QuadLatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        assert pairing(dp, p).denominator == 1


def test_dual_pairing_integral_combined():
    rng = random.Random(10)
    for _ in range(60):
        dp = DualPoint(COMB32, (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 31)))
        p = QuadLatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        assert pairing(dp, p).denominator == 1


def test_dual_periodic_trivial_character():
    assert pairing(DualPoint(PER32, (1,)), 32).denominator == 1
    assert DualPoint(PER32, (0,)).k == 0.0


def test_fibonacci_dual_k_values():
    assert DualPoint(FIB, (1, 0)).k == pytest.approx(1 / SQRT5)
    assert DualPoint(FIB, (0, 1)).k == pytest.approx(TAU / SQRT5)


def double_loop_dual_labels(kmax, kappa_bound, b, N):
    """The golden-ratio dual labels by a plain loop over n, then m: the oracle.  Each row's
    bounds on m are QuadNums, rounded to integers by exact comparison."""
    tau = QuadNum(0, 1)
    P, Q = ((2 * tau - 1) * QuadNum(x) for x in (kmax, kappa_bound))  # sqrt5 = 2 tau - 1
    beta = Fraction(b, N)
    nmax = math.floor((float(P) + float(Q)) / SQRT5 + beta) + 1
    for n in range(-nmax, nmax + 1):
        lo = max(-P - n * tau - beta * (1 - tau), -Q - n * (1 - tau) - beta * tau)
        hi = min(P - n * tau - beta * (1 - tau), Q - n * (1 - tau) - beta * tau)
        m_lo, m_hi = math.ceil(float(lo)) - 1, math.floor(float(hi)) + 1
        while m_lo < lo:
            m_lo += 1
        while m_hi > hi:
            m_hi -= 1
        for m in range(m_lo, m_hi + 1):
            yield m, n


def float_neighbours(x):
    """x and the floats on either side of it (``math.nextafter``)."""
    return st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])


#: |k| and |kappa| of fibonacci dual labels (m, n), and their float neighbours: an exact
#: bound test meets a label's value within a rounding, on either side
label_ks = st.builds(lambda m, n: abs(m + n * TAU) / SQRT5, st.integers(-20, 20),
                     st.integers(-12, 12)).flatmap(float_neighbours)
label_kappas = st.builds(lambda m, n: abs(m + n * TAU_PRIME) / SQRT5, st.integers(-20, 20),
                         st.integers(-12, 12)).flatmap(float_neighbours)


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 30) | label_ks.filter(lambda k: 0 <= k <= 30),
       st.floats(0, 60) | label_kappas.filter(lambda k: 0 <= k <= 60),
       st.sampled_from([1, 2, 3, 5, 32, 97]), st.integers(0, 96))
@example(0.0, 0.0, 1, 0)
# the floats just below and just above |k| of (1, 0) and |kappa| of (0, 1)
@example(1 / SQRT5, TAU / SQRT5, 1, 0)
@example(math.nextafter(1 / SQRT5, math.inf), math.nextafter(TAU / SQRT5, math.inf), 1, 0)
@example(2.0, 100.0, 97, 96)
def test_golden_dual_labels_match_the_double_loop(kmax, kappa_bound, N, b):
    b %= N
    got = list(zip(*_golden_dual_labels(kmax, kappa_bound, b, N).tolist()))
    assert got == list(double_loop_dual_labels(kmax, kappa_bound, b, N))


def test_diffraction_at_a_float_label_value():
    # the float kmax is below |k| = 1/sqrt5 of the labels (+-1, 0), and the next one above
    spec = diffraction(FIB, W, 0.4472135954999579, 1e-3)
    assert len(spec) == 9 and not (np.abs(spec.labels) == (1, 0)).all(axis=1).any()
    above = diffraction(FIB, W, math.nextafter(0.4472135954999579, math.inf), 1e-3)
    assert len(above) == 11 and above.intensity_at(1, 0) == above.intensity_at(-1, 0) > 0
    per2 = make_scheme("periodic", 2)
    assert diffraction(per2, parse_window("{0}@2"), 0.499999999999).labels.tolist() == [[0]]
    assert diffraction(per2, parse_window("{0}@2"), 0.5).labels.tolist() == [[0], [-1], [1]]


# ---------------------------------------------------------------------------
# window transforms
# ---------------------------------------------------------------------------

def test_window_ft_at_zero_is_measure():
    assert window_ft(FIB, W, 0.0) == pytest.approx(TAU / SQRT5)
    assert window_ft(PER32, SET_A, 0) == pytest.approx(0.5)
    pw = ProductWindow(W, SET_A)
    assert window_ft(COMB32, pw, (0.0, 0)) == pytest.approx(TAU / (2 * SQRT5))


def test_window_ft_at_a_kappa_that_floats_to_zero_is_the_k0_limit():
    # F41 - F40*tau is about 4.4e-9, but its float cancels to 0.0
    kappa = QuadNum(165580141, -102334155)
    assert not kappa.is_zero() and float(kappa) == 0.0
    w = parse_window("[0,1)")
    assert window_ft(FIB, w, kappa) == window_ft(FIB, w, 0) == complex(1 / SQRT5)
    pw = ProductWindow(w, SET_A)
    assert window_ft(COMB32, pw, (kappa, 0)) == window_ft(COMB32, pw, (0, 0))


def test_window_ft_half_period_vanishes():
    # eight even and eight odd elements: the alternating character sums to zero
    assert abs(window_ft(PER32, SET_A, 16)) < 1e-12


def test_window_ft_of_unit_interval_vanishes_at_nonzero_integers():
    w = parse_window("[0,1)")
    for k in (1.0, -1.0, 2.0, 3.0):
        assert abs(window_ft(FIB, w, k)) < 1e-12
    for k in (0.0, 0.3, 0.5, 0.7, 1.2, 1.5):
        assert abs(window_ft(FIB, w, k)) > 1e-2


# ---------------------------------------------------------------------------
# diffraction
# ---------------------------------------------------------------------------

def test_periodic_diffraction_profile():
    spec = diffraction(PER32, SET_A, 1.0, include_zeros=True)
    assert spec.intensity_at(0) == pytest.approx(0.25, abs=1e-12)
    assert spec.intensity_at(32) == pytest.approx(0.25, abs=1e-12)
    for b in range(33):
        inten = spec.intensity_at(b)
        if b % 2 == 0 and b not in (0, 32):
            assert inten < 1e-12
        elif b % 2 == 1:
            assert inten > 1e-12


def test_periodic_threshold_keeps_peaks_at_it():
    # |FT|^2 is exactly 0.25 at j = -32, 0 and 32, and below it everywhere else
    spec = diffraction(PER32, SET_A, 1.0, min_intensity=0.25)
    assert [dp.labels for dp, _ in spec.peaks] == [(0,), (-32,), (32,)]
    assert all(inten == 0.25 for _, inten in spec.peaks)


def test_periodic_diffraction_equal_for_homometric_pair():
    sa = diffraction(PER32, SET_A, 1.0, include_zeros=True)
    sb = diffraction(PER32, SET_B, 1.0, include_zeros=True)
    assert len(sa) == len(sb)
    for (da, ia), (db, ib) in zip(sa.peaks, sb.peaks):
        assert da.labels == db.labels
        assert abs(ia - ib) < 1e-12


def test_periodic_diffraction_empirical_crosscheck():
    # exact periodicity: the exponential sum over R = 32 * 1000 sites is sharp
    ps = generate(PER32, SET_A, (0, 32_000 - 1))
    x = ps.physical()
    R = 32_000
    for b in (0, 1, 5, 16):
        k = b / 32
        emp = abs(np.exp(-2j * np.pi * k * x).sum()) ** 2 / R**2
        spec = abs(window_ft(PER32, SET_A, b)) ** 2
        assert emp == pytest.approx(spec, abs=1e-6)


def test_fibonacci_diffraction_central_peak():
    spec = diffraction(FIB, W, 3.0, min_intensity=1e-3)
    dens = window_measure(FIB, W)
    assert spec.intensity_at(0, 0) == pytest.approx(dens**2, abs=1e-10)
    # peaks are labelled: the (m, n) = (1, 1) satellite sits at (1 + tau)/sqrt5
    got = dict((dp.labels, i) for dp, i in spec.peaks)
    assert (1, 1) in got
    # every reported peak is at most the central one
    assert all(i <= dens**2 + 1e-12 for _, i in spec.peaks)


def test_intensity_invariant_under_window_translation():
    from modelsets import QuadNum
    moved = W.translate(QuadNum(2, -1))
    s1 = diffraction(FIB, W, 2.0, min_intensity=1e-3)
    s2 = diffraction(FIB, moved, 2.0, min_intensity=1e-3)
    m1 = dict((dp.labels, i) for dp, i in s1.peaks)
    m2 = dict((dp.labels, i) for dp, i in s2.peaks)
    assert set(m1) == set(m2)
    for lab in m1:
        assert m1[lab] == pytest.approx(m2[lab], abs=1e-10)
    rs1 = diffraction(PER32, SET_A, 1.0, include_zeros=True)
    rs2 = diffraction(PER32, SET_A.translate(11), 1.0,
                      include_zeros=True)
    for (da, ia), (db, ib) in zip(rs1.peaks, rs2.peaks):
        assert ia == pytest.approx(ib, abs=1e-14)


def test_central_intensity_is_density_squared_everywhere():
    cases = [
        (FIB, W),
        (PER32, SET_A),
        (COMB32, ProductWindow(W, SET_A)),
    ]
    for scheme, win in cases:
        spec = diffraction(scheme, win, 0.25, min_intensity=1e-5)
        zero_labels = {FIB.kind: (0, 0), PER32.kind: (0,), COMB32.kind: (0, 0, 0)}
        inten = spec.intensity_at(*zero_labels[scheme.kind])
        assert inten == pytest.approx(window_measure(scheme, win) ** 2, abs=1e-10)


def test_spectrum_outputs(tmp_path):
    spec = diffraction(PER32, SET_A, 1.0, include_zeros=True)
    csv1, csv2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    spec.to_csv(str(csv1))
    spec.to_csv(str(csv2))
    assert csv1.read_bytes() == csv2.read_bytes()
    svg = tmp_path / "s.svg"
    spec.to_svg(str(svg))
    text = svg.read_text()
    assert text.startswith("<svg") and "k/32" in text


def scalar_spectrum(scheme, w, kmax, min_intensity, include_zeros):
    """Rows (labels, k, intensity) by one DualPoint and one scalar window_ft per label,
    sorted by (|k|, labels): the per-label oracle of the columnar diffraction."""
    N = scheme.modulus or 1
    if scheme.kind == "periodic":
        top = math.floor(Fraction(kmax) * N)
        labels = [(j,) for j in range(-top, top + 1)]
    else:
        iu = w.intervals if scheme.kind == "combined" else w
        kappa_bound = max(1, len(iu.intervals)) / (math.pi * SQRT5 * math.sqrt(min_intensity))
        labels = [(m, n, b)[:3 if scheme.kind == "combined" else 2] for b in range(N)
                  for m, n in double_loop_dual_labels(kmax, kappa_bound, b, N)]
    rows = []
    for lab in labels:
        # the intensity at k is |FT|^2 at -k*, the k* of the dual point -k
        minus = DualPoint(scheme, tuple(-x for x in lab)).kstar()
        inten = abs(window_ft(scheme, w, minus)) ** 2
        if include_zeros or inten >= min_intensity:
            rows.append((lab, DualPoint(scheme, lab).k, inten))
    return sorted(rows, key=lambda r: (abs(r[1]), r[0]))


quad_endpoints = st.builds(lambda a, d, b: QuadNum(Fraction(a, d), b),
                           st.integers(-12, 12), st.integers(1, 4), st.integers(-2, 2))


@st.composite
def interval_unions(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(quad_endpoints)
        pairs.append((lo, lo + QuadNum(Fraction(draw(st.integers(1, 12)), 4), 0)))
    return IntervalUnion(pairs)


kmaxes = st.integers(0, 32).map(lambda i: i / 16) | label_ks.filter(lambda k: 0 <= k <= 2)


@st.composite
def spectrum_cases(draw):
    """(scheme, window, kmax, min_intensity) small enough for the per-label oracle."""
    kind = draw(st.sampled_from(["periodic", "combined", "fibonacci"]))
    if kind == "periodic":
        # a modulus of 2^53 or more floats inexactly: k must still be float(Fraction(j, N))
        N = draw(st.sampled_from([2, 5, 32, 2**53 + 1, 2**60 + 33]))
        elems = draw(st.sets(st.integers(0, N - 1), max_size=5))
        kmax = draw(kmaxes) * min(1, 64 / N)
        return make_scheme("periodic", N), ResidueSet(N, elems), kmax, 0.01
    w, kmax = draw(interval_unions()), draw(kmaxes)
    if kind == "fibonacci":
        return FIB, w, kmax, draw(st.sampled_from([1e-3, 1e-4]))
    min_intensity = draw(st.sampled_from([1e-2, 1e-3]))
    N = draw(st.sampled_from([2, 3, 5]))
    rs = ResidueSet(N, draw(st.sets(st.integers(0, N - 1), max_size=N)))
    return make_scheme("combined", N), ProductWindow(w, rs), kmax, min_intensity


@settings(max_examples=200, deadline=None)
@given(spectrum_cases(), st.booleans())
@example((make_scheme("periodic", 2**53 + 1), ResidueSet(2**53 + 1, (0, 5, 77)), 4e-14, 0.01),
         True)
@example((COMB32, ProductWindow(W, SET_A), 0.5, 1e-3), False)
def test_columnar_diffraction_matches_the_per_label_oracle(case, include_zeros):
    scheme, w, kmax, min_intensity = case
    spec = diffraction(scheme, w, kmax, min_intensity, include_zeros)
    rows = scalar_spectrum(scheme, w, kmax, min_intensity, include_zeros)
    assert [tuple(lab) for lab in spec.labels.tolist()] == [r[0] for r in rows]
    assert [x.hex() for x in spec.k.tolist()] == [r[1].hex() for r in rows]
    assert [x.hex() for x in spec.intensity.tolist()] == [r[2].hex() for r in rows]
    assert [(dp.labels, i) for dp, i in spec.peaks] == [(r[0], r[2]) for r in rows]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(lambda p, q, d: QuadNum(Fraction(p, d), Fraction(q, d)),
                          st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
                          st.integers(1, 60)), min_size=1, max_size=6),
       interval_unions())
# F41 - F40*tau is about 4.4e-9, but its float cancels to 0.0: the k = 0 limit
@example([QuadNum(165580141, -102334155), QuadNum(0, 0), QuadNum(1, 0)],
         parse_window("[0,1)"))
def test_columnar_window_ft_matches_the_scalar_one(kappas, w):
    got = window_ft(FIB, w, np.array([float(q) for q in kappas]))
    want = [window_ft(FIB, w, q) for q in kappas]
    assert [(z.real.hex(), z.imag.hex()) for z in got.tolist()] == \
        [(z.real.hex(), z.imag.hex()) for z in want]
    for scheme, window in ((COMB32, ProductWindow(w, SET_A)), (PER32, SET_A)):
        with pytest.raises(ParameterError, match="^an array of frequencies needs an interval-"):
            window_ft(scheme, window, np.array([0.0]))


def per_label_periodic(scheme, w, kmax, min_intensity, include_zeros):
    """The periodic pass with one scalar window_ft call per label j: the oracle of the
    pass that takes it once per residue class."""
    N = scheme.modulus
    top = math.floor(Fraction(kmax) * N)
    js = range(-top, top + 1)
    labels = np.array(js, np.int64)[:, None]
    k = np.array([j / N for j in js], float)
    inten = np.array([abs(window_ft(scheme, w, j % N)) ** 2 for j in js], float)
    keep = slice(None) if include_zeros else inten >= min_intensity
    return spectra.Spectrum(scheme, labels[keep], k[keep], inten[keep])


@st.composite
def periodic_cases(draw):
    N = draw(st.one_of(st.integers(2, 64), st.sampled_from([2**53 + 1, 2**61 - 1])))
    elems = draw(st.sets(st.integers(0, N - 1), max_size=8))
    kmax = draw(st.floats(0, 40).map(lambda x: x * min(1, 64 / N))
                # a label value j/N and its float neighbours
                | st.integers(0, 64).map(lambda j: j / N).flatmap(float_neighbours))
    return make_scheme("periodic", N), ResidueSet(N, elems), abs(kmax)


@settings(max_examples=150, deadline=None)
@given(periodic_cases(), st.sampled_from([0.0, 1e-4, 0.01, 0.25]), st.booleans())
# k is one numpy division below 2**53 and one int / int per label from there on
@example((make_scheme("periodic", 2**53 - 1), ResidueSet(2**53 - 1, (0, 1, 2**53 - 4)),
          1000 / (2**53 - 1)), 0.0, True)
@example((make_scheme("periodic", 2**53), ResidueSet(2**53, (0, 1, 2**53 - 3)),
          1000 / 2**53), 0.0, True)
def test_periodic_diffraction_matches_the_per_label_loop(case, min_intensity, include_zeros):
    scheme, w, kmax = case
    spec = diffraction(scheme, w, kmax, min_intensity, include_zeros)
    want = per_label_periodic(scheme, w, kmax, min_intensity, include_zeros)
    for got, expected in ((spec.labels, want.labels), (spec.k, want.k),
                          (spec.intensity, want.intensity)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_periodic_diffraction_takes_one_window_ft_per_residue_class(monkeypatch):
    calls = []
    inner = spectra.window_ft
    monkeypatch.setattr(spectra, "window_ft", lambda *a: calls.append(a[2]) or inner(*a))
    spec = diffraction(PER32, SET_A, 20_000.0)
    assert len(calls) == 32 and sorted(calls) == list(range(32))
    assert spec.labels[:, 0].min() == -640_000 and spec.labels[:, 0].max() == 640_000


def test_spectrum_arrays_are_read_only():
    spec = diffraction(FIB, W, 1.0, min_intensity=1e-3)
    for a in (spec.labels, spec.k, spec.intensity):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert spec.labels.dtype == np.int64 and spec.labels.shape == (len(spec), 2)
    assert spec.intensity_at(0, 0) > 0 and spec.intensity_at(0, 0, 0) == 0.0


def test_spectrum_checks_its_arrays():
    spec = spectra.Spectrum(FIB, [[1, 0], [0, 0]], [0.5, 0.0], [0.25, 1])  # lists are taken
    assert spec.labels.tolist() == [[0, 0], [1, 0]] and spec.labels.dtype == np.int64
    assert spec.k.tolist() == [0.0, 0.5] and spec.intensity.tolist() == [1.0, 0.25]
    bad = [([[0, 0], [1, 0]], [0.0, 0.5], [1.0, 0.5, 0.25]),  # a third intensity
           ([[0, 0], [1, 0]], [0.0], [1.0, 0.5]),             # one k short
           ([[0, 0, 0], [1, 0, 0]], [0.0, 0.5], [1.0, 0.5]),  # combined labels
           ([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.5], [1.0, 0.5]),  # float labels
           ([0, 1], [0.0, 0.5], [1.0, 0.5]),                  # one label row
           ([[0, 0], [1, 0]], ["0", "0.5"], [1.0, 0.5])]      # k as text
    for labels, k, inten in bad:
        with pytest.raises(ParameterError, match="^a fibonacci spectrum needs n x 2 int labels"):
            spectra.Spectrum(FIB, labels, k, inten)


# ---------------------------------------------------------------------------
# zero condition
# ---------------------------------------------------------------------------

def test_zero_condition_cyclotomic_pattern():
    windows = {a: parse_window("[0,1)") for a in SET_A.elems}
    for b in range(32):
        expected = (b % 2 == 0) and b != 0
        assert zero_condition(32, windows, b) is expected


def test_zero_condition_unequal_windows():
    # equal windows for {0, 2} mod 4 cancel at b = 1 ... chi_0 + chi_2(1) = 1 + e^{-pi i}
    w01 = parse_window("[0,1)")
    assert zero_condition(4, {0: w01, 2: w01}, 1) is True
    # disjoint windows cannot cancel
    assert zero_condition(4, {0: w01, 2: parse_window("[2,3)")}, 1) is False
    # partial overlap leaves uncovered pieces with a single nonzero coefficient
    assert zero_condition(4, {0: parse_window("[0,2)"), 2: parse_window("[1,3)")}, 1) is False


def test_zero_condition_empty_collection():
    assert zero_condition(8, {}, 3) is True


def test_zero_condition_refuses_a_large_modulus():
    # cutting x^N - 1 into cyclotomic factors takes ~N^2 steps: N^2 is held to the
    # pattern-table budget of 1,000,000 before any window is cut
    windows = {0: parse_window("[0,1)"), 1: parse_window("[0,1)")}
    assert zero_condition(1_000, windows, 500) is True and not zero_condition(1_000, windows, 1)
    for N in (1_001, 10**6):
        with pytest.raises(ResourceError, match="use a smaller modulus$"):
            zero_condition(N, windows, 1)


def test_zero_condition_refusal_names_its_unit():
    with pytest.raises(ResourceError, match=r"^would visit ~1e\+06 cyclotomic steps, over "):
        zero_condition(1_001, {0: parse_window("[0,1)")}, 1)


# ---------------------------------------------------------------------------
# deck grids
# ---------------------------------------------------------------------------

def _unit_deck(M=512, L=4.0):
    f = sample_window(parse_window("[0,1)"), M, L)
    return deck_functions(f, M, L)


def test_deck_i1_at_zero_is_measure():
    deck = _unit_deck()
    assert deck.I1[0] == pytest.approx(1.0, abs=deck.cell)
    assert deck.I2[0, 0] == pytest.approx(deck.I1[0], abs=1e-12)


def test_deck_i1_symmetry_and_nonnegativity():
    f = sample_window(parse_window("[0,1)"), 512, 4.0)
    deck = deck_functions(f, 512, 4.0)
    M = deck.M
    assert np.array_equal(deck.I1, deck.I1[(-np.arange(M)) % M])
    assert deck.I1hat.real.min() > -1e-10
    assert np.allclose(deck.I1hat.real, np.abs(deck.cell * np.fft.fft(f)) ** 2, atol=1e-10)


def test_deck_factorization_against_direct_dft_oracle():
    M, L = 64, 4.0
    f = sample_window(parse_window("[0,1)u[1.25,1.75)"), M, L)
    deck = deck_functions(f, M, L)
    h = deck.cell
    # direct double-sum oracle: DFT by explicit matrix, no FFT
    j = np.arange(M)
    Wmat = np.exp(-2j * np.pi * np.outer(j, j) / M)
    I2hat_direct = h * h * (Wmat @ deck.I2 @ Wmat.T)
    assert np.abs(I2hat_direct - deck.I2hat).max() < 1e-8 * np.abs(I2hat_direct).max()
    F_direct = h * (Wmat @ f)
    idx = (j[:, None] + j[None, :]) % M
    pred = np.conj(F_direct)[:, None] * np.conj(F_direct)[None, :] * F_direct[idx]
    assert np.abs(deck.I2hat - pred).max() < 1e-8 * np.abs(deck.I2hat).max()


def test_deck_factorization_spot_check_512():
    deck = _unit_deck(512, 8.0)
    rng = np.random.default_rng(2)
    j = np.arange(512)
    h = deck.cell
    for _ in range(12):
        m1, m2 = rng.integers(0, 512, 2)
        direct = h * h * np.sum(deck.I2 * np.exp(-2j * np.pi * (np.add.outer(
            j * m1, j * m2)) / 512))
        assert abs(direct - deck.I2hat[m1, m2]) < 1e-8 * max(1.0, abs(direct))


@pytest.mark.parametrize("k1, k2", [(5, 2), (511, 509), (17, 300), (3, 257)],
                         ids=["first-block", "last-block", "off-diagonal", "mirrored"])
def test_verify_deck_checks_every_cell(k1, k2, monkeypatch):
    # the columns 0..256 are formed by FFT in column blocks; each other column
    # 512 - j (257 the first, 509 and 300 too) is a mirror of a formed one
    M, L = 512, 8.0
    f = sample_window(parse_window("[0,1)u[1.5,2.25)"), M, L)
    deck = deck_functions(f, M, L)
    bump = 1e-6 * np.abs(deck.I2hat).max()   # an unaltered read passes the check
    check = spectra._factor_residual

    def corrupted(block, c, *args):
        # one cell of one block, after it is formed and before it is checked
        if c.start <= k2 < c.stop:
            block[k2 - c.start, k1] += bump
        return check(block, c, *args)

    monkeypatch.setattr(spectra, "_factor_residual", corrupted)
    with pytest.raises(AssertionError, match="factor"):
        deck.I2hat
    # the verdict covers the whole grid, not only the entries read
    with pytest.raises(AssertionError, match="factor"):
        deck.I2hat_at(0, 0)


def _formed_and_mirrored(logs):
    """The columns checked right after an FFT, and the others, from per-thread logs."""
    formed, mirrored = [], []
    for log in logs.values():
        for prev, c in zip([None] + log, log):
            if c != "fft":
                (formed if prev == "fft" else mirrored).extend(range(c.start, c.stop))
    return sorted(formed), sorted(mirrored)


@pytest.mark.parametrize("M", [5, 17, 32, 33, 512, 513])
@pytest.mark.parametrize("cells", [1, 100, spectra.BLOCK_CELLS], ids=["1", "100", "default"])
def test_one_read_checks_each_column_once(M, cells, monkeypatch):
    f = sample_window(parse_window("[0,1)u[1.5,2.25)"), M, 8.0)
    deck = deck_functions(f, M, 8.0)
    dense = deck.I2hat
    monkeypatch.setattr(spectra, "BLOCK_CELLS", cells)
    # each worker logs the blocks it transforms and the blocks it checks, in order
    logs = defaultdict(list)
    fft, check = np.fft.fft, spectra._factor_residual

    def transformed(a, *args, **kwargs):
        logs[threading.get_ident()].append("fft")
        return fft(a, *args, **kwargs)

    def recorded(block, c, *args):
        assert len(block) == c.stop - c.start
        logs[threading.get_ident()].append(c)
        return check(block, c, *args)

    monkeypatch.setattr(np.fft, "fft", transformed)
    monkeypatch.setattr(spectra, "_factor_residual", recorded)
    # the columns 0..M/2 (0 and, for even M, M/2 among them) are formed by FFT
    # and never mirrored; the others are mirrored; each is checked once
    columns = (list(range(M // 2 + 1)), list(range(M // 2 + 1, M)))
    k1, k2 = np.array([3, 0, M - 1, 7]) % M, np.array([M - 1, 0, 5, 7]) % M
    got = deck.I2hat_at(k1, k2)
    # the blocks are split across the usable cores, so they end in any order
    assert _formed_and_mirrored(logs) == columns
    assert got.tobytes() == dense[k1, k2].tobytes()
    logs.clear()
    assert deck.I2hat.tobytes() == dense.tobytes() and _formed_and_mirrored(logs) == columns


def _deck_reads(monkeypatch, workers):
    """The bytes of every deck read and of a roundtrip report with ``workers`` usable cores."""
    monkeypatch.setattr(spectra, "_usable_cores", lambda: workers)
    reads, L = [], 8.0
    for M in (512, 5, 17, 33, 513):
        f = sample_window(parse_window("[0,1)u[1.5,2.25)"), M, L)
        deck = deck_functions(f, M, L)
        k1, k2 = np.array([3, 0, M - 1, 7, 200]), np.array([M - 1, 0, 5, 7, 311])
        report = roundtrip(f, M, L)
        reads += [deck.I2.tobytes(), deck.row_hat.tobytes(), deck.I2hat.tobytes(),
                  deck.I2hat_at(k1, k2).tobytes(), report.to_json(), report.recovered.tobytes()]
    return reads


@pytest.mark.parametrize("workers", [1, 3])
def test_deck_reads_do_not_depend_on_the_worker_count(workers, monkeypatch):
    assert _deck_reads(monkeypatch, workers) == _deck_reads(monkeypatch, 2)


class _CountedThread(spectra.threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("workers, helpers", [(1, 0), (2, 1), (3, 2)])
def test_each_pass_starts_one_thread_per_extra_worker(workers, helpers, monkeypatch):
    monkeypatch.setattr(spectra, "_usable_cores", lambda: workers)
    monkeypatch.setattr(spectra.threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", 0)
    f = sample_window(parse_window("[0,1)u[1.5,2.25)"), 512, 8.0)
    deck = deck_functions(f, 512, 8.0)   # 3 or more row blocks in either pass
    deck.I2hat_at(0, 0)
    assert _CountedThread.started == 2 * helpers


def test_a_pass_of_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(spectra, "_usable_cores", lambda: 3)
    monkeypatch.setattr(spectra.threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", 0)
    f = sample_window(parse_window("[0,1)"), 32, 8.0)
    deck_functions(f, 32, 8.0).I2hat
    assert _CountedThread.started == 0


def test_only_split_pass_references_threading():
    # one function cuts a deck pass into blocks and shares them across the
    # cores; the passes themselves are plain per-block functions
    users = set()
    for path in sorted(Path(spectra.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            units = [(f"{top.name}.{f.name}", f) for f in top.body
                     if isinstance(f, ast.FunctionDef)] if isinstance(top, ast.ClassDef) else []
            for name, unit in units or [(getattr(top, "name", "<module>"), top)]:
                if any(isinstance(n, ast.Name) and n.id == "threading"
                       or isinstance(n, ast.ImportFrom) and n.module == "threading"
                       for n in ast.walk(unit)):
                    users.add((path.name, name))
    assert users == {("spectra.py", "_split_pass")}


def _helper_blocks(monkeypatch, action):
    """Make the deck's column pass call ``action(block)`` on each block a helper thread takes.

    The calling thread holds its first block until the helper has taken one,
    so that the helper takes at least one block.
    """
    monkeypatch.setattr(spectra, "_usable_cores", lambda: 2)
    check = spectra._factor_residual
    caller = spectra.threading.current_thread()
    helper_took = spectra.threading.Event()
    taken = []

    def on_helper(block, c, *args):
        if spectra.threading.current_thread() is caller:
            helper_took.wait(timeout=30)
        else:
            taken.append(c)
            helper_took.set()
            action(block)
        return check(block, c, *args)

    monkeypatch.setattr(spectra, "_factor_residual", on_helper)
    return taken


def test_a_cell_corrupted_in_a_helper_thread_fails_the_read(monkeypatch):
    M, L = 512, 8.0
    f = sample_window(parse_window("[0,1)u[1.5,2.25)"), M, L)
    deck = deck_functions(f, M, L)
    bump = 1e-6 * np.abs(deck.I2hat).max()

    def corrupt(block):
        block[0, 17] += bump

    taken = _helper_blocks(monkeypatch, corrupt)
    with pytest.raises(AssertionError, match="factor"):
        deck.I2hat
    assert taken   # the helper thread took blocks, and only its blocks were corrupted


def test_an_exception_in_a_helper_thread_is_raised_in_the_caller(monkeypatch):
    f = sample_window(parse_window("[0,1)u[1.5,2.25)"), 512, 8.0)
    deck = deck_functions(f, 512, 8.0)

    def fail(block):
        raise ZeroDivisionError("raised in a helper")

    taken = _helper_blocks(monkeypatch, fail)
    with pytest.raises(ZeroDivisionError, match="raised in a helper"):
        deck.I2hat_at(3, 5)
    assert len(taken) == 1   # the helper stopped at the block that raised


def test_deck_takes_an_exact_half_length():
    # sample_window takes L exactly; the deck of the same grid must not depend on its type
    f = sample_window(parse_window("[0,1)"), 64, Fraction(8))
    a, b = deck_functions(f, 64, Fraction(8)), deck_functions(f, 64, 8.0)
    for name in ("I1", "I2", "I1hat", "I2hat"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_too_large_a_number_is_a_parameter_error():
    f = np.zeros(64, dtype=np.int64)
    f[0] = 1
    with pytest.raises(ParameterError, match="^half-length L is too large for a float$"):
        deck_functions(f, 64, Fraction(10**400))
    with pytest.raises(ParameterError, match="^x is too large for a float$"):
        check_real("x", 10**400)


def test_check_real_names_a_value_that_is_no_number():
    with pytest.raises(ParameterError, match="^R must be a number, got 'abc'$"):
        check_real("R", "abc")


def test_deck_wraparound_precondition():
    M, L = 128, 2.0
    f = sample_window(parse_window("[-1,1)"), M, L)  # diameter 2 > L/2 = 1
    with pytest.raises(ParameterError, match="wrap"):
        deck_functions(f, M, L)


@pytest.mark.parametrize("M, L", [(1, 8.0), (20, 0.91), (20, 8.0), (64, 0.1), (100, 0.3)])
def test_deck_wraparound_is_decided_in_cells(M, L):
    # a support from cell 0 to cell e has diameter e * 2L/M, below L/2 iff 4e < M,
    # however the float 2L/M rounds: at M = 20, L = 0.91 the float 5 * 0.091 is below 0.455
    for e in range(max(1, M // 4 - 1), min(M, M // 4 + 2)):
        f = np.zeros(M, dtype=np.int64)
        f[[0, e]] = 1
        if 4 * e < M:
            assert deck_functions(f, M, L).M == M
            continue
        with pytest.raises(ParameterError) as exc:
            deck_functions(f, M, L)
        assert str(exc.value) == (f"support diameter {float(Fraction(2 * L) * e / M)} must stay "
                                  f"below l_half/2 = {L / 2} (anti-wraparound condition)")
    # a full support spans the whole circle: refused also for M = 1
    with pytest.raises(ParameterError, match=f"^support diameter {2 * L} must stay below"):
        deck_functions(np.ones(M, dtype=np.int64), M, L)


def test_deck_rejects_bad_indicator():
    with pytest.raises(ParameterError):
        deck_functions(np.full(64, 0.5), 64, 4.0)
    with pytest.raises(ParameterError):
        deck_functions(np.zeros(64), 64, 4.0)
    with pytest.raises(ParameterError, match=r"^indicator must have shape \(4,\)$"):
        deck_functions(np.zeros(3), 4, 8.0)


def test_residue_deck_tables_match_transform():
    tabs = residue_deck_tables(SET_A)
    ft = np.array([window_ft(PER32, SET_A, b) for b in range(32)])
    assert np.allclose(tabs.I1hat, np.abs(ft) ** 2, atol=1e-12)
    idx = (np.arange(32)[:, None] + np.arange(32)[None, :]) % 32
    pred = np.conj(ft)[:, None] * np.conj(ft)[None, :] * ft[idx]
    assert np.abs(tabs.I2hat - pred).max() < 1e-12


def test_residue_deck_tables_budget_is_a_resource_error():
    # the N x N shift matrix is refused before numpy is asked for it
    with pytest.raises(ResourceError, match="budget"):
        residue_deck_tables(ResidueSet(10**6, (0, 1)))


def residue_deck_loop(S):
    """n1 and n2 counted one residue at a time."""
    N = S.modulus
    members = set(S.elems)
    n1 = np.zeros(N, dtype=np.int64)
    n2 = np.zeros((N, N), dtype=np.int64)
    for w1 in range(N):
        n1[w1] = sum(1 for t in S.elems if (t - w1) % N in members)
        for w2 in range(N):
            n2[w1, w2] = sum(1 for t in S.elems
                             if (t - w1) % N in members and (t - w2) % N in members)
    return n1, n2


def test_residue_deck_tables_match_loop():
    rng = random.Random(4)
    sets = [SET_A, SET_B]
    for N in (1, 2, 5, 12, 31):
        sets += [ResidueSet(N, [e for e in range(N) if rng.random() < 0.5] or [0])
                 for _ in range(3)]
    for S in sets:
        tabs = residue_deck_tables(S)
        n1, n2 = residue_deck_loop(S)
        assert tabs.n1.dtype == tabs.n2.dtype == np.int64
        assert np.array_equal(tabs.n1, n1) and np.array_equal(tabs.n2, n2)
        N = S.modulus
        assert np.array_equal(tabs.I1hat, np.fft.fft(n1) / N**2)
        assert np.array_equal(tabs.I2hat, np.fft.fft2(n2) / N**3)
