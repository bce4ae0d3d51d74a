"""The mod-32 homometric pair and the thinned golden-ratio counterexample."""

import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modelsets import (ParameterError, ResidueSet, cyclotomic_pair, gap_sequence,
                       generate, make_scheme, parse_window, pattern_table,
                       rigid_equivalent, tables_equal, thinned_model_set, window_measure)
from modelsets.correlations import _first_difference
SET_A, SET_B = cyclotomic_pair()
W = parse_window("[-1,1/tau)")

EXPECTED_A = (0, 7, 8, 9, 12, 15, 17, 18, 19, 20, 21, 22, 26, 27, 29, 30)
EXPECTED_B = (0, 1, 8, 9, 10, 12, 13, 15, 18, 19, 20, 21, 22, 23, 27, 30)


def test_cyclotomic_pair_values():
    assert SET_A.elems == EXPECTED_A
    assert SET_B.elems == EXPECTED_B
    assert len(SET_A) == len(SET_B) == 16
    assert SET_A != SET_B


def test_pattern_table_small_counts():
    t2 = pattern_table(SET_A, 2)
    # consecutive pairs of A: 7-8, 8-9, 17-18, 18-19, 19-20, 20-21, 21-22, 26-27, 29-30
    assert t2.count((1,)) == 9
    assert pattern_table(SET_B, 2).count((1,)) == 9
    assert t2.count((0,)) == 16


def test_tables_equal_orders_2_and_3():
    for order in (2, 3):
        equal, witness = tables_equal(pattern_table(SET_A, order),
                                      pattern_table(SET_B, order))
        assert equal and witness is None


def test_tables_differ_at_order_4():
    equal, witness = tables_equal(pattern_table(SET_A, 4), pattern_table(SET_B, 4))
    assert not equal
    key, ca, cb = witness
    assert ca != cb
    # recount the witness with a fresh brute force, independent of PatternTable
    for S, expected in ((SET_A, ca), (SET_B, cb)):
        members = set(S.elems)
        got = sum(1 for t in range(32)
                  if t in members and all((t + r) % 32 in members for r in key))
        assert got == expected


def test_pattern_table_values_pickle_and_stay_read_only():
    t = pattern_table(SET_A, 4)
    back = pickle.loads(pickle.dumps(t))
    assert back == t and back is not t
    assert back != pattern_table(SET_B, 4) and back != pattern_table(SET_A, 3)
    assert list(back.counts.values()) == back.values.tolist()
    for table in (t, back):
        assert table.values.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            table.values[0] = 1


def test_pattern_count_refuses_a_key_of_another_length():
    t3 = pattern_table(SET_A, 3)
    for key in ((), (1,), (1, 2, 3)):
        with pytest.raises(ParameterError,
                           match=f"^an order-3 pattern key has 2 differences, got {len(key)}$"):
            t3.count(key)
    assert t3.count((33, -31)) == t3.count((1, 1))


def test_tables_equal_modulus_guard():
    with pytest.raises(ParameterError):
        tables_equal(pattern_table(SET_A, 2), pattern_table(ResidueSet(16, (0, 1)), 2))


def test_sets_of_two_moduli_and_orders_past_4_are_refused():
    with pytest.raises(ParameterError, match="^modulus mismatch$"):
        rigid_equivalent(ResidueSet(4, (0, 1)), ResidueSet(5, (0, 1)))
    with pytest.raises(ParameterError, match="^order must be 2, 3 or 4$"):
        pattern_table(SET_A, 5)


def test_rigid_equivalence_cases():
    assert rigid_equivalent(SET_A, SET_A) == (1, 0)
    mirrored = ResidueSet(32, ((5 - a) % 32 for a in SET_A.elems))
    assert rigid_equivalent(SET_A, mirrored) == (-1, 5)
    assert rigid_equivalent(SET_A, SET_B) is None


def scan_rigid(S, T):
    """The search over every shift t of Z/N: the oracle of the candidate-shift search."""
    N = S.modulus
    for sign in (1, -1):
        for t in range(N):
            if {(sign * x + t) % N for x in S.elems} == set(T.elems):
                return sign, t
    return None


def candidate_loop(S, T):
    """The candidate-shift loop, each candidate with its whole image set: each sign,
    then each t mapping some x onto min T, smallest first."""
    N = S.modulus
    target = set(T.elems)
    low = min(target, default=0)
    for sign in (1, -1):
        for t in sorted({(low - sign * x) % N for x in S.elems} or {0}):
            if {(sign * x + t) % N for x in S.elems} == target:
                return sign, t
    return None


@st.composite
def residue_pairs(draw):
    """(S, T) in Z/N with N <= 40, either set possibly empty; T is often a rigid image."""
    N = draw(st.integers(1, 40))
    S = ResidueSet(N, draw(st.sets(st.integers(0, N - 1))))
    if draw(st.booleans()):
        sign, t = draw(st.sampled_from([1, -1])), draw(st.integers(0, N - 1))
        return S, ResidueSet(N, (sign * x + t for x in S.elems))
    return S, ResidueSet(N, draw(st.sets(st.integers(0, N - 1))))


@settings(max_examples=300, deadline=None)
@given(residue_pairs())
@example((ResidueSet(5, ()), ResidueSet(5, ())))
@example((ResidueSet(5, ()), ResidueSet(5, (2,))))
@example((ResidueSet(5, (2,)), ResidueSet(5, ())))
@example((ResidueSet(1, ()), ResidueSet(1, (0,))))
def test_rigid_equivalent_matches_the_full_scan(pair):
    S, T = pair
    assert rigid_equivalent(S, T) == scan_rigid(S, T) == candidate_loop(S, T)


@settings(max_examples=150, deadline=None)
@given(residue_pairs(), st.sampled_from([2, 3, 4]))
@example((SET_A, SET_B), 4)
@example((SET_A, SET_B), 3)
def test_tables_equal_matches_the_key_by_key_comparison(pair, order):
    t1, t2 = (pattern_table(S, order) for S in pair)
    got = tables_equal(t1, t2)
    assert got == _first_difference(t1.counts, t2.counts)
    if not got[0]:  # Python ints, which print as the pinned homometry report does
        key, c1, c2 = got[1]
        assert type(key) is tuple and all(type(r) is int for r in key)
        assert type(c1) is int and type(c2) is int


def test_rigid_equivalent_of_4000_residues():
    # 4,000 residues mod 10^6 (1 and the even ones from 2 to 7,998, no translate
    # of their mirror image) and that image shifted by 12,345, then with one
    # image moved by 1; the candidate loop takes seconds on the latter
    N = 10**6
    S = ResidueSet(N, [1, *range(2, 8000, 2)])
    image = sorted((12_345 - x) % N for x in S.elems)
    start = time.perf_counter()
    assert rigid_equivalent(S, ResidueSet(N, image)) == (-1, 12_345)
    image[1000] += 1
    moved = ResidueSet(N, image)
    assert rigid_equivalent(S, moved) is None
    assert time.perf_counter() - start < 1.0
    assert candidate_loop(S, moved) is None


def test_rigid_equivalent_at_a_huge_modulus():
    N = 2**61
    S = ResidueSet(N, (0, 1))
    start = time.perf_counter()
    assert rigid_equivalent(S, ResidueSet(N, (0, 3))) is None
    assert rigid_equivalent(S, ResidueSet(N, (2**60, 2**60 + 1))) == (1, 2**60)
    # {0, 1, 3} is no translate of its mirror image
    assert rigid_equivalent(ResidueSet(N, (0, 1, 3)), ResidueSet(N, (-7, -8, -10))) == (-1, N - 7)
    assert time.perf_counter() - start < 1.0


def test_pattern_table_translation_invariance():
    rng = random.Random(21)
    for _ in range(5):
        t = rng.randint(1, 31)
        shifted = ResidueSet(32, ((a + t) % 32 for a in SET_A.elems))
        for order in (2, 3):
            equal, _ = tables_equal(pattern_table(SET_A, order),
                                    pattern_table(shifted, order))
            assert equal


def test_pattern_table_reflection_symmetry_order2():
    reflected = ResidueSet(32, ((-a) % 32 for a in SET_A.elems))
    equal, _ = tables_equal(pattern_table(SET_A, 2), pattern_table(reflected, 2))
    assert equal


def test_pattern_table_sum_rule():
    t2 = pattern_table(SET_A, 2)
    assert sum(t2.counts.values()) == 16 * 16


def test_thinned_full_residues_is_plain_model_set():
    full = ResidueSet(32, range(32))
    thin = thinned_model_set(W, full, (-100, 100))
    plain = generate(make_scheme("fibonacci"), W, (-100, 100))
    assert thin.coords.tolist() == plain.coords.tolist()


def test_thinned_equals_congruence_filter():
    thin = thinned_model_set(W, SET_A, (-200, 200))
    plain = generate(make_scheme("fibonacci"), W, (-200, 200))
    members = set(SET_A.elems)
    expected = [(u, v) for u, v in zip(*plain.coords.tolist()) if u % 32 in members]
    assert list(zip(*thin.coords.tolist())) == expected


def test_thinned_density():
    thin = thinned_model_set(W, SET_A, (0, 10_000))
    comb = make_scheme("combined", 32)
    from modelsets import ProductWindow
    exact = window_measure(comb, ProductWindow(W, SET_A))
    assert abs(thin.density() - exact) / exact < 0.02


def test_thinned_rejects_empty_residues():
    empty = ResidueSet(32, (0,)).intersect(ResidueSet(32, (1,)))
    with pytest.raises(ParameterError):
        thinned_model_set(W, empty, (0, 10))


def test_thinned_gap_multisets_differ():
    ta = thinned_model_set(W, SET_A, (0, 1000))
    tb = thinned_model_set(W, SET_B, (0, 1000))
    ga = sorted(np.round(gap_sequence(ta), 9))
    gb = sorted(np.round(gap_sequence(tb), 9))
    assert ga != gb
