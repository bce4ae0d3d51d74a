"""The mod-32 homometric pair and the thinned golden-ratio counterexample."""

import random

import numpy as np
import pytest

from modelsets import (ParameterError, ResidueSet, cyclotomic_pair, gap_sequence,
                       generate, make_scheme, parse_window, pattern_table,
                       rigid_equivalent, tables_equal, thinned_model_set, window_measure)
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


def test_tables_equal_modulus_guard():
    with pytest.raises(ParameterError):
        tables_equal(pattern_table(SET_A, 2), pattern_table(ResidueSet(16, (0, 1)), 2))


def test_rigid_equivalence_cases():
    assert rigid_equivalent(SET_A, SET_A) == (1, 0)
    mirrored = ResidueSet(32, ((5 - a) % 32 for a in SET_A.elems))
    assert rigid_equivalent(SET_A, mirrored) == (-1, 5)
    assert rigid_equivalent(SET_A, SET_B) is None


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
