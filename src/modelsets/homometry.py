"""Homometric residue sets, their pattern and deck tables, and thinned golden-ratio sets.

Centrepiece: a pair of 16-element subsets of Z/32Z that share all 2- and
3-point pattern counts yet are not related by any rigid motion x -> +-x + t.
Both sets are expanded from factored polynomials at import time.  All residue
computations here are exact integer arithmetic; no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .correlations import _first_difference
from .errors import MAX_PATTERN_CELLS, ParameterError, check_budget
from .pointsets import PointSet, generate
from .schemes import (COMBINED, IntervalUnion, ProductWindow, ResidueSet, _cyclic_gaps,
                      make_scheme)

CYCLOTOMIC_MODULUS = 32


def _exponent_set(factors: list[list[int]], modulus: int) -> tuple[int, ...]:
    poly = [1]
    for f in factors:
        poly = np.convolve(poly, f).tolist()  # exact on these small integer factors
    # reduce mod x^modulus - 1 and demand a 0/1 indicator polynomial
    folded = [0] * modulus
    for i, c in enumerate(poly):
        folded[i % modulus] += c
    if any(c not in (0, 1) for c in folded):
        raise AssertionError("factored polynomial did not expand to an indicator")
    return tuple(i for i, c in enumerate(folded) if c == 1)


# shared factors 1 + x + ... + x^15 and 1 - x^3 + x^9; the last factor differs
_FACTORS_A = [[1] * 16, [1, 0, 0, -1, 0, 0, 0, 0, 0, 1], [1, -1, 0, 1, -1, 0, 1]]
_FACTORS_B = [[1] * 16, [1, 0, 0, -1, 0, 0, 0, 0, 0, 1], [1, 0, -1, 1, 0, -1, 1]]

_SET_A = _exponent_set(_FACTORS_A, CYCLOTOMIC_MODULUS)
_SET_B = _exponent_set(_FACTORS_B, CYCLOTOMIC_MODULUS)


def cyclotomic_pair() -> tuple[ResidueSet, ResidueSet]:
    """The homometric pair (A, B) in Z/32Z, expanded from its factored form."""
    return (ResidueSet(CYCLOTOMIC_MODULUS, _SET_A),
            ResidueSet(CYCLOTOMIC_MODULUS, _SET_B))


@dataclass(frozen=True)
class PatternTable:
    """Exact pattern counts over Z/NZ.

    ``counts`` maps each sorted difference tuple (r1, ..., r_{n-1}) to the
    number of t in Z/NZ with t, t+r1, ..., t+r_{n-1} all in the set.  The
    order-2 row sum equals card(S)^2.
    """

    order: int
    modulus: int
    counts: dict

    def count(self, key: tuple) -> int:
        return self.counts.get(tuple(sorted(r % self.modulus for r in key)), 0)


def _pattern_counts(S: ResidueSet, order: int) -> np.ndarray:
    """full[r1, ..., r_{n-1}]: the count of the pattern {0, r1, ..., r_{n-1}} in S.

    With the shift matrix sh[r, t] = 1_S(t + r) the count is
    sum_t s[t] sh[r1, t] ... sh[r_{n-1}, t], one exact int64 product over all
    keys at once.
    """
    N = S.modulus
    # the N x N shift matrix, or the N^3 counts at order 4
    check_budget(N ** max(2, order - 1), MAX_PATTERN_CELLS, "pattern cells",
                 "use a smaller modulus or order")
    s = np.zeros(N, dtype=np.int64)
    s[list(S.elems)] = 1
    sh = s[(np.arange(N)[:, None] + np.arange(N)[None, :]) % N]
    based = sh * s
    if order == 2:
        return based.sum(1)
    if order == 3:
        return based @ sh.T
    return np.einsum("at,bt,ct->abc", based, sh, sh)


def pattern_table(S: ResidueSet, order: int) -> PatternTable:
    """Count every order-n pattern of S exactly (n = 2, 3 or 4); keys are sorted tuples."""
    if order not in (2, 3, 4):
        raise ParameterError("order must be 2, 3 or 4")
    N = S.modulus
    full = _pattern_counts(S, order)
    keys = list(combinations_with_replacement(range(N), order - 1))
    values = full[tuple(np.array(keys).T)].tolist()
    return PatternTable(order, N, dict(zip(keys, values)))


@dataclass(frozen=True)
class ResidueDeckTables:
    """Integer deck tables of a residue window and their exact-scale transforms."""

    modulus: int
    n1: np.ndarray      # n1[w]      = card(S cut (w + S))
    n2: np.ndarray      # n2[w1, w2] = card(S cut (w1 + S) cut (w2 + S))
    I1hat: np.ndarray
    I2hat: np.ndarray


def residue_deck_tables(S: ResidueSet) -> ResidueDeckTables:
    N = S.modulus
    # n1[w] and n2[w1, w2] count the patterns {0, -w} and {0, -w1, -w2}
    neg = -np.arange(N) % N
    n1 = _pattern_counts(S, 2)[neg]
    n2 = _pattern_counts(S, 3)[neg][:, neg]
    I1hat = np.fft.fft(n1) / N**2
    I2hat = np.fft.fft2(n2) / N**3
    return ResidueDeckTables(N, n1, n2, I1hat, I2hat)


def tables_equal(t1: PatternTable, t2: PatternTable):
    """Exact comparison as (equal, witness): the first differing tuple and both counts."""
    if t1.order != t2.order or t1.modulus != t2.modulus:
        raise ParameterError("tables differ in order or modulus")
    return _first_difference(t1.counts, t2.counts)


def rigid_equivalent(S: ResidueSet, T: ResidueSet):
    """First transform x -> sign*x + t mapping S onto T, or None: sign 1 before -1,
    then the smallest t (t = 0 if both sets are empty).

    A translate keeps the cyclic order of a set, so sign*S + t = T iff the
    gaps between cyclically successive elements of sign*S, read from the
    element that t maps onto min T, are those of T; every such element is
    found in one string search over the gaps (linear in |S|).
    """
    if S.modulus != T.modulus:
        raise ParameterError("modulus mismatch")
    if len(S) != len(T):
        return None
    if not len(S):
        return 1, 0
    N = S.modulus
    target = _cyclic_gaps(T.elems, N)
    for sign in (1, -1):
        A = sorted((sign * x) % N for x in S.elems)
        ts = [(T.elems[0] - A[r]) % N for r in _rotations(_cyclic_gaps(A, N), target)]
        if ts:
            return sign, min(ts)
    return None


def _rotations(a: list, b: list):
    """Each r with a[r:] + a[:r] == b, for lists of one length, by Knuth-Morris-Pratt."""
    n = len(b)
    border = [0] * n   # border[i]: the longest proper border of b[:i + 1]
    k = 0
    for i in range(1, n):
        while k and b[i] != b[k]:
            k = border[k - 1]
        k += b[i] == b[k]
        border[i] = k
    k = 0
    for i, x in enumerate(a + a[:-1]):
        while k and x != b[k]:
            k = border[k - 1]
        k += x == b[k]
        if k == n:
            yield i - n + 1
            k = border[k - 1]


def thinned_model_set(w: IntervalUnion, S: ResidueSet,
                      region: tuple[float, float]) -> PointSet:
    """Golden-ratio model set thinned by the congruence condition u mod N in S."""
    if S.is_empty():
        raise ParameterError("thinning residue set must be nonempty")
    scheme = make_scheme(COMBINED, S.modulus)
    return generate(scheme, ProductWindow(w, S), region)
