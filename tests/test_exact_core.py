"""The integer exact core against slow references.

``QuadNum`` keeps (p + q*tau)/d as three ints; the reference below is the
same field with two ``Fraction`` coefficients.  Interval unions built by
``translate`` and ``intersect`` must already be canonical, and the pattern
tables must agree with a direct count over every base point.
"""

import pickle
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modelsets import IntervalUnion, QuadNum, ResidueSet, ResourceError, pattern_table
from modelsets.schemes import TAU, parse_expr

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

rationals = st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**12)
# F30 - F29*tau = tau'^29 and F28*tau - F29 = -tau'^28: tiny, opposite-signed terms
NEAR_ZERO = [(Fraction(832040), Fraction(-514229)), (Fraction(-514229), Fraction(317811))]


class RefQuad:
    """a + b*tau with two Fraction coefficients, the slow reference."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return RefQuad(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return RefQuad(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return RefQuad(-self.a, -self.b)

    def __mul__(self, o):
        return RefQuad(self.a * o.a + self.b * o.b,
                       self.a * o.b + self.b * o.a + self.b * o.b)

    def norm(self):
        return self.a * self.a + self.a * self.b - self.b * self.b

    def conj(self):
        return RefQuad(self.a + self.b, -self.b)

    def __truediv__(self, o):
        inv = Fraction(1) / o.norm()
        c = o.conj()
        return self * RefQuad(c.a * inv, c.b * inv)

    def sign(self):
        s, t = 2 * self.a + self.b, self.b
        if t == 0 or s == 0 or (s > 0) == (t > 0):
            v = s if t == 0 else t
            return (v > 0) - (v < 0)
        return (1 if s > 0 else -1) if s * s > 5 * t * t else (1 if t > 0 else -1)

    def __float__(self):
        return float(self.a) + float(self.b) * TAU


def same(x: QuadNum, ref: RefQuad) -> bool:
    """Equal value, canonical triple, and the reference's Fraction coefficients."""
    return (x.d > 0 and gcd(x.p, x.q, x.d) == 1
            and x.a == ref.a and x.b == ref.b)


@SETTINGS
@given(rationals, rationals, rationals, rationals)
@example(*NEAR_ZERO[0], Fraction(0), Fraction(0))
@example(*NEAR_ZERO[1], *NEAR_ZERO[0])
@example(Fraction(1, 3), Fraction(0), Fraction(1, 3), Fraction(0))
def test_quadnum_matches_fraction_reference(a, b, c, e):
    x, y = QuadNum(a, b), QuadNum(c, e)
    rx, ry = RefQuad(a, b), RefQuad(c, e)
    assert same(x, rx) and same(y, ry)
    assert same(x + y, rx + ry)
    assert same(x - y, rx - ry)
    assert same(x * y, rx * ry)
    assert same(-x, -rx)
    assert same(x.conj(), rx.conj())
    assert x.norm() == rx.norm()
    if ry.norm() != 0:
        assert same(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert x.sign() == rx.sign() and (x - y).sign() == (rx - ry).sign()
    d = (rx - ry).sign()
    assert (x < y, x <= y, x == y, x > y, x >= y) == (d < 0, d <= 0, d == 0, d > 0, d >= 0)
    assert float(x) == float(rx)
    assert parse_expr(x.literal()) == x
    assert pickle.loads(pickle.dumps(x)) == x
    assert x.__reduce__() == (QuadNum, (rx.a, rx.b))


@pytest.mark.parametrize("a, b", NEAR_ZERO)
def test_fibonacci_near_cancellations_keep_their_sign(a, b):
    x = QuadNum(a, b)
    assert x.sign() == -1 and x < 0 and -x > 0
    assert float(x) == float(RefQuad(a, b))
    assert (x - x).is_zero() and x / x == 1


@SETTINGS
@given(rationals)
def test_rational_quadnum_hashes_like_the_rational(r):
    x = QuadNum(r, 0)
    assert x == r and hash(x) == hash(r)
    assert len({x, r}) == 1


def test_quadnum_hash_matches_int_and_fraction():
    assert QuadNum(3) == 3 and hash(QuadNum(3)) == hash(3)
    assert QuadNum(-7, 0) == -7 and hash(QuadNum(-7, 0)) == hash(-7)
    half = Fraction(1, 2)
    assert QuadNum(half) == half and hash(QuadNum(half)) == hash(half)
    assert QuadNum(0.5) == 0.5 and hash(QuadNum(0.5)) == hash(0.5)
    assert {3: "three"}[QuadNum(3)] == "three"
    assert QuadNum(1, 1) != 2 and QuadNum(1, 1) == QuadNum(Fraction(2, 2), 1)


def test_quadnum_refuses_attribute_assignment():
    x = QuadNum(1, 2)
    for name in ("p", "q", "d", "other"):
        with pytest.raises(AttributeError, match="^QuadNum is immutable$"):
            setattr(x, name, 3)
    assert (x.p, x.q, x.d) == (1, 2, 1)


# ---------------------------------------------------------------------------
# interval unions stay canonical without re-sorting
# ---------------------------------------------------------------------------

endpoints = st.builds(lambda a, q, b: QuadNum(Fraction(a, q), b),
                      st.integers(-40, 40), st.sampled_from([1, 2, 3]), st.integers(-2, 2))
unions = st.lists(st.tuples(endpoints, endpoints).filter(lambda t: t[0] != t[1]),
                  max_size=5).map(lambda ts: IntervalUnion((min(t), max(t)) for t in ts))


@SETTINGS
@given(unions, unions, endpoints)
def test_translate_and_intersect_are_already_canonical(u, v, shift):
    moved = u.translate(shift)
    assert moved.intervals == IntervalUnion(list(moved.intervals)).intervals
    cut = u.intersect(v)
    assert cut.intervals == IntervalUnion(list(cut.intervals)).intervals
    probes = {e for w in (u, v) for iv in w.intervals for e in iv}
    probes |= {(x + y) / 2 for x in probes for y in probes}
    for x in probes:
        assert cut.contains(x) == (u.contains(x) and v.contains(x))
        assert moved.contains(x + shift) == u.contains(x)
    assert cut.length() == v.intersect(u).length()


# ---------------------------------------------------------------------------
# pattern tables
# ---------------------------------------------------------------------------

def direct_counts(S: ResidueSet, order: int) -> dict:
    N, members = S.modulus, set(S.elems)
    return {key: sum(all((t + r) % N in members for r in key) for t in S.elems)
            for key in combinations_with_replacement(range(N), order - 1)}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 40).flatmap(
    lambda N: st.tuples(st.just(N), st.sets(st.integers(0, N - 1)))),
    st.sampled_from([2, 3, 4]))
def test_pattern_table_matches_direct_count(case, order):
    N, elems = case
    S = ResidueSet(N, elems)
    table = pattern_table(S, order)
    expected = direct_counts(S, order)
    assert table.counts == expected
    assert list(table.counts) == list(expected)
    assert all(type(c) is int for c in table.counts.values())


def test_pattern_table_budget_is_a_resource_error():
    with pytest.raises(ResourceError, match="budget"):
        pattern_table(ResidueSet(128, (0, 1, 5)), 4)
    with pytest.raises(ResourceError, match="budget"):
        pattern_table(ResidueSet(1001, (0, 1)), 3)
    assert len(pattern_table(ResidueSet(100, (0, 1, 5)), 4).counts) == 171700
