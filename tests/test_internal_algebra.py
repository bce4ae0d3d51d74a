"""The exact internal-space algebra against oracles.

The dual star maps use a division-free closed form for 1/sqrt5; the oracle
here divides in Q(tau) the long way.  The direct star map must be a group
homomorphism component by component, the sign of a Q(tau) number must match
a 60-digit decimal evaluation, and window algebra must act factor by factor.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modelsets import (DualPoint, ParameterError, ProductWindow, QuadLatticePoint, QuadNum,
                       ResidueSet, freq_exact, make_scheme, parse_window, star,
                       window_intersect)

FIB = make_scheme("fibonacci")
SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SQRT5 = QuadNum(-1, 2)   # 2*tau - 1
TAU_PRIME = QuadNum(1, -1)

labels = st.integers(-10**6, 10**6)
moduli = st.sampled_from([2, 3, 5, 32, 97])
lattice_points = st.builds(QuadLatticePoint, st.integers(-10**4, 10**4),
                           st.integers(-10**4, 10**4))


def oracle_k(m, n, beta) -> QuadNum:
    return (QuadNum(m, n) + QuadNum(beta, 0) * TAU_PRIME) / SQRT5


def oracle_kstar(m, n, beta) -> QuadNum:
    return -(QuadNum(m, n).conj() + QuadNum(beta, 0) * QuadNum(0, 1)) / SQRT5


# ---------------------------------------------------------------------------
# dual star maps
# ---------------------------------------------------------------------------

@SETTINGS
@given(labels, labels)
def test_fibonacci_dual_point_matches_division(m, n):
    dp = DualPoint(FIB, (m, n))
    assert dp.k_exact() == oracle_k(m, n, 0)
    assert dp.kstar() == oracle_kstar(m, n, 0)
    assert dp.k == float(oracle_k(m, n, 0))


@SETTINGS
@given(labels, labels, st.integers(-10**3, 10**3), moduli)
def test_combined_dual_point_matches_division(m, n, b, N):
    dp = DualPoint(make_scheme("combined", N), (m, n, b))
    beta = Fraction(b, N)
    assert dp.k_exact() == oracle_k(m, n, beta)
    kappa, r = dp.kstar()
    assert kappa == oracle_kstar(m, n, beta)
    assert r == b % N
    assert dp.k == float(oracle_k(m, n, beta))


@SETTINGS
@given(st.sampled_from(["fibonacci", "periodic", "combined"]), labels, labels,
       st.integers(-10**3, 10**3), moduli)
def test_cached_k_keeps_value_equality_and_hash(kind, m, n, b, N):
    scheme = make_scheme(kind, None if kind == "fibonacci" else N)
    lab = {"fibonacci": (m, n), "periodic": (m,), "combined": (m, n, b)}[kind]
    dp, twin = DualPoint(scheme, lab), DualPoint(scheme, lab)
    h = hash(dp)
    assert dp.k == float(dp.k_exact())
    assert dp.k == float(dp.k_exact())  # the cached value
    assert hash(dp) == hash(twin) == h
    assert dp == twin and len({dp, twin}) == 1


@SETTINGS
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-100, 100), moduli,
       lattice_points)
def test_pairing_is_integral_and_matches_the_oracle(m, n, b, N, p):
    dp = DualPoint(FIB, (m, n))
    fib_value = dp.k_exact() * p.to_quad() + dp.kstar() * p.star_quad()
    total = oracle_k(m, n, 0) * p.to_quad() + oracle_kstar(m, n, 0) * p.star_quad()
    assert fib_value == total and total.b == 0
    assert total.a.denominator == 1

    dp = DualPoint(make_scheme("combined", N), (m, n, b))
    kappa, r = dp.kstar()
    quad = dp.k_exact() * p.to_quad() + kappa * p.star_quad()
    beta = Fraction(b, N)
    total = oracle_k(m, n, beta) * p.to_quad() + oracle_kstar(m, n, beta) * p.star_quad()
    assert quad == total and total.b == 0
    value = quad.a + Fraction(r * p.u, N)
    assert value == total.a + Fraction((b % N) * p.u, N)
    assert value.denominator == 1


# ---------------------------------------------------------------------------
# direct star map
# ---------------------------------------------------------------------------

@SETTINGS
@given(lattice_points, lattice_points, st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6), moduli)
def test_star_is_a_homomorphism_componentwise(p, q, i, j, N):
    assert star(FIB, p + q) == star(FIB, p) + star(FIB, q)
    assert star(FIB, -p) == -star(FIB, p)

    per = make_scheme("periodic", N)
    assert star(per, i + j) == (star(per, i) + star(per, j)) % N
    assert 0 <= star(per, i) < N

    comb = make_scheme("combined", N)
    (yp, rp), (yq, rq) = star(comb, p), star(comb, q)
    y, r = star(comb, p + q)
    assert y == yp + yq == star(FIB, p + q)
    assert r == (rp + rq) % N and 0 <= r < N


# ---------------------------------------------------------------------------
# exact sign
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-10**15, max_value=10**15, max_denominator=10**6)


@SETTINGS
@given(rationals, rationals)
@example(Fraction(832040), Fraction(-514229))      # F30 - F29*tau = tau'^29, tiny and < 0
@example(Fraction(-514229), Fraction(317811))      # F28*tau - F29 = -tau'^28, tiny and < 0
@example(Fraction(0), Fraction(0))
def test_quadnum_sign_matches_decimal(a, b):
    with localcontext() as ctx:
        ctx.prec = 60
        tau = (1 + Decimal(5).sqrt()) / 2
        value = (Decimal(a.numerator) / Decimal(a.denominator)
                 + Decimal(b.numerator) / Decimal(b.denominator) * tau)
    assert QuadNum(a, b).sign() == (value > 0) - (value < 0)


# ---------------------------------------------------------------------------
# windows and frequencies
# ---------------------------------------------------------------------------

def test_product_window_algebra_acts_factor_by_factor():
    iu1, iu2 = parse_window("[0,1)"), parse_window("[1/2,3)")
    rs1, rs2 = ResidueSet(32, (0, 7, 8)), ResidueSet(32, (7, 9))
    p1, p2 = ProductWindow(iu1, rs1), ProductWindow(iu2, rs2)
    assert p1.intersect(p2) == ProductWindow(iu1.intersect(iu2), rs1.intersect(rs2))
    assert p1.union(p2) == ProductWindow(iu1.union(iu2), rs1.union(rs2))
    assert p1.translate((QuadNum(0, 1), 30)) == ProductWindow(iu1.translate(QuadNum(0, 1)),
                                                               rs1.translate(30))
    assert window_intersect(p1, p2) == p1.intersect(p2)
    with pytest.raises(ParameterError):
        window_intersect(iu1, rs1)


CASES = [
    (FIB, parse_window("[0,1)u[1.5,2.25)")),
    (make_scheme("combined", 32), parse_window("[-1,1/tau)x{0,7,8,9,12,15,17,18}@32")),
    (make_scheme("periodic", 32), ResidueSet(32, (0, 7, 8, 9, 12, 15, 17, 18, 19, 20))),
]


@SETTINGS
@given(st.sampled_from(CASES), st.data())
def test_freq_exact_is_invariant_under_pattern_permutation(case, data):
    scheme, w = case
    if scheme.kind == "periodic":
        point = st.integers(-40, 40)
    else:
        point = st.builds(QuadLatticePoint, st.integers(-3, 3), st.integers(-3, 3))
    pattern = data.draw(st.lists(point, max_size=4))
    shuffled = data.draw(st.permutations(pattern))
    assert freq_exact(scheme, w, shuffled) == freq_exact(scheme, w, pattern)
