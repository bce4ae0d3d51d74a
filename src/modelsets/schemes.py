"""Cut-and-project schemes and window geometry.

Three schemes are supported:

* ``fibonacci`` -- internal space R, lattice Z + Z*tau with tau = (1+sqrt5)/2,
  star map = algebraic conjugation, internal measure Lebesgue/sqrt5;
* ``periodic:N`` -- internal space Z/NZ, star map = reduction mod N,
  internal measure of S = card(S)/N;
* ``combined:N`` -- internal space R x Z/NZ, star map x -> (x', u mod N),
  internal measure = (Lebesgue/sqrt5) x (counting/N).

With these measures the density of a model set equals the internal
measure of its window, with no prefactor.

Each internal space is a product of R and Z/NZ, one factor possibly trivial.
:func:`window_factors` is the one place where a window splits into its real
and residue factors, and the one check that a window suits its scheme;
measures and Fourier transforms are products over the factors.

Each window class (``IntervalUnion``, ``ResidueSet``, ``ProductWindow``)
implements its own ``translate`` and ``intersect``, the two operations that
act on W x S factor by factor; :func:`star` returns the plain coordinate that
``translate`` takes (a QuadNum, an int mod N, or the pair of both).

Interval endpoints are kept exact in the quadratic field Q(tau) as
:class:`QuadNum` integer triples (p, q, d) meaning (p + q*tau)/d, reduced by
their gcd with d > 0; membership tests and interval arithmetic never round.
Only the ``IntervalUnion`` constructor, which the parser uses, sorts and
merges intervals; ``translate`` and ``intersect`` keep canonical unions
canonical without re-sorting.  Whatever ``Fraction`` reads exactly (ints,
binary floats, decimals, numpy integers, numeric strings) is an exact
coefficient and anything else a ParameterError.  Floats decide only outside
a guard band (1e-9 plus ``FLOAT_REL`` times the size of the coordinates)
around exact values; the same bound widens the row bounds of
:func:`_quad_candidates`, the one enumeration of the lattice Z[tau], which
visits every lattice point of its box and hardly any other.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

import numpy as np

from .errors import ParameterError, check_budget, check_int

TAU = (1 + 5**0.5) / 2
TAU_PRIME = (1 - 5**0.5) / 2
SQRT5 = 5**0.5

#: guard band inside which float prefilters defer to exact comparisons
FLOAT_GUARD = 1e-9

#: relative float error bound: for int64 u, v the float value of u + v*tau or
#: u + v*tau' is within FLOAT_REL * (|u| + |v|) of the exact one (a few
#: roundings of at most 2^-53 each; 2^-48 leaves a wide margin)
FLOAT_REL = 2.0 ** -48

#: lattice coordinates, residue moduli and the endpoints the ``IntervalUnion``
#: constructor takes stay below this in magnitude, so the sum of a point and a
#: translation (both bounded by it), and any residue, fit in int64
COORD_LIMIT = 2 ** 62

Real = Union[int, float, Fraction, "QuadNum"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"cannot interpret {x!r} as a rational number") from None


def _sgn(p: int, q: int) -> int:
    """Exact sign of p + q*tau for integers p, q."""
    # p + q(1+sqrt5)/2 has the sign of s + q*sqrt5, s = 2p + q
    s = 2 * p + q
    if q == 0:
        return (s > 0) - (s < 0)
    if s == 0 or (s > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: compare s^2 with 5 q^2 (equality impossible)
    return (1 if s > 0 else -1) if s * s > 5 * q * q else (1 if q > 0 else -1)


def _cmp(x: "QuadNum", y: "QuadNum") -> int:
    """Exact sign of x - y, read off the integers of the difference."""
    return _sgn(x.p * y.d - y.p * x.d, x.q * y.d - y.q * x.d)


class QuadNum:
    """Exact element (p + q*tau)/d of the field Q(tau), tau = (1+sqrt5)/2.

    ``p``, ``q`` and ``d`` are ints with d > 0 and gcd(p, q, d) = 1, so equal
    numbers have equal triples; lattice points and their stars have d = 1.
    ``_norm`` is the one place that brings a triple to this form.  ``a`` and
    ``b`` give the rational coefficients of a + b*tau as Fractions.
    Arithmetic, comparisons and conjugation are exact; a sign is decided on
    the integers of the difference.  Since tau' = 1 - tau, the ring Z[tau]
    and its field of fractions are closed under the star (conjugation) map.
    A rational QuadNum equals and hashes like the rational it is.
    """

    __slots__ = ("p", "q", "d")

    def __new__(cls, a=0, b=0):
        if type(a) is int and type(b) is int:
            return _make(a, b, 1)
        fa, fb = _as_fraction(a), _as_fraction(b)
        # int(): a Fraction keeps numpy integers as they are; the triple holds Python ints
        pa, da = int(fa.numerator), int(fa.denominator)
        pb, db = int(fb.numerator), int(fb.denominator)
        return _norm(pa * db, pb * da, da * db)

    def __setattr__(self, name, value):
        raise AttributeError("QuadNum is immutable")

    def __reduce__(self):
        return (QuadNum, (self.a, self.b))

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @staticmethod
    def coerce(x: Real) -> "QuadNum":
        return x if isinstance(x, QuadNum) else QuadNum(x)

    # -- ring/field operations -------------------------------------------
    def __add__(self, other):
        o = QuadNum.coerce(other)
        return _norm(self.p * o.d + o.p * self.d, self.q * o.d + o.q * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = QuadNum.coerce(other)
        return _norm(self.p * o.d - o.p * self.d, self.q * o.d - o.q * self.d, self.d * o.d)

    def __rsub__(self, other):
        return QuadNum.coerce(other) - self

    def __neg__(self):
        return _make(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = QuadNum.coerce(other)
        p, q, r, s = self.p, self.q, o.p, o.q
        # tau^2 = tau + 1
        return _norm(p * r + q * s, p * s + q * r + q * s, self.d * o.d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm (a + b*tau)(a + b*tau') = a^2 + ab - b^2."""
        p, q = self.p, self.q
        return Fraction(p * p + p * q - q * q, self.d * self.d)

    def conj(self) -> "QuadNum":
        """Algebraic conjugate a + b*tau', written in the tau basis."""
        # gcd(p + q, -q, d) = gcd(p, q, d) = 1: already canonical
        return _make(self.p + self.q, -self.q, self.d)

    def __truediv__(self, other):
        o = QuadNum.coerce(other)
        r, s = o.p, o.q
        n = r * r + r * s - s * s  # o = (r + s*tau)/e has norm n/e^2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(tau)")
        # x/o = x * conj(o) * e^2 / n, conj(o) = (r + s - s*tau)/e
        p, q, t = self.p, self.q, r + s
        return _norm((p * t - q * s) * o.d, (q * t - p * s - q * s) * o.d, self.d * n)

    def __rtruediv__(self, other):
        return QuadNum.coerce(other) / self

    # -- order ------------------------------------------------------------
    def sign(self) -> int:
        """Exact sign of the real value (p + q*tau)/d."""
        return _sgn(self.p, self.q)

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if not isinstance(other, (int, float, Fraction)):
            return NotImplemented
        return self.q == 0 and self.a == other

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    def __lt__(self, other):
        return _cmp(self, QuadNum.coerce(other)) < 0

    def __le__(self, other):
        return _cmp(self, QuadNum.coerce(other)) <= 0

    def __gt__(self, other):
        return _cmp(self, QuadNum.coerce(other)) > 0

    def __ge__(self, other):
        return _cmp(self, QuadNum.coerce(other)) >= 0

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __float__(self):
        # int / int rounds correctly, as float(Fraction) does
        return self.p / self.d + (self.q / self.d) * TAU

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r})"

    def literal(self) -> str:
        """Canonical text form, parseable by :func:`parse_expr`."""
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bterm = f"{b}*tau" if b >= 0 else f"-{-b}*tau"
        if a == 0:
            return bterm
        joiner = "+" if b >= 0 else "-"
        return f"{a}{joiner}{abs(b)}*tau"


_set_p = QuadNum.p.__set__
_set_q = QuadNum.q.__set__
_set_d = QuadNum.d.__set__


def _make(p: int, q: int, d: int) -> QuadNum:
    """QuadNum from a triple already in canonical form."""
    x = object.__new__(QuadNum)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _norm(p: int, q: int, d: int) -> QuadNum:
    """The QuadNum (p + q*tau)/d, with the gcd divided out and d made positive."""
    if d != 1:
        g = gcd(p, q, d)
        if d < 0:
            g = -g
        if g != 1:
            p, q, d = p // g, q // g, d // g
    return _make(p, q, d)


QUAD_TAU = QuadNum(0, 1)


class QuadLatticePoint(NamedTuple):
    """Point u + v*tau of the lattice Z + Z*tau, stored exactly.

    A tuple (u, v): it orders, hashes and compares equal like the plain pair.
    """

    u: int
    v: int

    def __add__(self, other: "QuadLatticePoint") -> "QuadLatticePoint":
        return QuadLatticePoint(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "QuadLatticePoint") -> "QuadLatticePoint":
        return QuadLatticePoint(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "QuadLatticePoint":
        return QuadLatticePoint(-self.u, -self.v)

    @property
    def phys(self) -> float:
        return self.u + self.v * TAU

    def to_quad(self) -> QuadNum:
        return QuadNum(self.u, self.v)

    def star_quad(self) -> QuadNum:
        """Conjugate u + v*tau' as an exact QuadNum."""
        return QuadNum(self.u + self.v, -self.v)


def _float_slack(q: QuadNum) -> float:
    """Bound on |float(q) - q|: float(q) rounds a + b*tau as ``FLOAT_REL`` bounds u + v*tau.

    It is 0 where q is a float, so a window such as [0,1) keeps its exact width.
    """
    if q.b == 0 and float(q.a) == q.a:
        return 0.0
    return FLOAT_REL * (abs(float(q.a)) + abs(float(q.b)))


def _float_hull(iu: IntervalUnion) -> tuple[float, float]:
    """The hull of a nonempty union as floats widened by their slack, so they hold it."""
    a, b = iu.hull()
    return float(a) - _float_slack(a), float(b) + _float_slack(b)


def _physical(coords: np.ndarray) -> np.ndarray:
    """Float physical positions u + v*tau (or n) of int64 lattice coordinates."""
    if len(coords) == 1:
        return coords[0].astype(float)
    x = coords[1] * TAU
    x += coords[0]  # u + v*tau, the same float sum with one temporary less
    return x


#: columns per chunk of the patch passes: lattice candidates (in row blocks of
#: about this many), exact membership and point-file lines
PATCH_CHUNK = 1 << 16


def patch_chunks(n: int, width: float = 1):
    """Slices cutting range(n) into blocks of about PATCH_CHUNK / width items."""
    step = max(1, int(PATCH_CHUNK // width))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _quad_candidates(star: tuple[float, float], phys: tuple[float, float],
                     budget: int, advice: str) -> np.ndarray:
    """Columns (u, v) covering every u+v*tau in the ``phys`` range with u+v*tau' in ``star``.

    This is the one enumeration of Z[tau] in a (physical, internal) box: patches,
    support differences and dual labels all take their candidates here and
    apply their own exact filter.  The ranges are taken as exact; callers
    holding floats of exact endpoints widen them first.  Each row v visits
    the u where both ranges overlap, the bounds rounded outward by a guard
    against the float error of w - v*tau' and x - v*tau (at most 1).  Over
    ``budget`` candidates is a ResourceError that ends with ``advice``.  The
    rows are bounded in blocks of about ``PATCH_CHUNK`` candidates, once to
    size the output and once to fill it.
    """
    (wlo_f, whi_f), (lo, hi) = star, phys
    vmin = math.floor((lo - whi_f) / math.sqrt(5)) - 2
    vmax = math.ceil((hi - wlo_f) / math.sqrt(5)) + 2
    # before allocating: a row visits at most the narrower width + 3 candidates
    # (+ 4 leaves one for float rounding), so this bounds the total
    width = min(whi_f - wlo_f, hi - lo) + 4
    check_budget((vmax - vmin + 1) * width, budget, advice)
    # |u| <= |u*| + |v| + 1 with u* in the star range
    if max(-vmin, vmax) + max(-wlo_f, whi_f) + 2 >= COORD_LIMIT:
        raise ParameterError("region or window too far from the origin for int64 coordinates")
    reach = max(-wlo_f, whi_f, -lo, hi)

    def rows(block):
        """(v, first u, candidate count) of the rows in ``block``."""
        vs = np.arange(vmin + block.start, vmin + block.stop, dtype=np.int64)
        g = FLOAT_GUARD + FLOAT_REL * (reach + np.abs(vs))
        # where the guard reaches 1 (beyond 2^48) it is one unit on the integer bounds,
        # as a float y - 1 may round back to y there
        far = g >= 1
        g[far] = 0
        u_lo = np.ceil(np.maximum(wlo_f - vs * TAU_PRIME, lo - vs * TAU) - g).astype(np.int64) - far
        u_hi = np.floor(np.minimum(whi_f - vs * TAU_PRIME, hi - vs * TAU) + g).astype(np.int64) + far
        return vs, u_lo, np.clip(u_hi - u_lo + 1, 0, None)

    blocks = list(patch_chunks(vmax - vmin + 1, width))
    out = np.empty((2, sum(int(rows(b)[2].sum()) for b in blocks)), dtype=np.int64)
    end = 0
    for b in blocks:
        vs, u_lo, counts = rows(b)
        start, end = end, end + int(counts.sum())
        # u runs from u_lo up along each row: the column index minus the row's first column
        np.add(np.repeat(u_lo - (np.cumsum(counts) - counts), counts), np.arange(end - start),
               out=out[0, start:end])
        out[1, start:end] = np.repeat(vs, counts)
    return out


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint half-open intervals [a, b) with exact endpoints.

    Canonical form: intervals sorted, pairwise disjoint, touching intervals
    merged, every a < b.  The empty union is allowed (it has measure zero and
    selects no points).  Only the constructor, the parser's path, sorts and
    merges, and it refuses endpoints of 2^62 or more in magnitude;
    ``translate`` and ``intersect`` build canonical results directly.
    """

    intervals: tuple  # of (a, b) QuadNum pairs; built from any iterable of pairs

    def __post_init__(self):
        pairs = []
        for a, b in self.intervals:
            qa, qb = QuadNum.coerce(a), QuadNum.coerce(b)
            for q in (qa, qb):
                if not -COORD_LIMIT < q < COORD_LIMIT:
                    raise ParameterError(f"interval endpoint {_excerpt(q.literal())} "
                                         "must be below 2^62 in magnitude")
            if not qa < qb:
                raise ParameterError(f"empty or inverted interval [{_excerpt(qa.literal())}, "
                                     f"{_excerpt(qb.literal())})")
            pairs.append((qa, qb))
        pairs.sort(key=lambda p: (p[0], p[1]))  # QuadNum order is exact
        merged: list[tuple] = []
        for a, b in pairs:
            if merged and a <= merged[-1][1]:  # overlapping or touching: one interval
                pa, pb = merged[-1]
                merged[-1] = (pa, max(pb, b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    def is_empty(self) -> bool:
        return not self.intervals

    def length(self) -> QuadNum:
        total = QuadNum(0, 0)
        for a, b in self.intervals:
            total = total + (b - a)
        return total

    def hull(self):
        """(min, max) endpoints, or None when empty."""
        if not self.intervals:
            return None
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, x: Real) -> bool:
        q = QuadNum.coerce(x)
        return any(a <= q < b for a, b in self.intervals)

    def translate(self, t: Real) -> "IntervalUnion":
        # a translate of a canonical union is canonical
        q = QuadNum.coerce(t)
        return _interval_union(tuple((a + q, b + q) for a, b in self.intervals))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        # one merge of two sorted lists; the pieces come out sorted, and they
        # cannot touch, because no interval of either union contains the end
        # of one of its neighbours
        mine, theirs = self.intervals, other.intervals
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            a, b = mine[i]
            c, d = theirs[j]
            lo = a if _cmp(a, c) >= 0 else c
            if _cmp(b, d) <= 0:
                hi = b
                i += 1
            else:
                hi = d
                j += 1
            if _cmp(lo, hi) < 0:
                out.append((lo, hi))
        return _interval_union(tuple(out))

    def __repr__(self):
        return f"IntervalUnion({self.literal()!r})"

    def literal(self) -> str:
        if not self.intervals:
            return "[)"
        return "u".join(f"[{a.literal()},{b.literal()})" for a, b in self.intervals)


def _interval_union(intervals: tuple) -> IntervalUnion:
    """IntervalUnion from intervals already in canonical form."""
    iu = object.__new__(IntervalUnion)
    object.__setattr__(iu, "intervals", intervals)
    return iu


@dataclass(frozen=True)
class ResidueSet:
    """Subset of Z/NZ, reduced, sorted, possibly empty (only as a computed result)."""

    modulus: int
    elems: tuple  # built from any iterable of ints

    def __post_init__(self):
        N = check_int("modulus", self.modulus)
        if not 1 <= N < COORD_LIMIT:
            raise ParameterError("modulus must be a positive integer below 2^62")
        residues = {check_int("residue", e) % N for e in self.elems}
        object.__setattr__(self, "elems", tuple(sorted(residues)))
        object.__setattr__(self, "modulus", N)

    def is_empty(self) -> bool:
        return not self.elems

    def __len__(self):
        return len(self.elems)

    def contains(self, r: int) -> bool:
        return (r % self.modulus) in self.elems

    def translate(self, t: int) -> "ResidueSet":
        return ResidueSet(self.modulus, (e + t for e in self.elems))

    def intersect(self, other: "ResidueSet") -> "ResidueSet":
        if other.modulus != self.modulus:
            raise ParameterError("modulus mismatch")
        return ResidueSet(self.modulus, set(self.elems) & set(other.elems))

    def measure(self) -> Fraction:
        return Fraction(len(self.elems), self.modulus)

    def __repr__(self):
        return f"ResidueSet({self.modulus}, {self.elems})"

    def literal(self) -> str:
        return "{" + ",".join(str(e) for e in self.elems) + "}@" + str(self.modulus)


@dataclass(frozen=True)
class ProductWindow:
    """Window W x S for the combined scheme; ``translate`` and ``intersect`` act factor
    by factor, which is exact for products (a union of two products is not one)."""

    intervals: IntervalUnion
    residues: ResidueSet

    def __post_init__(self):
        iu, rs = self.intervals, self.residues
        if not (isinstance(iu, IntervalUnion) and isinstance(rs, ResidueSet)):
            raise ParameterError(f"product window needs an IntervalUnion x ResidueSet, got "
                                 f"{type(iu).__name__} x {type(rs).__name__}")

    def is_empty(self) -> bool:
        return self.intervals.is_empty() or self.residues.is_empty()

    def translate(self, t: tuple) -> "ProductWindow":
        """Translate by t = (y, r), a real shift and a residue."""
        y, r = t
        return ProductWindow(self.intervals.translate(y), self.residues.translate(r))

    def intersect(self, other: "ProductWindow") -> "ProductWindow":
        return ProductWindow(self.intervals.intersect(other.intervals),
                             self.residues.intersect(other.residues))

    def literal(self) -> str:
        return f"{self.intervals.literal()}x{self.residues.literal()}"


Window = Union[IntervalUnion, ResidueSet, ProductWindow]


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

FIBONACCI = "fibonacci"
PERIODIC = "periodic"
COMBINED = "combined"
_KINDS = (FIBONACCI, PERIODIC, COMBINED)


@dataclass(frozen=True)
class Scheme:
    """Cut-and-project scheme; its kind fixes the internal measure.  The constructor,
    exported also as ``make_scheme``, refuses all but the three supported schemes."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        kind, modulus = self.kind, self.modulus
        if kind not in _KINDS:
            raise ParameterError(f"unknown scheme kind {_excerpt(str(kind))}; "
                                 f"expected one of {_KINDS}")
        if kind == FIBONACCI:
            if modulus is not None:
                raise ParameterError("fibonacci scheme takes no modulus")
        elif modulus is None or not 2 <= check_int(f"{kind} modulus", modulus) < COORD_LIMIT:
            raise ParameterError(f"{kind} scheme requires an integer modulus >= 2 and below 2^62")
        else:
            object.__setattr__(self, "modulus", operator.index(modulus))

    def label(self) -> str:
        return self.kind if self.modulus is None else f"{self.kind}:{self.modulus}"


make_scheme = Scheme


def parse_scheme(text: str) -> Scheme:
    """Parse 'fibonacci', 'periodic:N' or 'combined:N'."""
    text = text.strip().lower()
    if ":" in text:
        kind, _, mod = text.partition(":")
        try:
            modulus = int(mod)
        except ValueError:
            raise ParameterError(f"bad scheme literal {_excerpt(text)}: the modulus "
                                 "must be an integer") from None
        return make_scheme(kind.strip(), modulus)
    return make_scheme(text)


def star(scheme: Scheme, p):
    """Internal-space image of a lattice point: the shift its window's ``translate`` takes.

    fibonacci: the conjugate u + v*tau' as a QuadNum; periodic:N: the integer
    n mod N; combined:N: the pair (u + v*tau', u mod N).
    """
    if scheme.kind == PERIODIC:
        if not isinstance(p, int):
            raise ParameterError("periodic star expects a plain integer")
        return p % scheme.modulus
    if not isinstance(p, QuadLatticePoint):
        raise ParameterError(f"{scheme.kind} star expects a QuadLatticePoint")
    if scheme.kind == FIBONACCI:
        return p.star_quad()
    return p.star_quad(), p.u % scheme.modulus


def window_factors(scheme: Scheme, w: Window) -> tuple[IntervalUnion | None, ResidueSet | None]:
    """(real factor, residue factor) of a window: (W, None) on fibonacci, (None, S) on
    periodic:N, (W, S) on combined:N; a window of the wrong kind is a ParameterError."""
    kind, N = scheme.kind, scheme.modulus
    if kind == FIBONACCI and isinstance(w, IntervalUnion):
        return w, None
    if kind == PERIODIC and isinstance(w, ResidueSet) and w.modulus == N:
        return None, w
    if kind == COMBINED and isinstance(w, ProductWindow) and w.residues.modulus == N:
        return w.intervals, w.residues
    raise ParameterError(f"window {type(w).__name__} incompatible with scheme {scheme.label()}")


def _product(real, residue):
    """real * residue with a None factor left out (1 * z can flip the sign of a zero part)."""
    return residue if real is None else real if residue is None else real * residue


def window_measure(scheme: Scheme, w: Window) -> float:
    """Internal measure of the window, scaled as in the module docstring."""
    iu, rs = window_factors(scheme, w)
    return _product(None if iu is None else float(iu.length()) / SQRT5,
                    None if rs is None else float(rs.measure()))


def window_intersect(w1: Window, w2: Window) -> Window:
    """Exact set intersection of two windows of the same kind; may be empty."""
    if type(w1) is not type(w2):
        raise ParameterError("window kinds do not match")
    return w1.intersect(w2)


# ---------------------------------------------------------------------------
# window literal grammar
#
#   window   := union | residue | union "x" residue
#   union    := interval ("u" interval)*      e.g.  [0,1)u[1.5,2.25)
#   interval := "[" expr "," expr ")"
#   residue  := "{" int ("," int)* "}" "@" N   e.g.  {0,7,8}@32
#   expr     := arithmetic over decimals and "tau" with + - * / and parens
# ---------------------------------------------------------------------------

def _excerpt(text: str, pos: int = 0, width: int = 40) -> str:
    """Quote of at most ``width`` characters of ``text`` around ``pos``; '...' marks a cut."""
    start = max(0, min(pos - width // 2, len(text) - width))
    end = start + width
    return f"{'...' if start else ''}{text[start:end]!r}{'...' if end < len(text) else ''}"


_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _ExprParser:
    """Recursive descent over ``expr`` above; ``take`` is its one scanner."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParameterError(f"bad expression {_excerpt(self.text, self.pos)} "
                             f"at position {self.pos}: {msg}")

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def take(self, ops: str) -> str:
        """Skip blanks, then consume and return the next character if it is one of ``ops``."""
        while self.peek() == " ":
            self.pos += 1
        if (c := self.peek()) and c in ops:
            self.pos += 1
            return c
        return ""

    def parse(self) -> QuadNum:
        val = self.expr()  # ends on a failed take, so blanks are skipped
        if self.pos != len(self.text):
            self.error("trailing input")
        return val

    def expr(self, ops: str = "+-") -> QuadNum:
        """One left-associative loop: terms joined by + -, or with ops '*/' factors by * /."""
        operand = self.factor if ops == "*/" else lambda: self.expr("*/")
        val = operand()
        while op := self.take(ops):
            rhs = operand()
            if op == "/" and rhs.is_zero():
                self.error("division by zero")
            val = _APPLY[op](val, rhs)
        return val

    def factor(self) -> QuadNum:
        if sign := self.take("+-"):
            return -self.factor() if sign == "-" else self.factor()
        if self.take("("):
            val = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return val
        if self.text.startswith("tau", self.pos):
            self.pos += 3
            return QUAD_TAU
        start = self.pos
        while self.peek().isdigit() or self.peek() == ".":
            self.pos += 1
        if start == self.pos:
            self.error("expected a number, 'tau' or '('")
        tok = self.text[start:self.pos]
        try:
            return QuadNum(Fraction(tok), 0)
        except ValueError:
            self.error(f"bad number {_excerpt(tok)}")


def parse_expr(text: str) -> QuadNum:
    """Parse an exact endpoint expression such as '-1', '0.25' or '1/tau'."""
    try:
        return _ExprParser(text).parse()
    except RecursionError:
        raise ParameterError(f"expression of {len(text)} characters is nested too deeply") from None


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at bracket depth zero ('[', '{', '(' open a level)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_interval_union(text: str) -> IntervalUnion:
    text = text.strip()
    if text == "[)":
        return IntervalUnion.empty()
    pieces = _split_top(text, "u")
    intervals = []
    for piece in pieces:
        piece = piece.strip()
        if not (piece.startswith("[") and piece.endswith(")")):
            raise ParameterError(f"interval {_excerpt(piece)} must look like [a,b)")
        body = piece[1:-1]
        ends = _split_top(body, ",")
        if len(ends) != 2:
            raise ParameterError(f"interval {_excerpt(piece)} needs exactly two endpoints")
        intervals.append((parse_expr(ends[0]), parse_expr(ends[1])))
    return IntervalUnion(intervals)


def _parse_residue_set(text: str) -> ResidueSet:
    text = text.strip()
    body, _, mod = text.rpartition("@")
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParameterError(f"residue set {_excerpt(text)} must look like {{0,7,8}}@32")
    try:
        modulus = int(mod)
        elems = [int(tok) for tok in body[1:-1].split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"bad residue set {_excerpt(text)}: elements and modulus "
                             "must be integers") from None
    if not elems:
        raise ParameterError("residue set literal may not be empty")
    return ResidueSet(modulus, elems)


def parse_window(text: str) -> Window:
    """Parse a window literal: interval union, residue set, or their 'x' product."""
    parts = _split_top(text.strip(), "x")
    if len(parts) == 1:
        body = parts[0].strip()
        if body.startswith("{"):
            return _parse_residue_set(body)
        return _parse_interval_union(body)
    if len(parts) == 2:
        return ProductWindow(_parse_interval_union(parts[0]),
                             _parse_residue_set(parts[1]))
    raise ParameterError(f"bad window literal {_excerpt(text)}")


def format_window(w: Window) -> str:
    """Canonical literal for a window; parse_window(format_window(w)) == w."""
    return w.literal()
