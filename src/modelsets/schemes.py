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

Each window class (``IntervalUnion``, ``ResidueSet``, ``ProductWindow``)
implements its own ``translate``, ``intersect`` and ``union``; :func:`star`
returns the plain coordinate that ``translate`` takes (a QuadNum, an int mod
N, or the pair of both).

Interval endpoints are kept exact in the quadratic field Q(tau); membership
tests and interval arithmetic never round.  Floating-point inputs are
converted exactly (binary floats are rationals), so comparisons stay
deterministic; a 1e-9 guard band is used only to decide when fast float
prefilters must fall back to exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParameterError

TAU = (1 + 5**0.5) / 2
TAU_PRIME = (1 - 5**0.5) / 2
SQRT5 = 5**0.5

#: guard band inside which float prefilters defer to exact comparisons
FLOAT_GUARD = 1e-9

Rational = Union[int, Fraction]
Real = Union[int, float, Fraction, "QuadNum"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact: binary floats are rationals
    if isinstance(x, str):
        return Fraction(x)
    raise ParameterError(f"cannot interpret {x!r} as a rational number")


class QuadNum:
    """Exact element a + b*tau of the field Q(tau), tau = (1+sqrt5)/2.

    The coefficients are rationals; arithmetic, comparisons and conjugation
    are exact.  Since tau' = 1 - tau, the whole ring Z[tau] and its field of
    fractions are closed under the star (conjugation) map.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QuadNum is immutable")

    def __reduce__(self):
        return (QuadNum, (self.a, self.b))

    @staticmethod
    def coerce(x: Real) -> "QuadNum":
        if isinstance(x, QuadNum):
            return x
        return QuadNum(_as_fraction(x), 0)

    # -- ring/field operations -------------------------------------------
    def __add__(self, other):
        o = QuadNum.coerce(other)
        return QuadNum(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = QuadNum.coerce(other)
        return QuadNum(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return QuadNum.coerce(other) - self

    def __neg__(self):
        return QuadNum(-self.a, -self.b)

    def __mul__(self, other):
        o = QuadNum.coerce(other)
        # tau^2 = tau + 1
        return QuadNum(self.a * o.a + self.b * o.b,
                       self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm (a + b*tau)(a + b*tau') = a^2 + ab - b^2."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def conj(self) -> "QuadNum":
        """Algebraic conjugate a + b*tau', written in the tau basis."""
        return QuadNum(self.a + self.b, -self.b)

    def __truediv__(self, other):
        o = QuadNum.coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(tau)")
        return self * o.conj() * QuadNum(Fraction(1, 1) / n, 0)

    def __rtruediv__(self, other):
        return QuadNum.coerce(other) / self

    # -- order ------------------------------------------------------------
    def sign(self) -> int:
        """Exact sign of the real value a + b*tau."""
        # a + b(1+sqrt5)/2 has the sign of s + t*sqrt5, s = 2a+b, t = b
        s = 2 * self.a + self.b
        t = self.b
        if t == 0:
            return (s > 0) - (s < 0)
        if s == 0:
            return (t > 0) - (t < 0)
        if (s > 0) == (t > 0):
            return 1 if s > 0 else -1
        # opposite signs: compare s^2 with 5 t^2 (equality impossible)
        return (1 if s > 0 else -1) if s * s > 5 * t * t else (1 if t > 0 else -1)

    def __eq__(self, other):
        if not isinstance(other, (QuadNum, int, float, Fraction)):
            return NotImplemented
        o = QuadNum.coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - QuadNum.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QuadNum.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QuadNum.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QuadNum.coerce(other)).sign() >= 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __float__(self):
        return float(self.a) + float(self.b) * TAU

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r})"

    def literal(self) -> str:
        """Canonical text form, parseable by :func:`parse_expr`."""
        if self.b == 0:
            return str(self.a)
        bterm = f"{self.b}*tau" if self.b >= 0 else f"-{-self.b}*tau"
        if self.a == 0:
            return bterm
        joiner = "+" if self.b >= 0 else "-"
        return f"{self.a}{joiner}{abs(self.b)}*tau"


QUAD_TAU = QuadNum(0, 1)


@dataclass(frozen=True, order=True)
class QuadLatticePoint:
    """Point u + v*tau of the lattice Z + Z*tau, stored exactly."""

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


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

class IntervalUnion:
    """Finite union of disjoint half-open intervals [a, b) with exact endpoints.

    Canonical form: intervals sorted, pairwise disjoint, touching intervals
    merged, every a < b.  The empty union is allowed (it has measure zero and
    selects no points).
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple]):
        pairs = []
        for a, b in intervals:
            qa, qb = QuadNum.coerce(a), QuadNum.coerce(b)
            if not qa < qb:
                raise ParameterError(f"empty or inverted interval [{float(qa)}, {float(qb)})")
            pairs.append((qa, qb))
        pairs.sort(key=lambda p: (p[0], p[1]))  # QuadNum order is exact
        merged: list[tuple] = []
        for a, b in pairs:
            if merged and a <= merged[-1][1]:
                pa, pb = merged[-1]
                if a < pb:  # genuine overlap only allowed when merging is lossless
                    merged[-1] = (pa, pb if pb >= b else b)
                else:  # touching: [x, a) u [a, b)
                    merged[-1] = (pa, b)
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalUnion is immutable")

    def __reduce__(self):
        return (IntervalUnion, (self.intervals,))

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
        q = QuadNum.coerce(t)
        return IntervalUnion((a + q, b + q) for a, b in self.intervals)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo = a if a >= c else c
                hi = b if b <= d else d
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion(out)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(tuple(self.intervals) + tuple(other.intervals))

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalUnion({self.literal()!r})"

    def literal(self) -> str:
        if not self.intervals:
            return "[)"
        return "u".join(f"[{a.literal()},{b.literal()})" for a, b in self.intervals)


class ResidueSet:
    """Subset of Z/NZ, reduced, sorted, possibly empty (only as a computed result)."""

    __slots__ = ("modulus", "elems")

    def __init__(self, modulus: int, elems: Iterable[int]):
        if modulus < 1:
            raise ParameterError("modulus must be a positive integer")
        reduced = sorted({e % modulus for e in elems})
        object.__setattr__(self, "modulus", int(modulus))
        object.__setattr__(self, "elems", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("ResidueSet is immutable")

    def __reduce__(self):
        return (ResidueSet, (self.modulus, self.elems))

    def is_empty(self) -> bool:
        return not self.elems

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def contains(self, r: int) -> bool:
        return (r % self.modulus) in self.elems

    def translate(self, t: int) -> "ResidueSet":
        return ResidueSet(self.modulus, (e + t for e in self.elems))

    def intersect(self, other: "ResidueSet") -> "ResidueSet":
        if other.modulus != self.modulus:
            raise ParameterError("modulus mismatch")
        return ResidueSet(self.modulus, set(self.elems) & set(other.elems))

    def union(self, other: "ResidueSet") -> "ResidueSet":
        if other.modulus != self.modulus:
            raise ParameterError("modulus mismatch")
        return ResidueSet(self.modulus, set(self.elems) | set(other.elems))

    def measure(self) -> Fraction:
        return Fraction(len(self.elems), self.modulus)

    def __eq__(self, other):
        return (isinstance(other, ResidueSet)
                and self.modulus == other.modulus and self.elems == other.elems)

    def __hash__(self):
        return hash((self.modulus, self.elems))

    def __repr__(self):
        return f"ResidueSet({self.modulus}, {self.elems})"

    def literal(self) -> str:
        return "{" + ",".join(str(e) for e in self.elems) + "}@" + str(self.modulus)


@dataclass(frozen=True)
class ProductWindow:
    """Window W x S for the combined scheme; each operation acts factor by factor."""

    intervals: IntervalUnion
    residues: ResidueSet

    def is_empty(self) -> bool:
        return self.intervals.is_empty() or self.residues.is_empty()

    def translate(self, t: tuple) -> "ProductWindow":
        """Translate by t = (y, r), a real shift and a residue."""
        y, r = t
        return ProductWindow(self.intervals.translate(y), self.residues.translate(r))

    def intersect(self, other: "ProductWindow") -> "ProductWindow":
        return ProductWindow(self.intervals.intersect(other.intervals),
                             self.residues.intersect(other.residues))

    def union(self, other: "ProductWindow") -> "ProductWindow":
        return ProductWindow(self.intervals.union(other.intervals),
                             self.residues.union(other.residues))

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
    """Cut-and-project scheme descriptor; its kind fixes the internal measure."""

    kind: str
    modulus: int | None = None

    def window_kind_ok(self, w: Window) -> bool:
        if self.kind == FIBONACCI:
            return isinstance(w, IntervalUnion)
        if self.kind == PERIODIC:
            return isinstance(w, ResidueSet) and w.modulus == self.modulus
        return isinstance(w, ProductWindow) and w.residues.modulus == self.modulus

    def label(self) -> str:
        return self.kind if self.modulus is None else f"{self.kind}:{self.modulus}"


def make_scheme(kind: str, modulus: int | None = None) -> Scheme:
    """Build one of the three supported schemes; modulus required for periodic/combined."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown scheme kind {kind!r}; expected one of {_KINDS}")
    if kind == FIBONACCI:
        if modulus is not None:
            raise ParameterError("fibonacci scheme takes no modulus")
        return Scheme(FIBONACCI, None)
    if modulus is None or int(modulus) < 2:
        raise ParameterError(f"{kind} scheme requires an integer modulus >= 2")
    return Scheme(kind, int(modulus))


def parse_scheme(text: str) -> Scheme:
    """Parse 'fibonacci', 'periodic:N' or 'combined:N'."""
    text = text.strip().lower()
    if ":" in text:
        kind, _, mod = text.partition(":")
        try:
            return make_scheme(kind.strip(), int(mod))
        except ValueError as e:
            raise ParameterError(f"bad scheme literal {text!r}: {e}") from None
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


def window_measure(scheme: Scheme, w: Window) -> float:
    """Internal measure of the window, scaled as in the module docstring."""
    if not scheme.window_kind_ok(w):
        raise ParameterError(f"window {type(w).__name__} incompatible with scheme {scheme.label()}")
    if scheme.kind == FIBONACCI:
        return float(w.length()) / SQRT5
    if scheme.kind == PERIODIC:
        return float(w.measure())
    return (float(w.intervals.length()) / SQRT5) * float(w.residues.measure())


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

class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParameterError(f"bad expression {self.text!r} at position {self.pos}: {msg}")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.peek() == " ":
            self.pos += 1

    def parse(self) -> QuadNum:
        val = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return val

    def expr(self) -> QuadNum:
        val = self.term()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "+":
                self.pos += 1
                val = val + self.term()
            elif c == "-":
                self.pos += 1
                val = val - self.term()
            else:
                return val

    def term(self) -> QuadNum:
        val = self.factor()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "*":
                self.pos += 1
                val = val * self.factor()
            elif c == "/":
                self.pos += 1
                d = self.factor()
                if d.is_zero():
                    self.error("division by zero")
                val = val / d
            else:
                return val

    def factor(self) -> QuadNum:
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        if self.peek() == "+":
            self.pos += 1
            return self.factor()
        return self.atom()

    def atom(self) -> QuadNum:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.pos += 1
            val = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
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
            self.error(f"bad number {tok!r}")


def parse_expr(text: str) -> QuadNum:
    """Parse an exact endpoint expression such as '-1', '0.25' or '1/tau'."""
    return _ExprParser(text).parse()


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
            raise ParameterError(f"interval {piece!r} must look like [a,b)")
        body = piece[1:-1]
        ends = _split_top(body, ",")
        if len(ends) != 2:
            raise ParameterError(f"interval {piece!r} needs exactly two endpoints")
        intervals.append((parse_expr(ends[0]), parse_expr(ends[1])))
    return IntervalUnion(intervals)


def _parse_residue_set(text: str) -> ResidueSet:
    text = text.strip()
    if not text.startswith("{") or "@" not in text:
        raise ParameterError(f"residue set {text!r} must look like {{0,7,8}}@32")
    body, _, mod = text.rpartition("@")
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParameterError(f"residue set {text!r} must look like {{0,7,8}}@32")
    try:
        modulus = int(mod)
        elems = [int(tok) for tok in body[1:-1].split(",") if tok.strip() != ""]
    except ValueError as e:
        raise ParameterError(f"bad residue set {text!r}: {e}") from None
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
    raise ParameterError(f"bad window literal {text!r}")


def format_window(w: Window) -> str:
    """Canonical literal for a window; parse_window(format_window(w)) == w."""
    return w.literal()
