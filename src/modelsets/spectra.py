"""Dual points, window Fourier transforms, diffraction, and deck grids.

The diffraction of a regular model set is pure point: the intensity at a dual
point k is |FT of the window indicator at -k*|^2.  Dual points carry exact
integer labels so peaks stay addressable even though the physical Fourier
module is dense in R.

Deck grids discretize the window self-intersection functions I1(w) and
I2(w1, w2) on a periodized grid (circle of circumference 2*L_half); there the
discrete Fourier transform turns the transform identities into exact
statements, up to rounding, provided the window support is well inside one
period.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (MAX_CANDIDATES, MAX_DECK_CELLS, MAX_ENTRIES, ParameterError,
                     check_budget, check_count, check_real)
from .homometry import _pattern_counts
from .pointsets import _atomic_write, _quad_candidates
from .schemes import (COMBINED, FIBONACCI, PERIODIC, SQRT5, TAU, TAU_PRIME,
                      IntervalUnion, QuadNum, ResidueSet, Scheme, Window, _norm,
                      _product, make_scheme, window_factors)


# ---------------------------------------------------------------------------
# dual points
# ---------------------------------------------------------------------------

def _over_sqrt5(x: int, y: int, N: int) -> QuadNum:
    """(x + y*tau)/(N*sqrt5) = ((2y - x) + (2x + y)*tau)/(5N), as sqrt5 = 2*tau - 1."""
    return _norm(2 * y - x, 2 * x + y, 5 * N)


@dataclass(frozen=True)
class DualPoint:
    """Dual-lattice point with exact integer labels.

    periodic:   labels (j,),      k = j/N
    combined:   labels (m, n, b), k = (m + n*tau + beta*tau')/sqrt5, beta = b/N
    fibonacci:  labels (m, n),    the combined case beta = 0

    ``k_exact`` and ``kstar`` are exact; ``kstar`` is the frequency that
    :func:`window_ft` takes (a QuadNum, b mod N, or the pair on combined).
    For a lattice point x, k*x + k**x* (+ b*u/N on combined) is an integer.
    """

    scheme: Scheme
    labels: tuple

    @cached_property
    def k(self) -> float:
        return float(self.k_exact())

    def _golden(self) -> tuple:
        """(m, n, b, N) of a golden-ratio dual point; fibonacci is the case b = 0, N = 1."""
        m, n, *b = self.labels
        return (m, n, b[0], self.scheme.modulus) if b else (m, n, 0, 1)

    def k_exact(self):
        if self.scheme.kind == PERIODIC:
            (j,) = self.labels
            return Fraction(j, self.scheme.modulus)
        m, n, b, N = self._golden()
        return _over_sqrt5(m * N + b, n * N - b, N)  # tau' = 1 - tau

    def _kappa(self) -> QuadNum:
        """Real internal component: kappa*sqrt5 = -(m + n*tau' + beta*tau)."""
        m, n, b, N = self._golden()
        return _over_sqrt5(-(m + n) * N, n * N - b, N)

    def kstar(self):
        """Internal component of the dual point (exact)."""
        if self.scheme.kind == PERIODIC:
            (j,) = self.labels
            return (-j) % self.scheme.modulus
        if self.scheme.kind == FIBONACCI:
            return self._kappa()
        return self._kappa(), self.labels[2] % self.scheme.modulus


# ---------------------------------------------------------------------------
# window Fourier transform and diffraction
# ---------------------------------------------------------------------------

def window_ft(scheme: Scheme, w: Window, kstar) -> complex:
    """Transform of the window indicator at an internal frequency.

    Closed forms: an interval [a, b) contributes
    (exp(-2 pi i k b) - exp(-2 pi i k a)) / (-2 pi i k sqrt5) with the k = 0
    limit (b - a)/sqrt5; a residue set contributes sum exp(-2 pi i a b/N)/N;
    the transform is the product over the window's factors.
    """
    iu, rs = window_factors(scheme, w)
    # a frequency has the window's factors: a pair on combined:N, else the one
    kappa, b = kstar if iu is not None and rs is not None else (kstar, kstar)
    return _product(None if iu is None else _interval_ft(iu, kappa, SQRT5),
                    None if rs is None else _residue_ft(rs, int(b)))


def _interval_ft(iu: IntervalUnion, kappa, c: float) -> complex:
    if isinstance(kappa, QuadNum):
        is_zero = kappa.is_zero()
        kf = float(kappa)
    else:
        kf = float(kappa)
        is_zero = kf == 0.0
    if is_zero:
        return complex(float(iu.length()) / c)
    total = 0j
    for a, b in iu.intervals:
        ea = cmath.exp(-2j * math.pi * kf * float(a))
        eb = cmath.exp(-2j * math.pi * kf * float(b))
        total += (eb - ea) / (-2j * math.pi * kf * c)
    return total


def _residue_ft(rs: ResidueSet, b: int) -> complex:
    N = rs.modulus
    return sum(cmath.exp(-2j * math.pi * a * b / N) for a in rs.elems) / N


#: (width, height) of the stick plot in SVG user units
SVG_SIZE = (640, 320)


@dataclass(frozen=True)
class Spectrum:
    """Pure-point diffraction: dual points and their intensities."""

    scheme: Scheme
    window: Window
    peaks: tuple  # ((DualPoint, intensity), ...) ordered by (|k|, labels)

    def __len__(self):
        return len(self.peaks)

    def intensity_at(self, *labels: int) -> float:
        for dp, inten in self.peaks:
            if dp.labels == tuple(labels):
                return inten
        return 0.0

    def to_csv(self, path: str) -> None:
        names = {FIBONACCI: ["m", "n"], PERIODIC: ["b"], COMBINED: ["m", "n", "b"]}
        header = ",".join(names[self.scheme.kind] + ["k", "intensity"])
        lines = [header]
        for dp, inten in self.peaks:
            cells = [str(x) for x in dp.labels] + [f"{dp.k:.15g}", f"{inten:.15g}"]
            lines.append(",".join(cells))
        _atomic_write(path, "\n".join(lines) + "\n")

    def to_svg(self, path: str) -> None:
        """Stick plot: one vertical line per peak, height proportional to intensity."""
        if not self.peaks:
            raise ParameterError("empty spectrum")
        width, height = SVG_SIZE
        ks = [dp.k for dp, _ in self.peaks]
        hs = [inten for _, inten in self.peaks]
        kmin, kmax = min(ks), max(ks)
        span = (kmax - kmin) or 1.0
        top = max(hs) or 1.0
        mleft, mright, mtop, mbot = 45, 15, 15, 35
        pw, ph = width - mleft - mright, height - mtop - mbot
        x = lambda k: mleft + (k - kmin) / span * pw
        y = lambda h: mtop + ph * (1 - h / top)
        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
                 f'viewBox="0 0 {width} {height}">',
                 f'<rect width="{width}" height="{height}" fill="white"/>',
                 f'<line x1="{mleft}" y1="{mtop + ph}" x2="{mleft + pw}" y2="{mtop + ph}" '
                 'stroke="black" stroke-width="1"/>']
        if self.scheme.kind == PERIODIC:
            N = self.scheme.modulus
            for dp, _ in self.peaks:
                j = dp.labels[0]
                xx = x(dp.k)
                parts.append(f'<line x1="{xx:.2f}" y1="{mtop + ph}" x2="{xx:.2f}" '
                             f'y2="{mtop + ph + 4}" stroke="black" stroke-width="1"/>')
                parts.append(f'<text x="{xx:.2f}" y="{mtop + ph + 16}" font-size="9" '
                             f'text-anchor="middle">{j}</text>')
            parts.append(f'<text x="{mleft + pw / 2:.2f}" y="{height - 6}" font-size="11" '
                         f'text-anchor="middle">k/{N}</text>')
        else:
            for frac in (0.0, 0.5, 1.0):
                kk = kmin + frac * span
                parts.append(f'<text x="{x(kk):.2f}" y="{mtop + ph + 16}" font-size="9" '
                             f'text-anchor="middle">{kk:.3g}</text>')
            parts.append(f'<text x="{mleft + pw / 2:.2f}" y="{height - 6}" font-size="11" '
                         f'text-anchor="middle">k</text>')
        for dp, inten in self.peaks:
            xx = x(dp.k)
            parts.append(f'<line x1="{xx:.2f}" y1="{mtop + ph}" x2="{xx:.2f}" '
                         f'y2="{y(inten):.2f}" stroke="black" stroke-width="1.5"/>')
        parts.append("</svg>")
        _atomic_write(path, "\n".join(parts) + "\n")


def diffraction(scheme: Scheme, w: Window, kmax: float, min_intensity: float = 1e-4,
                include_zeros: bool = False) -> Spectrum:
    """All dual points with |k| <= kmax and intensity |window_ft(-k*)|^2.

    Peaks below ``min_intensity`` are omitted unless ``include_zeros`` is set
    (then everything enumerated appears); the schemes with a real internal
    component need a positive one, as their dual module is dense in R.
    The bound on the internal frequency follows from
    |FT| <= n_intervals / (pi sqrt5 |kappa|).  Those golden-ratio schemes
    share one pass over the residues b of the dual labels: fibonacci has no
    residue factor and is the single pass b = 0, labelled (m, n); on
    combined:N the residue factor's transform is shared by every label with
    the same b, and a b whose factor caps the intensity below
    ``min_intensity`` is skipped.  Before any label is built, the labels to
    visit (every j for periodic:N, N boxes of ``_golden_dual_labels``
    otherwise) are held to ``MAX_ENTRIES``: each is a ``window_ft`` call.
    """
    check_real("kmax", kmax, 0)
    check_real("min_intensity", min_intensity)
    iu, rs = window_factors(scheme, w)

    peaks = []
    if iu is None:
        N = rs.modulus
        check_budget(2 * kmax * N + 1, MAX_ENTRIES, "reduce kmax")
        jmax = math.floor(kmax * N + 1e-9)
        for j in range(math.ceil(-kmax * N - 1e-9), jmax + 1):
            inten = abs(window_ft(scheme, w, j % N)) ** 2
            if include_zeros or inten >= min_intensity:
                peaks.append((DualPoint(scheme, (j,)), inten))
    else:
        if min_intensity <= 0:
            raise ParameterError("a positive min_intensity is required on dense duals")
        n_int = max(1, len(iu.intervals))
        kappa_bound = n_int / (math.pi * SQRT5 * math.sqrt(min_intensity))
        fib = make_scheme(FIBONACCI)
        N = 1 if rs is None else rs.modulus
        # each residue's box has at most 2*(kmax + kappa_bound) + 8 rows of at
        # most the narrower of its two ranges plus the enumeration's slack
        rows = 2 * (kmax + kappa_bound) + 8
        check_budget(N * rows * (2 * SQRT5 * min(kmax, kappa_bound) + 4), MAX_ENTRIES,
                     "reduce kmax or raise min_intensity")
        for b in range(N):
            rft, tail = None, ()
            if rs is not None:
                rft, tail = _residue_ft(rs, (-b) % N), (b,)
                cap = (abs(rft) * float(iu.length()) / SQRT5) ** 2
                if not include_zeros and cap < min_intensity:
                    continue
            for m, n in zip(*_golden_dual_labels(kmax, kappa_bound, b, N).tolist()):
                dp = DualPoint(scheme, (m, n) + tail)
                inten = abs(_product(window_ft(fib, iu, -dp._kappa()), rft)) ** 2
                if include_zeros or inten >= min_intensity:
                    peaks.append((dp, inten))
    peaks.sort(key=lambda t: (abs(t[0].k), t[0].labels))
    return Spectrum(scheme, w, tuple(peaks))


def _golden_dual_labels(kmax: float, kappa_bound: float, b: int, N: int) -> np.ndarray:
    """Rows (m, n) of the dual labels with |k| <= kmax and |kappa| <= kappa_bound.

    k sqrt5 = m + n tau + (b/N) tau' and kappa sqrt5 = -(m + n tau' + (b/N) tau),
    so (m, n) is a lattice point of the box that ``_quad_candidates``
    enumerates; fibonacci is the case b = 0.  Both bounds get 1e-9 of slack,
    and the candidates are then cut by one float test per bound.
    """
    P = SQRT5 * kmax + 1e-9
    Q = SQRT5 * kappa_bound + 1e-9
    beta = b / N
    cand = _quad_candidates((-Q - beta * TAU, Q - beta * TAU),
                            (-P - beta * TAU_PRIME, P - beta * TAU_PRIME),
                            MAX_CANDIDATES, "reduce kmax or raise min_intensity")
    m, n = cand
    lo = np.maximum(-P - n * TAU - beta * TAU_PRIME, -Q - n * TAU_PRIME - beta * TAU)
    hi = np.minimum(P - n * TAU - beta * TAU_PRIME, Q - n * TAU_PRIME - beta * TAU)
    return cand[:, (m >= lo) & (m <= hi)]


# ---------------------------------------------------------------------------
# finite-group zero condition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, exactly."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


def _poly_divide_exact(num: list, den: list) -> list:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1] // den[-1]
        out[i] = coef
        for j, d in enumerate(den):
            num[i + j] -= coef * d
    if any(num):
        raise AssertionError("non-exact polynomial division")
    return out


def _root_sum_is_zero(exponent_counts: Mapping[int, int], n: int) -> bool:
    """Exact test of sum_j c_j zeta^j = 0 for zeta = exp(2 pi i / n)."""
    poly = [0] * n
    for e, c in exponent_counts.items():
        poly[e % n] += c
    if not any(poly):
        return True
    phi = list(_cyclotomic(n))
    rem = list(poly)
    # reduce modulo the cyclotomic polynomial (monic, integer)
    for i in range(len(rem) - 1, len(phi) - 2, -1):
        coef = rem[i]
        if coef == 0:
            continue
        for j, d in enumerate(phi):
            rem[i - (len(phi) - 1) + j] -= coef * d
    return not any(rem)


def zero_condition(N: int, windows: Mapping[int, IntervalUnion], b: int) -> bool:
    """Whether sum over a of conj(chi_a(b)) * indicator(W_a) vanishes identically.

    Exact: the real line is cut at every window endpoint and on each piece the
    coefficient sum (an integer combination of N-th roots of unity) is tested
    for exact vanishing against the cyclotomic polynomial.
    """
    if N < 1:
        raise ParameterError("modulus must be positive")
    cuts = set()
    live = {a: w for a, w in windows.items() if not w.is_empty()}
    if not live:
        return True
    for w in live.values():
        for lo, hi in w.intervals:
            cuts.add(lo)
            cuts.add(hi)
    cuts = sorted(cuts)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if not lo < hi:
            continue
        mid = (lo + hi) / QuadNum(2, 0)
        counts: dict[int, int] = {}
        for a, w in live.items():
            if w.contains(mid):
                e = (-a * b) % N
                counts[e] = counts.get(e, 0) + 1
        if counts and not _root_sum_is_zero(counts, N):
            return False
    return True


# ---------------------------------------------------------------------------
# deck grids on the periodized line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeckGrid:
    """Window self-intersection data on a circle of circumference 2*L_half.

    ``I1[j]`` is the measure of the window cut with its translate by j cells
    and ``I2[j1, j2]`` the measure of the triple cut; both are exact integer
    cell counts times the cell width.  I2 is stored as those counts on its
    nonzero rows only: ``rows`` lists the shifts j1 with I1[j1] > 0 (every
    other row of I2 is zero) and ``counts[i]`` is row ``rows[i]`` as int32;
    the dense float ``I2`` is built on each read.  ``I1hat`` and ``I2hat``
    are the transforms of the deck data, everything the reconstruction stage
    is allowed to see; ``I2hat`` is the transpose view of a C-ordered buffer
    holding I2hat[k1, k2] at [k2, k1].
    """

    M: int
    l_half: float
    f: np.ndarray
    I1: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    I1hat: np.ndarray
    I2hat: np.ndarray

    @property
    def I2(self) -> np.ndarray:
        I2 = np.zeros((self.M, self.M))
        I2[self.rows] = self.cell * self.counts
        return I2

    @property
    def cell(self) -> float:
        return 2 * self.l_half / self.M


def sample_window(iu: IntervalUnion, M: int, l_half) -> np.ndarray:
    """Exact 0/1 sampling of the window on the grid -L + j*(2L/M).

    Each half-open interval [a, b) covers the cells from the first grid point
    >= a up to the first grid point >= b; both are found by bisection with
    exact Q(tau) comparisons.
    """
    check_count("grid size M", M)
    check_real("half-length L", l_half, positive=True)
    L = Fraction(l_half)
    h = 2 * L / M
    cells = range(M)

    def x(j: int) -> QuadNum:
        return QuadNum(-L + j * h, 0)

    f = np.zeros(M, dtype=np.int64)
    for a, b in iu.intervals:
        f[bisect_left(cells, a, key=x):bisect_left(cells, b, key=x)] = 1
    return f


#: least cell width h and greatest period 2L = M h of a deck: I2hat and |F|^3
#: run from about h^3 to (M h)^3, so noise at epsilon h^3 must be a normal float
_DECK_H_MIN = (sys.float_info.min / sys.float_info.epsilon) ** (1 / 3)
_DECK_SPAN_MAX = sys.float_info.max ** (1 / 3)


def deck_functions(f: np.ndarray, M: int, l_half: float) -> DeckGrid:
    """Deck data of a sampled indicator; verifies the grid identities.

    Precondition: the support diameter must stay below l_half/2 so circular
    correlations agree with correlations on the line.
    """
    check_count("grid size M", M)
    check_real("half-length L", l_half, positive=True)
    f = np.asarray(f)
    if f.shape != (M,):
        raise ParameterError(f"indicator must have shape ({M},)")
    if not np.isin(f, (0, 1)).all():
        raise ParameterError("indicator must be 0/1 valued")
    check_budget(M * M, MAX_DECK_CELLS, "use a smaller grid")
    h = 2 * float(l_half) / M   # = DeckGrid.cell, also for a Fraction l_half
    if not (h >= _DECK_H_MIN and M * h <= _DECK_SPAN_MAX):
        raise ParameterError(f"cell width 2L/M = {h:.3g} puts the deck transforms out of float "
                             f"range: need 2L/M >= {_DECK_H_MIN:.3g}, 2L <= {_DECK_SPAN_MAX:.3g}")
    support = np.nonzero(f)[0]
    if len(support) == 0:
        raise ParameterError("empty indicator")
    # support extent = minimal covering arc on the circle
    if len(support) == M:
        diam = 2 * l_half
    else:
        gaps = np.diff(np.append(support, support[0] + M))
        diam = (M - gaps.max()) * h
    if not diam < l_half / 2:
        raise ParameterError(
            f"support diameter {diam} must stay below l_half/2 = {l_half / 2} "
            "(anti-wraparound condition)")

    fb = f.astype(float)
    Ff = np.fft.fft(fb)
    n1 = np.rint(np.fft.ifft(Ff * np.conj(Ff)).real).astype(np.int64)
    # I2 row j1 counts f * roll(f, j1) correlated with f; that product
    # vanishes unless the shift j1 keeps an overlap, i.e. n1[j1] > 0
    rows = np.nonzero(n1)[0]
    shifted = wrapped_rows(fb)   # [i] = roll(fb, M - i)
    cRf = np.conj(np.fft.rfft(fb))
    counts = np.empty((len(rows), M), dtype=np.int32)
    # the 2-D transform of I2 axis by axis, as fft2 does: rows first, each
    # row transform stored as a column of T, then the column transforms as
    # contiguous rows of T in place; I2hat = T.T.  The zero rows of I2 stay
    # zero columns of T.
    T = np.zeros((M, M), dtype=complex)
    # one workspace for every block, the first (largest) one's size; blocks
    # allocated anew would each cost page faults once they pass the
    # allocator's mmap threshold
    step = next(row_blocks(len(rows), M)).stop
    g = np.empty((step, M))
    G = np.empty((step, M // 2 + 1), dtype=complex)
    R = np.empty((step, M), dtype=complex)
    for block in row_blocks(len(rows), M):
        r = rows[block]
        n = len(r)
        gb, Gb = g[:n], G[:n]
        np.multiply(fb, shifted[M - r], out=gb)
        np.fft.rfft(gb, axis=1, out=Gb)
        Gb *= cRf
        np.fft.irfft(Gb, n=M, axis=1, out=gb)
        counts[block] = np.rint(gb, out=gb)
        # through the integer counts, so an empty cell is +0.0, never rint's -0.0
        np.multiply(counts[block], h, out=gb)
        T[:, r] = np.fft.fft(gb, axis=1, out=R[:n]).T
    np.fft.fft(T, axis=1, out=T)
    T *= h * h
    I1 = h * n1
    I1hat = h * np.fft.fft(I1)

    deck = DeckGrid(M, float(l_half), f.astype(np.int64), I1, rows, counts, I1hat, T.T)
    _verify_deck(deck, h * Ff)
    return deck


#: cells per row block in the M x M deck and phase computations
BLOCK_CELLS = 1 << 15


def row_blocks(n: int, width: int):
    """Slices cutting range(n) into blocks of about BLOCK_CELLS / width rows."""
    step = max(1, BLOCK_CELLS // width)
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def wrapped_rows(v: np.ndarray) -> np.ndarray:
    """Read-only view W with W[k1, k2] = v[(k1 + k2) % M] for k1, k2 < M."""
    return sliding_window_view(np.concatenate((v, v)), len(v))


def _verify_deck(deck: DeckGrid, F: np.ndarray) -> None:
    """Full-grid check I2hat[k1, k2] = conj(F[k1]) conj(F[k2]) F[k1 + k2] to 1e-8.

    ``F``, the scaled DFT of the indicator, is ground truth that only this check reads.
    """
    M = deck.M
    n1 = np.rint(deck.I1 / deck.cell).astype(np.int64)
    if not np.array_equal(n1, n1[(-np.arange(M)) % M]):
        raise AssertionError("I1 lost its reflection symmetry")
    if deck.I1hat.real.min() < -1e-10 * max(1.0, deck.I1hat.real.max()):
        raise AssertionError("I1hat is significantly negative")
    cF = np.conj(F)
    Fsum = wrapped_rows(F)
    # rows of I2hat.T (contiguous for the deck's own I2hat): row k2 holds
    # I2hat[:, k2], checked against cF[k1] cF[k2] F[k1 + k2] for every k1
    I2hatT = deck.I2hat.T
    step = next(row_blocks(M, M)).stop
    pred = np.empty((step, M), dtype=complex)
    mag = np.empty((step, M))
    scale = err = 0.0
    for r in row_blocks(M, M):
        I2hat, p, a = I2hatT[r], pred[:r.stop - r.start], mag[:r.stop - r.start]
        scale = max(scale, np.abs(I2hat, out=a).max())
        np.multiply(cF[None, :], cF[r, None], out=p)
        p *= Fsum[r]
        np.subtract(I2hat, p, out=p)
        err = max(err, np.abs(p, out=a).max())
    if scale > 0 and err > 1e-8 * scale:
        raise AssertionError("I2hat does not factor through the indicator transform")


# ---------------------------------------------------------------------------
# deck tables over a finite internal group (for the discrete counterexamples)
# ---------------------------------------------------------------------------

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
