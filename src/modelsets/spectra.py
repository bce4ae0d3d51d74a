"""Dual points, window Fourier transforms, diffraction, and deck grids of real windows.

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
import os
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (MAX_CANDIDATES, MAX_DECK_BYTES, MAX_ENTRIES, MAX_PATTERN_CELLS,
                     ParameterError, check_budget, check_int, check_real)
from .pointsets import FLOAT_FORMAT, _atomic_write
from .schemes import (COMBINED, FIBONACCI, PERIODIC, SQRT5, TAU, TAU_PRIME, IntervalUnion,
                      QuadNum, ResidueSet, Scheme, Window, _cyclic_gaps, _float_slack, _norm,
                      _product, _quad_candidates, _quad_mask, make_scheme, window_factors)


# ---------------------------------------------------------------------------
# dual points
# ---------------------------------------------------------------------------

def _golden_numerators(m, n, b, N):
    """(pk, pkappa, q): k = (pk + q*tau)/(5N) and kappa = (pkappa - q*tau)/(5N).

    The unreduced numerators of the golden-ratio dual point (m, n, b) mod N,
    from k*sqrt5 = m + n*tau + beta*tau' and kappa*sqrt5 = -(m + n*tau' +
    beta*tau), beta = b/N, with sqrt5 = 2*tau - 1 and tau' = 1 - tau.  Takes
    ints or int64 arrays.
    """
    return (2 * n - m) * N - 3 * b, (m + 3 * n) * N - 2 * b, (2 * m + n) * N + b


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
        pk, _, q = _golden_numerators(m, n, b, N)
        return _norm(pk, q, 5 * N)

    def _kappa(self) -> QuadNum:
        """Real internal component: kappa*sqrt5 = -(m + n*tau' + beta*tau)."""
        m, n, b, N = self._golden()
        _, pkappa, q = _golden_numerators(m, n, b, N)
        return _norm(pkappa, -q, 5 * N)

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

def window_ft(scheme: Scheme, w: Window, kstar):
    """Transform of the window indicator at an internal frequency.

    Closed forms: an interval [a, b) contributes
    (exp(-2 pi i k b) - exp(-2 pi i k a)) / (-2 pi i k sqrt5) with the k = 0
    limit (b - a)/sqrt5; a residue set contributes sum exp(-2 pi i a b/N)/N;
    the transform is the product over the window's factors.

    On an interval-union window ``kstar`` may also be a float array of
    kappas.  The result is then a complex array equal, entry by entry and bit
    for bit, to the scalar result at the same float kappa.
    """
    iu, rs = window_factors(scheme, w)
    if isinstance(kstar, np.ndarray):
        if rs is not None:
            raise ParameterError("an array of frequencies needs an interval-union window")
        return _interval_cols(iu, kstar)
    # a frequency has the window's factors: a pair on combined:N, else the one
    kappa, b = kstar if iu is not None and rs is not None else (kstar, kstar)
    return _product(None if iu is None else _interval_ft(iu, kappa),
                    None if rs is None else _residue_ft(rs, int(b)))


def _interval_ft(iu: IntervalUnion, kappa) -> complex:
    kf = float(kappa)
    if kf == 0.0:  # the k = 0 limit, also for a nonzero kappa that floats to zero
        return complex(float(iu.length()) / SQRT5)
    total = 0j
    for a, b in iu.intervals:
        ea = cmath.exp(-2j * math.pi * kf * float(a))
        eb = cmath.exp(-2j * math.pi * kf * float(b))
        total += (eb - ea) / (-2j * math.pi * kf * SQRT5)
    return total


def _residue_ft(rs: ResidueSet, b: int) -> complex:
    N = rs.modulus
    return sum(cmath.exp(-2j * math.pi * a * b / N) for a in rs.elems) / N


def _interval_cols(iu: IntervalUnion, kf: np.ndarray) -> np.ndarray:
    """``_interval_ft`` at each float kappa of ``kf``.

    CPython's complex arithmetic written out on float arrays: -2j*pi*x has
    real part +-0 and imaginary part -2pi*x, exp of that is (cos, sin), and
    dividing by (+-0, y) is (re, im) -> (im/y, -re/y).
    """
    zero = kf == 0.0  # masked, not divided by
    y = (-2 * math.pi) * np.where(zero, 1.0, kf)
    dim = y * SQRT5
    z = np.zeros(len(kf), complex)
    for a, b in iu.intervals:
        ya, yb = y * float(a), y * float(b)
        z.real += (np.sin(yb) - np.sin(ya)) / dim
        z.imag -= (np.cos(yb) - np.cos(ya)) / dim
    z[zero] = float(iu.length()) / SQRT5
    return z


#: (width, height) of the stick plot in SVG user units
SVG_SIZE = (640, 320)

#: CSV column names of a spectrum's labels, by scheme kind
_LABEL_NAMES = {FIBONACCI: ["m", "n"], PERIODIC: ["b"], COMBINED: ["m", "n", "b"]}


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Pure-point diffraction: dual-point labels, positions and intensities.

    ``labels`` (one int64 row per peak: ``(m, n)``, ``(j,)`` or ``(m, n, b)``),
    ``k`` and ``intensity`` are read-only arrays, ordered by (|k|, labels) on
    construction.  ``peaks``, the (DualPoint, intensity) pairs, is built on
    request.
    """

    scheme: Scheme
    labels: np.ndarray
    k: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        labels, k, inten = map(np.asarray, (self.labels, self.k, self.intensity))
        d = len(_LABEL_NAMES[self.scheme.kind])
        if (labels.dtype.kind not in "iu" or labels.ndim != 2 or labels.shape[1] != d
                or k.dtype.kind not in "iuf" or inten.dtype.kind not in "iuf"
                or k.shape != (len(labels),) or inten.shape != k.shape):
            raise ParameterError(
                f"a {self.scheme.label()} spectrum needs n x {d} int labels and n real k "
                f"and intensities, got {labels.dtype} {labels.shape}, {k.dtype} {k.shape} "
                f"and {inten.dtype} {inten.shape}")
        order = np.lexsort((*labels.T[::-1], np.abs(k)))
        for name, a, dtype in (("labels", labels, np.int64), ("k", k, float),
                               ("intensity", inten, float)):
            a = np.asarray(a, dtype=dtype)[order]  # a private copy
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self):
        return len(self.k)

    @cached_property
    def peaks(self) -> tuple:
        """((DualPoint, intensity), ...) in the order of the arrays."""
        return tuple((DualPoint(self.scheme, tuple(lab)), inten)
                     for lab, inten in zip(self.labels.tolist(), self.intensity.tolist()))

    def intensity_at(self, *labels: int) -> float:
        if len(labels) == self.labels.shape[1]:
            hit = np.flatnonzero((self.labels == labels).all(axis=1))
            if len(hit):
                return float(self.intensity[hit[0]])
        return 0.0

    def to_csv(self, path: str) -> None:
        header = ",".join(_LABEL_NAMES[self.scheme.kind] + ["k", "intensity"])
        row = ",".join(["{}"] * self.labels.shape[1] + ["{:" + FLOAT_FORMAT + "}"] * 2)
        rows = map(row.format, *self.labels.T.tolist(), self.k.tolist(),
                   self.intensity.tolist())
        _atomic_write(path, "\n".join([header, *rows]) + "\n")

    def to_svg(self, path: str) -> None:
        """Stick plot: one vertical line per peak, height proportional to intensity."""
        if not len(self):
            raise ParameterError("empty spectrum")
        width, height = SVG_SIZE
        ks, hs = self.k.tolist(), self.intensity.tolist()
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
            for j, k in zip(self.labels[:, 0].tolist(), ks):
                xx = f"{x(k):.2f}"
                parts.append(f'<line x1="{xx}" y1="{mtop + ph}" x2="{xx}" '
                             f'y2="{mtop + ph + 4}" stroke="black" stroke-width="1"/>')
                parts.append(f'<text x="{xx}" y="{mtop + ph + 16}" font-size="9" '
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
        for k, inten in zip(ks, hs):
            xx = f"{x(k):.2f}"
            parts.append(f'<line x1="{xx}" y1="{mtop + ph}" x2="{xx}" '
                         f'y2="{y(inten):.2f}" stroke="black" stroke-width="1.5"/>')
        parts.append("</svg>")
        _atomic_write(path, "\n".join(parts) + "\n")


def diffraction(scheme: Scheme, w: Window, kmax: float, min_intensity: float = 1e-4,
                include_zeros: bool = False) -> Spectrum:
    """All dual points with |k| <= kmax, decided exactly, and intensity |window_ft(-k*)|^2.

    Peaks below ``min_intensity`` are omitted unless ``include_zeros`` is set
    (then everything enumerated appears); the schemes with a real internal
    component need a positive one, as their dual module is dense in R.
    The bound on the internal frequency follows from
    |FT| <= n_intervals / (pi sqrt5 |kappa|).  Those golden-ratio schemes
    share one pass over the residues b of the dual labels: fibonacci has no
    residue factor and is the single pass b = 0, labelled (m, n); on
    combined:N the residue factor's transform is shared by every label with
    the same b, and a b whose factor caps the intensity below
    ``min_intensity`` is skipped.  Each such pass is one array computation,
    bit for bit the scalar ``window_ft`` of each label; periodic:N takes it
    once per class j mod N present.  Before any label is built, the labels to
    visit (every j, or N boxes of ``_golden_dual_labels``) are held to ``MAX_ENTRIES``.
    """
    check_real("kmax", kmax, 0)
    check_real("min_intensity", min_intensity)
    iu, rs = window_factors(scheme, w)
    d = len(_LABEL_NAMES[scheme.kind])
    passes = [(np.empty((0, d), np.int64), np.empty(0), np.empty(0))]

    def add(labels, k, inten):
        keep = slice(None) if include_zeros else inten >= min_intensity
        passes.append((labels[keep], k[keep], inten[keep]))

    if iu is None:
        N = rs.modulus
        check_budget(2 * kmax * N + 1, MAX_ENTRIES, "dual labels", "reduce kmax")
        top = math.floor(Fraction(kmax) * N)  # |j| <= kmax * N, in integers
        js = np.arange(-top, top + 1)
        bs, b_of_j = np.unique(js % N, return_inverse=True)
        # k rounds correctly, as float(Fraction(j, N)) does: below 2**53 both j and N
        # are exact floats and one float division is CPython's int / int; from 2**53
        # on, int / int still rounds correctly where a float N would not
        k = js / N if N < 2 ** 53 else np.array([j / N for j in js.tolist()], float)
        add(js[:, None], k,
            np.array([abs(window_ft(scheme, w, b)) ** 2 for b in bs.tolist()], float)[b_of_j])
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
                     "dual labels", "reduce kmax or raise min_intensity")
        for b in range(N):
            if rs is not None:
                rft = _residue_ft(rs, (-b) % N)
                cap = (abs(rft) * float(iu.length()) / SQRT5) ** 2
                if not include_zeros and cap < min_intensity:
                    continue
            m, n = _golden_dual_labels(kmax, kappa_bound, b, N)
            # k and -kappa as DualPoint's QuadNums; under the budget the unreduced ints
            # stay below 2**53, so each division rounds as the reduced one does
            pk, pkappa, q = _golden_numerators(m, n, b, N)
            qtau = q / (5 * N) * TAU
            k = pk / (5 * N) + qtau
            z = window_ft(fib, iu, -pkappa / (5 * N) + qtau)
            if rs is not None:  # z * rft in CPython's order; numpy's complex product fuses it
                z.real, z.imag = (z.real * rft.real - z.imag * rft.imag,
                                  z.real * rft.imag + z.imag * rft.real)
            # abs(z) ** 2 as CPython computes it: libm hypot, then libm pow(x, 2.0), not x * x
            inten = np.fromiter(map(pow, np.hypot(z.real, z.imag).tolist(), repeat(2.0)),
                                float, len(k))
            add(np.stack((m, n, np.full_like(m, b))[:d], axis=1), k, inten)
    return Spectrum(scheme, *map(np.concatenate, zip(*passes)))


def _golden_dual_labels(kmax: float, kappa_bound: float, b: int, N: int) -> np.ndarray:
    """Rows (m, n) of the dual labels with |k| <= kmax and |kappa| <= kappa_bound, exactly.

    k sqrt5 = m + n tau + (b/N) tau' and kappa sqrt5 = -(m + n tau' + (b/N) tau),
    so (m, n) is a lattice point of the box that ``_quad_candidates``
    enumerates; fibonacci is the case b = 0.  The lattice point (U, V) =
    (N m + b, N n - b) has U + V tau = N sqrt5 k and U + V tau' = -N sqrt5 kappa,
    and sqrt5 = 2 tau - 1, so ``_quad_mask`` decides both bounds on it exactly.
    """
    P, Q = (_norm(-N * x.numerator, 2 * N * x.numerator, x.denominator)  # N sqrt5 x
            for x in map(Fraction, (kmax, kappa_bound)))
    Pf, Qf = ((float(x) + _float_slack(x)) / N for x in (P, Q))  # the slack's margin covers / N
    beta = b / N
    cand = _quad_candidates((-Qf - beta * TAU, Qf - beta * TAU),
                            (-Pf - beta * TAU_PRIME, Pf - beta * TAU_PRIME),
                            MAX_CANDIDATES, "reduce kmax or raise min_intensity")
    uv = cand * N + [[b], [-b]]
    return np.compress(_quad_mask((-Q, Q), uv, (-P, P)), cand, axis=1)


# ---------------------------------------------------------------------------
# finite-group zero condition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, exactly."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(d))
            if any(rem):
                raise AssertionError("non-exact polynomial division")
    return tuple(poly)


def _poly_divmod(num, den) -> tuple[list, list]:
    """(quotient, remainder) of ``num`` by a monic integer ``den``; coefficients ascending."""
    rem = list(num)
    quot = [0] * (len(rem) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = coef = rem[i + len(den) - 1]
        for j, d in enumerate(den):
            rem[i + j] -= coef * d
    return quot, rem[:len(den) - 1]


def _root_sum_is_zero(exponent_counts: Mapping[int, int], n: int) -> bool:
    """Exact test of sum_j c_j zeta^j = 0 for zeta = exp(2 pi i / n)."""
    poly = [0] * n
    for e, c in exponent_counts.items():
        poly[e % n] += c
    return not any(_poly_divmod(poly, _cyclotomic(n))[1])


def zero_condition(N: int, windows: Mapping[int, IntervalUnion], b: int) -> bool:
    """Whether sum over a of conj(chi_a(b)) * indicator(W_a) vanishes identically.

    Exact: the real line is cut at every window endpoint and on each piece the
    coefficient sum (an integer combination of N-th roots of unity) is tested
    for exact vanishing against the cyclotomic polynomial.
    """
    if N < 1:
        raise ParameterError("modulus must be positive")
    check_budget(N * N, MAX_PATTERN_CELLS, "cyclotomic steps", "use a smaller modulus")
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
    and ``I2[j1, j2]`` the measure of the triple cut, both exact integer cell
    counts times the cell width; their transforms ``I1hat`` and ``I2hat`` are
    all that the reconstruction stage may see.  I2 is held once, as the DFTs
    ``row_hat[i]`` (the first axis of fft2) of its rows ``rows[i]``, the shifts
    j1 with I1[j1] > 0; its other rows are zero.  Since I2 is real, each DFT
    is Hermitian, and ``row_hat`` keeps only its columns 0..M/2.  ``I2``
    rounds them back to whole cell counts on each read; each read of I2hat
    forms and checks the columns 0..M/2 in blocks, against the indicator
    transform ``_F`` that only that check reads, and reads a column M - j as
    conj I2hat[-k1, j].  ``_F`` is bitwise Hermitian, so such a cell's
    residual equals its partner's and needs no check.  :func:`_split_pass`
    shares the blocks across the usable cores; a read writes into none of the
    deck's arrays, so any number of threads may read one deck.
    ``deck_functions`` makes every array read-only.
    """

    M: int
    l_half: float
    I1: np.ndarray
    rows: np.ndarray
    I1hat: np.ndarray
    row_hat: np.ndarray
    _F: np.ndarray

    @property
    def I2(self) -> np.ndarray:
        h = self.cell
        I2 = np.zeros((self.M, self.M))
        # + 0.0: an empty cell is +0.0, never rint's -0.0
        I2[self.rows] = h * (np.rint(np.fft.irfft(self.row_hat, n=self.M, axis=1) / h) + 0.0)
        return I2

    @property
    def I2hat(self) -> np.ndarray:
        """h^2 fft2(I2), read-only; each formed block also fills its mirrored columns."""
        M = self.M
        T = np.empty((M, M), dtype=complex)

        def read(c, block):
            T[c] = block
            # the columns j of c with 0 < j < M - j, mirrored into M - j
            lo, hi = max(c.start, 1), min(c.stop, (M + 1) // 2)
            src, dst = block[lo - c.start:hi - c.start], T[M - lo:M - hi:-1]
            np.conjugate(src[:, :1], out=dst[:, :1])
            np.conjugate(src[:, :0:-1], out=dst[:, 1:])

        self._column_pass(read)
        T.flags.writeable = False
        return T.T

    def I2hat_at(self, k1, k2) -> np.ndarray:
        """I2hat[k1, k2] at ints or index arrays, read in one pass over the checked blocks."""
        M = self.M
        k1, k2 = np.broadcast_arrays(np.asarray(k1) % M, np.asarray(k2) % M)
        flip = k2 > M // 2   # I2hat[k1, k2] = conj I2hat[-k1, M - k2]
        k1, k2 = np.where(flip, -k1 % M, k1), np.where(flip, M - k2, k2)
        out = np.empty(k1.shape, dtype=complex)

        def read(c, block):
            sel = (k2 >= c.start) & (k2 < c.stop)
            out[sel] = block[k2[sel] - c.start, k1[sel]]

        self._column_pass(read)
        return np.conjugate(out, out=out, where=flip)

    @property
    def cell(self) -> float:
        return 2 * self.l_half / self.M

    def _column_pass(self, read) -> None:
        """Call ``read(c, B)``, B[i, k1] = I2hat[k1, c.start + i], once for each column
        slice c of a block, which together cover the columns 0..M/2 once.

        Each block scatters the row transforms of its columns at ``rows`` and
        transforms along k1, as fft2's second axis does, into its worker's
        workspace B, which that worker's next block overwrites.  Each block is
        checked (:func:`_factor_residual`) before ``read`` sees it; the
        verdict, the largest residual against |F[0]|^3 = I2hat[0, 0], the
        largest |I2hat| since I2 >= 0, comes after the last block.
        """
        M, h = self.M, self.cell
        cF = np.conj(self._F)
        Fsum = wrapped_rows(self._F)
        inv_scale = 1 / abs(self._F[0]) ** 3

        def alloc(step):
            # z: the columns off ``rows`` are never written, so they stay zero
            return np.zeros((step, M), dtype=complex), *np.empty((2, step, M), dtype=complex)

        def work(c, z, B, p):
            n = c.stop - c.start
            z[:n, self.rows] = self.row_hat[:, c].T
            block = np.fft.fft(z[:n], axis=1, out=B[:n])
            block *= h * h
            err = _factor_residual(block, c, cF, Fsum, inv_scale, p)
            read(c, block)
            return err

        if max(_split_pass(M // 2 + 1, M, alloc, work)) > 1e-8 ** 2:
            raise AssertionError("I2hat does not factor through the indicator transform")


def sample_window(iu: IntervalUnion, M: int, l_half) -> np.ndarray:
    """Exact 0/1 sampling of the window on the grid -L + j*(2L/M).

    Each half-open interval [a, b) covers the cells from the first grid point
    >= a up to the first grid point >= b; both are found by bisection with
    exact Q(tau) comparisons.
    """
    check_int("grid size M", M, 1)
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
    correlations agree with correlations on the line.  The row pass forms
    ``row_hat`` in row blocks of :func:`_split_pass`, each row of I2 by one
    real FFT correlation and its transform by one FFT.
    """
    check_int("grid size M", M, 1)
    check_real("half-length L", l_half, positive=True)
    f = np.asarray(f)
    if f.shape != (M,):
        raise ParameterError(f"indicator must have shape ({M},)")
    if not np.isin(f, (0, 1)).all():
        raise ParameterError("indicator must be 0/1 valued")
    check_budget(_deck_bytes(M), MAX_DECK_BYTES, "deck bytes", "use a smaller grid")
    h = 2 * float(l_half) / M   # = DeckGrid.cell, also for a Fraction l_half
    if not (h >= _DECK_H_MIN and M * h <= _DECK_SPAN_MAX):
        raise ParameterError(f"cell width 2L/M = {h:.3g} puts the deck transforms out of float "
                             f"range: need 2L/M >= {_DECK_H_MIN:.3g}, 2L <= {_DECK_SPAN_MAX:.3g}")
    support = np.nonzero(f)[0]
    if len(support) == 0:
        raise ParameterError("empty indicator")
    # cells of the minimal covering arc: its diameter extent * 2L/M < L/2 iff 4 * extent < M
    extent = M if len(support) == M else M - max(_cyclic_gaps(support.tolist(), M))
    if not 4 * extent < M:
        raise ParameterError(
            f"support diameter {float(2 * Fraction(l_half) * extent / M)} must stay below "
            f"l_half/2 = {l_half / 2} (anti-wraparound condition)")

    fb = f.astype(float)
    Rf = np.fft.rfft(fb)
    n1 = np.rint(np.fft.irfft(Rf * np.conj(Rf), n=M)).astype(np.int64)
    if not np.array_equal(n1, n1[(-np.arange(M)) % M]):
        raise AssertionError("I1 lost its reflection symmetry")
    # I2 row j1 counts f * roll(f, j1) correlated with f; that product
    # vanishes unless the shift j1 keeps an overlap, i.e. n1[j1] > 0
    rows = np.nonzero(n1)[0]
    shifted = wrapped_rows(fb)   # [i] = roll(fb, M - i)
    cRf = np.conj(Rf)
    # the first axis of fft2 over the nonzero rows of I2, columns 0..M/2 (the
    # rest are their conjugates); the deck forms the second, along the
    # columns, block by block on each read of I2hat
    row_hat = np.empty((len(rows), M // 2 + 1), dtype=complex)

    def alloc(step):
        # one workspace for every block of a worker, the first (largest) one's
        # size; blocks allocated anew would each cost page faults once they
        # pass the allocator's mmap threshold
        return (np.empty((step, M)), np.empty((step, M // 2 + 1), dtype=complex),
                np.empty((step, M), dtype=complex))

    def work(block, g, G, T):
        r = rows[block]
        g, G, T = g[:len(r)], G[:len(r)], T[:len(r)]
        np.multiply(fb, shifted[M - r], out=g)
        np.fft.rfft(g, axis=1, out=G)
        G *= cRf
        np.fft.irfft(G, n=M, axis=1, out=g)
        np.rint(g, out=g)   # the cell counts of these rows of I2
        g += 0.0            # an empty cell is +0.0, never rint's -0.0
        g *= h
        # the full fft, then its half: rfft's half differs from it in the last bits
        np.fft.fft(g, axis=1, out=T)
        row_hat[block] = T[:, :M // 2 + 1]

    _split_pass(len(rows), M, alloc, work)
    I1 = h * n1
    I1hat = h * np.fft.fft(I1)
    if I1hat.real.min() < -1e-10 * max(1.0, I1hat.real.max()):
        raise AssertionError("I1hat is significantly negative")
    # F[M - k] = conj F[k] by copy: a mirrored cell's check residual is its partner's
    F = np.empty(M, dtype=complex)
    F[:M // 2 + 1] = h * Rf
    F[M // 2 + 1:] = np.conj(F[1:(M + 1) // 2][::-1])
    for a in (I1, rows, I1hat, row_hat, F):
        a.flags.writeable = False
    return DeckGrid(M, float(l_half), I1, rows, I1hat, row_hat, F)


#: cells per row block in the M x M deck and phase computations
BLOCK_CELLS = 1 << 15


def _deck_bytes(M: int) -> int:
    """Bytes of a deck on M cells at most, ``row_hat`` and the workspaces of a
    pass, from M and the usable cores, so before anything is allocated.

    The anti-wraparound rule keeps the nonzero rows of I2 below M/2, so
    ``row_hat`` holds at most (M/2)(M/2 + 1) complex cells.  The column pass
    holds three complex workspaces per worker of ``step`` rows of M cells, at
    least one row each (see :func:`_split_pass`); the row pass holds less.
    """
    return 16 * (M // 2) * (M // 2 + 1) + 3 * 16 * max(BLOCK_CELLS, M * _usable_cores())


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _split_pass(n: int, width: int, alloc, work) -> list:
    """Cut range(n) into row blocks and run them on one worker per usable core.

    With ``cores`` usable cores a block holds ``step`` = BLOCK_CELLS //
    (width * cores) rows, at least one, so the cells in flight stay at about
    BLOCK_CELLS.  ``alloc(min(step, n))`` is called here, in the calling
    thread, once for each worker, and returns that worker's workspaces;
    ``work(block, *workspaces)`` is called once for each block, a slice of
    range(n), by the worker that takes it (the next block no worker has
    taken).  The calling thread is one worker; the others are threads started
    and joined here, none for one usable core or one block.  Returns the
    values of ``work``, one per block, in no fixed order; the first exception
    raised in any worker is raised here once all have ended, and no worker
    takes a block after it.
    """
    cores = _usable_cores()
    step = max(1, BLOCK_CELLS // (width * cores))
    blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    todo, lock = iter(blocks), threading.Lock()
    results, errors = [], []

    def run(workspaces):
        try:
            while True:
                with lock:   # after an exception, no worker takes another block
                    c = None if errors else next(todo, None)
                if c is None:
                    return
                results.append(work(c, *workspaces))
        except BaseException as e:
            errors.append(e)

    spaces = [alloc(min(step, n)) for _ in range(max(1, min(cores, len(blocks))))]
    threads = [threading.Thread(target=run, args=(ws,)) for ws in spaces[1:]]
    for t in threads:
        t.start()
    run(spaces[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def wrapped_rows(v: np.ndarray) -> np.ndarray:
    """Read-only view W with W[k1, k2] = v[(k1 + k2) % M] for k1, k2 < M."""
    return sliding_window_view(np.concatenate((v, v)), len(v))


def _factor_residual(block, c, cF, Fsum, inv_scale, p) -> float:
    """max |I2hat - conj(F[k1]) conj(F[k2]) F[k1 + k2]|^2 * inv_scale^2 over a column block.

    ``block`` holds the columns ``c`` of I2hat as rows (see
    ``DeckGrid._column_pass``); ``p`` is a complex workspace at least as
    large.  The squared moduli are formed in place in ``p``, on the residual
    scaled by ``inv_scale`` first, so that no square leaves the float range.
    """
    p = p[:len(block)]
    np.multiply(cF[None, :], cF[c, None], out=p)
    p *= Fsum[c]
    np.subtract(block, p, out=p)
    q = p.view(float)   # (re, im) pairs
    q *= inv_scale
    np.square(q, out=q)
    q[:, 0::2] += q[:, 1::2]
    return float(q.max())   # each im^2 is at most its re^2 + im^2
