"""Pattern frequencies and k-point correlation measures.

Two routes are provided for every frequency: the exact route intersects the
window with its star-translates (pure window geometry, no point set needed),
and the empirical route counts occurrences in a generated patch averaged over
a centred interval.  Their agreement is one of the package's acceptance
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import (MAX_DIFFERENCE_CANDIDATES, MAX_ENTRIES, ParameterError, check_budget,
                     check_real)
from .pointsets import FLOAT_FORMAT, PointSet, _atomic_write
from .schemes import (COORD_LIMIT, PERIODIC, QuadLatticePoint, Scheme, Window, _coord_guard,
                      _float_hull, _physical, _quad_candidates, _quad_mask, star, window_factors,
                      window_intersect, window_measure)


def _pair_cut(scheme: Scheme, w: Window, x) -> Window:
    """W cut (W - x*), the window of {0, x}; a pattern's window intersects these."""
    return window_intersect(w, w.translate(star(scheme, -x)))


def freq_exact(scheme: Scheme, w: Window, pattern: Sequence) -> float:
    """Frequency of {0, x1, ..., xn}: measure of W cut with each W - xi* (in any order)."""
    cut = w
    for x in pattern:
        cut = window_intersect(cut, w.translate(star(scheme, -x)))
    return window_measure(scheme, cut)


def _lattice_coords(scheme: Scheme, pts) -> list[np.ndarray]:
    """Lattice points given as objects (plain ints for periodic:N), each as an int64 column."""
    kind = int if scheme.kind == PERIODIC else QuadLatticePoint
    if not all(isinstance(x, kind) for x in pts):
        raise ParameterError(f"{scheme.label()} pattern points must be of type {kind.__name__}")
    cols = [(x,) if kind is int else (x.u, x.v) for x in pts]
    if any(not -COORD_LIMIT < c < COORD_LIMIT for col in cols for c in col):
        raise ParameterError("lattice coordinates must stay below 2^62 in magnitude")
    return [np.array(col, dtype=np.int64).reshape(-1, 1) for col in cols]


def freq_empirical(ps: PointSet, pattern: Sequence, R: float) -> float:
    """Occurrences per unit length over the centred open interval (-R/2, R/2), decided exactly.

    The patch must cover that interval inflated by the pattern's extent, so
    membership of every translated point is decided by the patch alone.  The
    points counted are one slice of the sorted patch, so y + x is in the patch
    exactly when its coordinates equal those of the point some index shift d
    further on: int64 equality of whole slices decides, one shift at a time.
    Float distances only bound the scan.  Each point's distance grows with d,
    so the scan stops upward at the first shift where every distance exceeds
    the length of x by more than the float error of both positions and of that
    length, and downward at the first where every distance falls short of it
    by as much.
    """
    check_real("averaging radius R", R, positive=True)
    offs = _lattice_coords(ps.scheme, pattern)
    ph = [0.0] + [float(_physical(off)[0]) for off in offs]
    lo_need = -R / 2 + min(ph)
    hi_need = R / 2 + max(ph)
    lo, hi = ps.region
    if lo > lo_need or hi < hi_need:
        raise ParameterError(
            f"patch region [{lo}, {hi}] too small; need at least [{lo_need}, {hi_need}]")

    # points y in (-R/2, R/2) with every y + x in the patch; floats decide beyond the guard band
    h, g, phys, coords = R / 2, ps._guard, ps.physical(), ps.coords
    first, top = np.searchsorted(phys, (-h - g, h - g))
    bottom, end = np.searchsorted(phys, (-h + g, h + g), "right")
    if first == end:
        return 0.0
    keep, band = np.ones(end - first, dtype=bool), [*range(first, bottom), *range(top, end)]
    if band:  # ``_quad_mask`` decides the band; only a point u + 0*tau can sit on an end
        uv = np.pad(coords[:, band], ((0, 2 - len(coords)), (0, 0)))  # n + 0*tau on periodic:N
        keep[np.subtract(band, first)] = _quad_mask(None, uv, (-h, h)) & \
            [v != 0 or abs(u) != h for u, v in uv.T.tolist()]
    n = len(ps)
    for off, x in zip(offs, ph[1:]):
        want, hit = coords[:, first:end] + off, np.zeros(end - first, dtype=bool)
        slack = 2 * g + _coord_guard(off)  # the float error of both positions and of x
        d0 = int(np.searchsorted(phys, phys[first] + x)) - first
        for d, step in ((d0, 1), (d0 - 1, -1)):
            while True:  # the counted points i in [a, b) whose partner index i + d exists
                a, b = max(first, -d), min(end, n - d)
                if a >= b:
                    break
                dist = phys[a + d:b + d] - phys[a:b]
                if (dist.min() > x + slack) if step > 0 else (dist.max() < x - slack):
                    break
                hit[a - first:b - first] |= \
                    (coords[:, a + d:b + d] == want[:, a - first:b - first]).all(axis=0)
                d += step
        keep &= hit
    return np.count_nonzero(keep) / R


@dataclass(frozen=True)
class CorrelationMeasure:
    """Sparse (n+1)-point correlation: difference tuples -> frequencies.

    ``order`` is n+1; keys are n-tuples of lattice differences with physical
    length at most ``cutoff``; only strictly positive frequencies are stored.
    """

    scheme: Scheme
    order: int
    cutoff: float
    entries: dict

    def support(self) -> list:
        return sorted(self.entries)

    def entry(self, key: tuple) -> float:
        return self.entries.get(key, 0.0)

    def density(self) -> float:
        zero = 0 if self.scheme.kind == PERIODIC else QuadLatticePoint(0, 0)
        return self.entries.get((zero,) * (self.order - 1), 0.0)

    def to_csv(self, path: str, empirical: Mapping | None = None) -> None:
        """Deterministic CSV: diff columns then frequency at 15 significant digits.

        ``empirical`` maps every key of the support to a patch frequency,
        written in an added ``empirical`` column in the same format.
        """
        n = self.order - 1
        header = [f"diff{i + 1}" for i in range(n)] + ["frequency"]
        if empirical is not None:
            header.append("empirical")
        lines = [",".join(header)]
        text = {x: _coord_text(x) for x in {x for key in self.entries for x in key}}
        for key in self.support():
            cells = [text[x] for x in key] + [f"{self.entries[key]:{FLOAT_FORMAT}}"]
            if empirical is not None:
                cells.append(f"{empirical[key]:{FLOAT_FORMAT}}")
            lines.append(",".join(cells))
        _atomic_write(path, "\n".join(lines) + "\n")


def _coord_text(x) -> str:
    if isinstance(x, QuadLatticePoint):
        return f"{x.u}{'+' if x.v >= 0 else '-'}{abs(x.v)}*tau"
    return str(x)


def support_differences(scheme: Scheme, w: Window, cutoff: float) -> list:
    """Lattice differences x with |phys(x)| <= cutoff and freq({0, x}) > 0.

    Both tests are exact: |phys(x)| <= cutoff is decided by ``_quad_mask``,
    and the pair cut W cut (W - x*) is non-empty.  Without a real factor
    (periodic:N) the cut depends on x mod N only; otherwise the lattice
    enumeration ``_quad_candidates`` visits the whole lattice with star within
    +-(hull width of W), so no positive-frequency difference can be missed (a
    patch-based harvest could miss tuples of arbitrarily small frequency).
    """
    check_real("cutoff", cutoff, 0)
    iu, _ = window_factors(scheme, w)
    if iu is None:
        top = math.floor(cutoff)
        check_budget(2 * top + 1, MAX_DIFFERENCE_CANDIDATES, "candidate differences",
                     "reduce the cutoff")
        # the pair cut depends on x mod N only: one cut per class, taken at
        # its first representative in [-top, top]
        N = scheme.modulus
        firsts = range(-top, min(top, N - 1 - top) + 1)
        positive = {x % N for x in firsts if not _pair_cut(scheme, w, x).is_empty()}
        return [x for x in range(-top, top + 1) if x % N in positive]

    if iu.is_empty():
        return []
    lo, hi = _float_hull(iu)
    cand = _quad_candidates((lo - hi, hi - lo), (-cutoff, cutoff), MAX_DIFFERENCE_CANDIDATES,
                            "reduce the cutoff")
    near = np.compress(_quad_mask(None, cand, (-cutoff, cutoff)), cand, axis=1).tolist()
    out = [x for x in map(QuadLatticePoint, *near) if not _pair_cut(scheme, w, x).is_empty()]
    out.sort(key=lambda p: (p.phys, p.u, p.v))
    return out


def correlation_measure(scheme: Scheme, w: Window, order: int, cutoff: float) -> CorrelationMeasure:
    """All difference tuples within the cutoff carrying positive frequency (decided exactly).

    Keys are the ordered tuples of ``support_differences``.  The window of
    {0, x1, ..., xn} is the intersection of the pair cuts W cut (W - xi*), so
    each difference is translated once.  Equal cuts share one id, and the memo
    is keyed on sets of ids: each set of cuts is measured once and its value
    is shared by every ordered tuple that uses it.
    """
    if order not in (2, 3, 4):
        raise ParameterError("order must be 2, 3 or 4")
    check_real("cutoff", cutoff, 0)
    base = support_differences(scheme, w, cutoff)
    n = order - 1
    check_budget(len(base) ** n, MAX_ENTRIES, "correlation tuples", "reduce the cutoff")
    # equal cuts share one id; W's id 0 (x = 0, or x = 0 mod N) changes no intersection
    ids = {w: 0}
    cut_ids = [ids.setdefault(_pair_cut(scheme, w, x), len(ids)) for x in base]
    cuts, w_id = list(ids), {0}
    freqs = {}
    entries = {}
    for idx, tup in zip(product(cut_ids, repeat=n), product(base, repeat=n)):
        key = frozenset(idx) - w_id
        f = freqs.get(key)
        if f is None:
            cut = reduce(window_intersect, [cuts[i] for i in key] or [w])
            # (non-empty, measure): the float of a cancelling length can read 0
            f = freqs[key] = (not cut.is_empty(), window_measure(scheme, cut))
        if f[0]:
            entries[tup] = f[1]
    return CorrelationMeasure(scheme, order, cutoff, entries)


def _first_difference(t1: Mapping, t2: Mapping, tol: float = 0):
    """(True, None) if two tables agree within tol, an absent key reading 0; else
    (False, (key, value1, value2)) at the first key, in sorted order, where they differ."""
    for key in sorted(t1.keys() | t2.keys()):
        v1, v2 = t1.get(key, 0), t2.get(key, 0)
        if abs(v1 - v2) > tol:
            return False, (key, v1, v2)
    return True, None


def correlations_equal(c1: CorrelationMeasure, c2: CorrelationMeasure, tol: float = 0.0):
    """Support and value comparison as (equal, witness), as in :func:`_first_difference`;
    tol = 0 is allowed for exact rational cases."""
    # keys on Z (periodic:N) and on Z[tau] do not compare
    if (c1.order, c1.cutoff, c1.scheme.kind == PERIODIC) != \
            (c2.order, c2.cutoff, c2.scheme.kind == PERIODIC):
        raise ParameterError("correlation measures differ in order, cutoff or lattice")
    check_real("tol", tol, 0)
    return _first_difference(c1.entries, c2.entries, tol)
