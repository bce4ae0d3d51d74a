"""Pattern frequencies and k-point correlation measures.

Two routes are provided for every frequency: the exact route intersects the
window with its star-translates (pure window geometry, no point set needed),
and the empirical route counts occurrences in a generated patch averaged over
a centred interval.  Their agreement is one of the package's acceptance
checks.

``freq_exact`` takes one pattern through the window objects and is the oracle
of ``correlation_measure``, which builds a whole table in integer arrays: the
real factor's ends and translates as P + Q*tau over one denominator, cut for
every sorted tuple of differences at once, and the residue factor counted once
per distinct tuple of residue shifts.  A table holds its keys and values as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np

from .errors import (MAX_DIFFERENCE_CANDIDATES, MAX_ENTRIES, ParameterError, check_budget,
                     check_real)
from .pointsets import FLOAT_FORMAT, PointSet, _atomic_write
from .schemes import (COORD_LIMIT, PERIODIC, SQRT5, TAU, QuadLatticePoint, ResidueSet, Scheme,
                      Window, _coord_guard, _float_hull, _physical, _product, _quad_candidates,
                      _quad_mask, _quad_positive, patch_chunks, star, window_factors,
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


@dataclass(frozen=True, eq=False)
class CorrelationMeasure:
    """Sparse (n+1)-point correlation: difference tuples -> frequencies.

    ``order`` is n+1; keys are n-tuples of lattice differences with physical
    length at most ``cutoff``; a key is stored when its window is non-empty.
    The table is a set of read-only arrays with one row per key, in sorted key
    order:

    * ``keys``: int64 of shape (rows, n, 2), the (u, v) of each difference,
      or (rows, n, 1), the difference itself, on periodic:N;
    * ``values``: the float64 frequencies;
    * ``length``: the exact length of the window's real factor, a row (P, Q)
      meaning (P + Q*tau)/``denominator``; int64, or Python ints where they
      could overflow; None on periodic:N;
    * ``count``: the int64 size of the window's residue factor, a count over
      the modulus; None on fibonacci.

    A frequency is length/sqrt5 times count/N, each factor the scheme has,
    rounded as ``window_measure`` rounds it.  ``entries`` is the same table as
    a dict from key tuples (of ``QuadLatticePoint``, or of ints on periodic:N)
    to frequencies, built on first use.  Tables compare with
    :func:`correlations_equal`; ``==`` is identity.
    """

    scheme: Scheme
    order: int
    cutoff: float
    keys: np.ndarray
    values: np.ndarray
    length: np.ndarray | None
    denominator: int
    count: np.ndarray | None

    def __post_init__(self):
        for a in (self.keys, self.values, self.length, self.count):
            if a is not None:
                a.flags.writeable = False

    @cached_property
    def entries(self) -> dict:
        return dict(zip(self.support(), self.values.tolist()))

    def _cells(self, make) -> np.ndarray:
        """(rows, n) objects: ``make`` of each key's differences (``QuadLatticePoint``s, or
        ints on periodic:N), called once per distinct difference."""
        coords, inv = _distinct_rows(self.keys.reshape(-1, self.keys.shape[2]))
        points = coords[:, 0].tolist() if self.scheme.kind == PERIODIC else \
            map(QuadLatticePoint, *coords.T.tolist())
        return np.fromiter(map(make, points), object, len(coords))[inv.reshape(self.keys.shape[:2])]

    def support(self) -> list:
        """The keys as tuples, in sorted order."""
        return list(map(tuple, self._cells(lambda x: x).tolist()))

    def entry(self, key: tuple) -> float:
        if len(key) != self.order - 1:
            raise ParameterError(f"an order-{self.order} correlation key has "
                                 f"{self.order - 1} differences, got {len(key)}")
        return self.entries.get(key, 0.0)

    def density(self) -> float:
        zero = np.flatnonzero(~self.keys.any(axis=(1, 2)))
        return float(self.values[zero[0]]) if len(zero) else 0.0

    def to_csv(self, path: str, empirical: Mapping | None = None) -> None:
        """Deterministic CSV: diff columns then frequency at 15 significant digits.

        ``empirical`` maps every key of the support to a patch frequency,
        written in an added ``empirical`` column in the same format.
        """
        header = [f"diff{i + 1}" for i in range(self.order - 1)] + ["frequency"]
        columns = self._cells(_coord_text).T.tolist()
        columns.append([f"{v:{FLOAT_FORMAT}}" for v in self.values.tolist()])
        if empirical is not None:
            header.append("empirical")
            columns.append([f"{empirical[key]:{FLOAT_FORMAT}}" for key in self.support()])
        lines = [",".join(header), *map(",".join, zip(*columns))]
        _atomic_write(path, "\n".join(lines) + "\n")


def _distinct_rows(rows: np.ndarray):
    """(the distinct rows of an int64 array in lexicographic order, the index of each row
    among them), by one lexsort (``np.unique`` with an axis compares rows far slower)."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(len(rows), np.intp)
    inv[order] = np.cumsum(first) - 1
    return ranked[first], inv


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


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges range(start, start + count), one after another, as one array."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _extend(tuples: np.ndarray, B: int):
    """Each sorted index tuple (a column) extended by every index from its last one to
    B - 1, in lexicographic order: (the number of children of each tuple, the children)."""
    first = tuples[-1] if len(tuples) else np.zeros(tuples.shape[1], np.intp)
    counts = B - first
    return counts, np.vstack([np.repeat(tuples, counts, axis=1), _spans(first, counts)])


def _real_cuts(ends: np.ndarray, shifts: np.ndarray, n: int, top: int):
    """The sorted index tuples (i1 <= ... <= in) whose cut W, W + t_i1, ..., W + t_in is
    non-empty, as columns in lexicographic order, and the exact length of each cut.

    ``ends`` holds W's intervals [a, b) as [a or b][P or Q][interval] and ``shifts``
    the translates as [P or Q][i], every value P + Q*tau over one denominator, with
    each coefficient of a translated end at most ``top`` in size; ``_quad_positive``
    decides each comparison.  A cut is a union of disjoint pieces [max of the a's,
    min of the b's), one for each choice of one interval of W and of each translate.
    The tuples grow one index at a time: every piece of a tuple is cut with each
    interval of the next translate, and only the non-empty pieces, and the tuples
    that keep one, go on.
    """
    B, K = shifts.shape[1], ends.shape[2]
    tuples, owner, lo, hi = np.zeros((0, 1), np.intp), np.zeros(K, np.intp), ends[0], ends[1]
    for _ in range(n):
        counts, children = _extend(tuples, B)
        start, live = np.cumsum(counts) - counts, np.zeros(children.shape[1], bool)
        found = [np.zeros(0, np.intp)], [lo[:, :0]], [hi[:, :0]]  # (child, lo, hi) of pieces
        for block in patch_chunks(len(owner), max(B * K, 1)):
            # each piece of the block, once per child of its tuple and per interval
            reps = counts[owner[block]]
            src = np.repeat(np.arange(block.start, block.stop), reps * K)
            child = np.repeat(_spans(start[owner[block]], reps), K)
            k = np.tile(np.arange(K), len(child) // K)
            t = shifts[:, children[-1, child]]
            l, h, a, b = lo[:, src], hi[:, src], ends[0][:, k] + t, ends[1][:, k] + t
            # a difference of two ends has |p| + |q| <= 4 top
            l = np.where(_quad_positive(l - a, 4 * top), l, a)
            h = np.where(_quad_positive(b - h, 4 * top), h, b)
            keep = _quad_positive(h - l, 4 * top)
            for part, x in zip(found, (child[keep], l[:, keep], h[:, keep])):
                part.append(x)
            live[child[keep]] = True
        tuples = children[:, live]
        owner = (np.cumsum(live) - 1)[np.concatenate(found[0])]
        lo, hi = np.hstack(found[1]), np.hstack(found[2])
    length = np.zeros((2, tuples.shape[1]), lo.dtype)
    np.add.at(length, (slice(None), owner), hi - lo)
    return tuples, length


def _residue_counts(rs: ResidueSet, shifts: np.ndarray) -> np.ndarray:
    """card(S cut (S + r1) cut ... cut (S + rn)) for each row (r1, ..., rn) of residue
    shifts, by membership of e - ri in S for every e in S."""
    N, elems = rs.modulus, np.array(rs.elems, np.int64)
    counts = np.zeros(len(shifts), np.int64)
    for block in patch_chunks(len(shifts), max(len(elems), 1)):
        hit = np.ones((block.stop - block.start, len(elems)), bool)
        for r in shifts[block].T:
            x = (elems - r[:, None]) % N  # in S when the sorted S holds it where it would go
            hit &= elems[np.searchsorted(elems, x) % len(elems)] == x
        counts[block] = hit.sum(axis=1)
    return counts


def correlation_measure(scheme: Scheme, w: Window, order: int, cutoff: float) -> CorrelationMeasure:
    """All difference tuples within the cutoff whose window is non-empty (decided exactly).

    Keys are the ordered tuples of ``support_differences``.  The window of
    {0, x1, ..., xn} is W cut with each translate W - xi*, so each difference
    is translated once, and the window depends only on the set of differences:
    each sorted index tuple is evaluated once, in integer arrays, and its value
    is scattered to every ordering.  The real factor is scaled to integers
    P + Q*tau over the common denominator D of W's endpoints (int64 while its
    comparisons fit, Python ints beyond) and cut by :func:`_real_cuts`; the
    residue factor is counted by :func:`_residue_counts`, once per distinct
    tuple of residue shifts.  The zero tuple's frequency is checked bit for bit
    against ``window_measure`` of W.
    """
    if order not in (2, 3, 4):
        raise ParameterError("order must be 2, 3 or 4")
    check_real("cutoff", cutoff, 0)
    base = support_differences(scheme, w, cutoff)
    n, B = order - 1, len(base)
    check_budget(B ** n, MAX_ENTRIES, "correlation tuples", "reduce the cutoff")
    iu, rs = window_factors(scheme, w)
    coords = np.array([(x,) if iu is None else x for x in base], np.int64)
    coords = coords.reshape(B, 1 if iu is None else 2)
    perm = np.lexsort(coords.T[::-1])  # the order in which sorted() takes the keys
    coords, shifts = coords[perm], [star(scheme, -base[i]) for i in perm]

    tuples, length, D, real = np.zeros((0, 1), np.intp), None, 1, None
    if iu is None:
        for _ in range(n):
            tuples = _extend(tuples, B)[1]
    else:
        quads = [t if rs is None else t[0] for t in shifts]  # lattice points: d = 1
        D = math.lcm(*(e.d for ab in iu.intervals for e in ab))
        ends = np.array([[[e.p * (D // e.d) for e in col], [e.q * (D // e.d) for e in col]]
                         for col in zip(*iu.intervals)], object).reshape(2, 2, -1)
        sh = np.array([[x.p * D for x in quads], [x.q * D for x in quads]], object).reshape(2, B)
        top = max([D, *map(abs, ends.flat)]) + max(map(abs, sh.flat), default=0)
        # int64 while s = 2p + q of a difference of two ends, |s| <= 6 top, squares below
        # 2^63, and the at most (n + 1)K pieces of a cut sum below 2^53
        if top * (n + 1) * ends.shape[2] < 2 ** 28:
            ends, sh = ends.astype(np.int64), sh.astype(np.int64)
        tuples, length = _real_cuts(ends, sh, n, top)
        # float(QuadNum) of each length: p/d rounds alike in lowest terms and over D
        real = ((length[0] / D).astype(float) + (length[1] / D).astype(float) * TAU) / SQRT5
    count = residue = None
    if rs is not None:
        r = np.array([t if iu is None else t[1] for t in shifts], np.int64).reshape(B)
        # each distinct tuple of residue shifts is counted once
        rows, inv = _distinct_rows(r[tuples.T])
        count = _residue_counts(rs, rows)[inv]
        nonempty = count > 0
        tuples, count = tuples[:, nonempty], count[nonempty]
        if length is not None:
            length, real = length[:, nonempty], real[nonempty]
        # count/N as float(Fraction) rounds it, once per distinct count
        sizes, inv = _distinct_rows(count.reshape(-1, 1))
        residue = np.array([c / rs.modulus for c in sizes[:, 0].tolist()])[inv]
    values = _product(real, residue)

    # scatter: each ordered tuple of range(B) takes the column of its sorted form, which
    # one permutation of the axes carries it to; the rest of the grid holds -1
    slot = np.full((B,) * n, -1, np.intp)
    slot[tuple(tuples)] = np.arange(tuples.shape[1])
    for axes in permutations(range(n)):
        slot = np.maximum(slot, slot.transpose(axes))
    ordered = np.nonzero(slot >= 0)  # in lexicographic order
    col = slot[ordered]
    measure = CorrelationMeasure(scheme, order, cutoff, coords[np.stack(ordered, axis=1)],
                                 values[col], None if length is None else length[:, col].T, D,
                                 None if count is None else count[col])
    if measure.density() != window_measure(scheme, w):
        raise AssertionError("the zero tuple's frequency differs from the window measure")
    return measure


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
