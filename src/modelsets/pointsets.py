"""Finite patches of model sets.

Generation enumerates the lattice exactly: for the golden-ratio schemes the
conjugate coordinate is bounded by the window hull and the physical coordinate
by the requested region, so every admissible (u, v) pair is visited.  A float
prefilter does the bulk of the membership testing; candidates within a small
guard band of any interval endpoint are re-checked with exact arithmetic.
"""

from __future__ import annotations

import math
import os
import secrets
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import ParameterError, ResourceError
from .schemes import (FLOAT_GUARD, TAU, TAU_PRIME, FIBONACCI, PERIODIC,
                      IntervalUnion, QuadLatticePoint, QuadNum, ResidueSet, Scheme,
                      Window, format_window, parse_scheme, parse_window, star,
                      window_translate)

LatticeCoord = Union[QuadLatticePoint, int]

#: default budget on enumeration candidates (soft memory guard)
MAX_CANDIDATES = 50_000_000


@dataclass(frozen=True)
class PointSet:
    """Finite patch of a model set on a closed physical region [lo, hi].

    Points are stored in exact lattice coordinates, sorted by physical
    position.  The generating window and region travel with the patch so that
    densities and symmetric differences never mix supports silently.
    """

    scheme: Scheme
    window: Window
    points: tuple
    region: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.region
        if not lo < hi:
            raise ParameterError(f"region [{lo}, {hi}] is empty")
        ph = self.physical()
        if len(ph) > 1 and not np.all(np.diff(ph) > 0):
            raise ParameterError("physical positions must be strictly increasing")

    def __len__(self):
        return len(self.points)

    def physical(self) -> np.ndarray:
        if self.scheme.kind == PERIODIC:
            return np.asarray(self.points, dtype=float)
        return np.array([p.phys for p in self.points], dtype=float)

    def density(self) -> float:
        lo, hi = self.region
        return len(self.points) / (hi - lo)

    def coord_set(self) -> set:
        """Hashable lattice coordinates, for O(1) membership tests."""
        if self.scheme.kind == PERIODIC:
            return set(self.points)
        return {(p.u, p.v) for p in self.points}

    def validate_stars(self) -> None:
        """Exact check that every point's star lies in the window (used by loaders)."""
        for p in self.points:
            if not _star_in_window(self.scheme, self.window, p):
                raise ParameterError(f"point {p} has star outside the window")


def _star_in_window(scheme: Scheme, w: Window, p) -> bool:
    if scheme.kind == FIBONACCI:
        return w.contains(p.star_quad())
    if scheme.kind == PERIODIC:
        return w.contains(p)
    return w.intervals.contains(p.star_quad()) and w.residues.contains(p.u)


def _enumerate_quad(window_iu: IntervalUnion, lo: float, hi: float,
                    residues: ResidueSet | None, max_candidates: int):
    """All (u, v) with u+v*tau in [lo, hi], u+v*tau' in window (and u mod N in S)."""
    hull = window_iu.hull()
    if hull is None:
        return []
    wlo_f, whi_f = float(hull[0]), float(hull[1])

    vmin = math.floor((lo - whi_f) / math.sqrt(5)) - 2
    vmax = math.ceil((hi - wlo_f) / math.sqrt(5)) + 2
    est = (vmax - vmin + 1) * (whi_f - wlo_f + 4)
    if est > max_candidates:  # estimate before any allocation
        raise ResourceError(
            f"enumeration would visit ~{int(est)} candidates (> {max_candidates}); "
            "shrink the region or raise max_candidates")
    vs = np.arange(vmin, vmax + 1, dtype=np.int64)
    u_lo = np.ceil(wlo_f - vs * TAU_PRIME).astype(np.int64) - 1
    u_hi = np.floor(whi_f - vs * TAU_PRIME).astype(np.int64) + 1
    counts = np.clip(u_hi - u_lo + 1, 0, None)
    total = int(counts.sum())
    if total > max_candidates:
        raise ResourceError(
            f"enumeration would visit {total} candidates (> {max_candidates}); "
            "shrink the region or raise max_candidates")
    if total == 0:
        return []

    vflat = np.repeat(vs, counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    uflat = np.repeat(u_lo, counts) + (np.arange(total) - np.repeat(starts, counts))

    star_f = uflat + vflat * TAU_PRIME
    phys_f = uflat + vflat * TAU

    g = FLOAT_GUARD
    in_region_loose = (phys_f >= lo - g) & (phys_f <= hi + g)
    in_region_strict = (phys_f >= lo + g) & (phys_f <= hi - g)
    in_win_loose = np.zeros(total, dtype=bool)
    in_win_strict = np.zeros(total, dtype=bool)
    for a, b in window_iu.intervals:
        af, bf = float(a), float(b)
        in_win_loose |= (star_f >= af - g) & (star_f < bf + g)
        in_win_strict |= (star_f >= af + g) & (star_f < bf - g)

    if residues is not None:
        rmask = np.isin(uflat % residues.modulus, np.array(residues.elems, dtype=np.int64))
        in_region_loose &= rmask
        in_region_strict &= rmask

    sure = in_win_strict & in_region_strict
    maybe = in_win_loose & in_region_loose & ~sure
    keep = sure.copy()
    if maybe.any():
        lo_q, hi_q = QuadNum.coerce(Fraction(lo)), QuadNum.coerce(Fraction(hi))
        for i in np.nonzero(maybe)[0]:
            u, v = int(uflat[i]), int(vflat[i])
            x = QuadNum(u, v)
            if not (lo_q <= x <= hi_q):
                continue
            if window_iu.contains(QuadNum(u + v, -v)):
                keep[i] = True

    order = np.argsort(phys_f[keep], kind="stable")
    uu, vv = uflat[keep][order], vflat[keep][order]
    return [QuadLatticePoint(int(u), int(v)) for u, v in zip(uu, vv)]


def generate(scheme: Scheme, w: Window, region: tuple[float, float],
             max_candidates: int = MAX_CANDIDATES) -> PointSet:
    """All lattice points with physical position in the closed region and star in w."""
    lo, hi = float(region[0]), float(region[1])
    if not lo < hi:
        raise ParameterError(f"region [{lo}, {hi}] is empty")
    if not scheme.window_kind_ok(w):
        raise ParameterError(f"window incompatible with scheme {scheme.label()}")

    if scheme.kind == PERIODIC:
        if hi - lo > max_candidates:
            raise ResourceError(f"region holds ~{int(hi - lo)} integers (> {max_candidates})")
        ns = np.arange(math.ceil(lo - FLOAT_GUARD), math.floor(hi + FLOAT_GUARD) + 1,
                       dtype=np.int64)
        ns = ns[(ns >= lo) & (ns <= hi)]
        keep = np.isin(ns % scheme.modulus, np.array(w.elems, dtype=np.int64)) \
            if w.elems else np.zeros(len(ns), dtype=bool)
        pts = tuple(int(n) for n in ns[keep])
        return PointSet(scheme, w, pts, (lo, hi))

    if scheme.kind == FIBONACCI:
        pts = _enumerate_quad(w, lo, hi, None, max_candidates)
    else:
        pts = _enumerate_quad(w.intervals, lo, hi, w.residues, max_candidates)
    return PointSet(scheme, w, tuple(pts), (lo, hi))


def gap_sequence(ps: PointSet, absent_sites: bool = False, cyclic: bool = False):
    """Gaps between successive points.

    With ``absent_sites`` (integer schemes only) each gap is reported as the
    number of missing integer sites between successive points; with ``cyclic``
    the wrap-around gap over one period is appended.
    """
    if len(ps) < 2:
        raise ParameterError("need at least two points for a gap sequence")
    if absent_sites or cyclic:
        if ps.scheme.kind != PERIODIC:
            raise ParameterError("site-count/cyclic gap conventions need the periodic scheme")
        pts = list(ps.points)
        gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
        if cyclic:
            gaps.append(ps.scheme.modulus + pts[0] - pts[-1])
        if absent_sites:
            gaps = [g - 1 for g in gaps]
        return gaps
    ph = ps.physical()
    return list(np.diff(ph))


def symmetric_difference_density(p: PointSet, q: PointSet) -> float:
    """Density of the symmetric difference of two patches on a shared region."""
    if p.region != q.region:
        raise ParameterError(f"region mismatch: {p.region} vs {q.region}")
    if p.scheme != q.scheme:
        raise ParameterError("scheme mismatch")
    lo, hi = p.region
    return len(p.coord_set() ^ q.coord_set()) / (hi - lo)


def translate_pointset(ps: PointSet, t) -> PointSet:
    """The patch t + ps, restricted to ps.region; window is translated to match."""
    lo, hi = ps.region
    st = star(ps.scheme, t)
    new_window = window_translate(ps.window, st)
    if ps.scheme.kind == PERIODIC:
        pts = tuple(x + t for x in ps.points if lo <= x + t <= hi)
    else:
        shifted = (p + t for p in ps.points)
        pts = tuple(p for p in shifted if lo <= p.phys <= hi)
    return PointSet(ps.scheme, new_window, pts, ps.region)


# ---------------------------------------------------------------------------
# file format: one point per line ("u v" or "n"), single header line
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling temp file and a rename.

    Readers see the old file or the new one, never a partial write.  On any
    failure the temp file is removed and an existing ``path`` keeps its bytes.
    Every output file of the package is written here.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x")  # exclusive create; mode bits follow the umask
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_pointset(ps: PointSet, path: str) -> None:
    """Write the patch; the write is atomic (temp file + rename)."""
    lines = [f"# modelsets pointset scheme={ps.scheme.label()} "
             f"window={format_window(ps.window)} region=[{ps.region[0]!r},{ps.region[1]!r}]"]
    if ps.scheme.kind == PERIODIC:
        lines.extend(str(n) for n in ps.points)
    else:
        lines.extend(f"{p.u} {p.v}" for p in ps.points)
    _atomic_write(path, "\n".join(lines) + "\n")


def load_pointset(path: str) -> PointSet:
    """Read a patch written by :func:`save_pointset`; validates stars exactly."""
    with open(path) as fh:
        header = fh.readline().strip()
        body = [ln.strip() for ln in fh if ln.strip()]
    prefix = "# modelsets pointset "
    if not header.startswith(prefix):
        raise ParameterError(f"{path}: not a modelsets point-set file")
    fields = {}
    for part in header[len(prefix):].split(" "):
        key, _, val = part.partition("=")
        fields[key] = val
    try:
        scheme = parse_scheme(fields["scheme"])
        window = parse_window(fields["window"])
        reg = fields["region"]
        lo, hi = reg.strip("[]").split(",")
        region = (float(lo), float(hi))
    except KeyError as e:
        raise ParameterError(f"{path}: header missing {e}") from None
    if scheme.kind == PERIODIC:
        pts = tuple(int(ln) for ln in body)
    else:
        pairs = [ln.split() for ln in body]
        pts = tuple(QuadLatticePoint(int(u), int(v)) for u, v in pairs)
    ps = PointSet(scheme, window, pts, region)
    ps.validate_stars()
    return ps
