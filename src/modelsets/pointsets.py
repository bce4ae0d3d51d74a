"""Finite patches of model sets.

Generation takes its candidates from the lattice enumeration of
:mod:`.schemes`, in the box of the window hull and the requested region.  A
float prefilter does the bulk of the membership testing; candidates within a
guard band of any interval endpoint are re-checked with exact arithmetic.  The
band grows with the size of the coordinates, so the prefilter stays sound
wherever int64 coordinates reach.  Membership is tested, and point files are
written, in column chunks of ``PATCH_CHUNK``, so the working memory beyond
the patch itself stays bounded.

A patch is stored as an int64 array with one column per point and one row
per lattice coordinate: rows u and v for the golden-ratio schemes, the single
row n for ``periodic:N``.
"""

from __future__ import annotations

import io
import math
import os
import secrets
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import MAX_CANDIDATES, ParameterError, check_budget, check_real
from .schemes import (COORD_LIMIT, FLOAT_GUARD, FLOAT_REL, TAU, TAU_PRIME, PERIODIC,
                      IntervalUnion, QuadNum, Scheme, Window, _float_hull,
                      _float_slack, _physical, _quad_candidates, format_window, parse_scheme,
                      parse_window, patch_chunks, window_factors)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite patch of a model set on a closed physical region [lo, hi].

    ``coords`` holds the exact lattice coordinates as a read-only int64
    array of shape (2, len) with rows u and v for the golden-ratio schemes,
    or (1, len) with the row n for ``periodic:N``; points are sorted by
    physical position.  The generating window and region travel with the
    patch, so densities and empirical frequencies know the support they
    average over.
    """

    scheme: Scheme
    window: Window
    coords: np.ndarray
    region: tuple[float, float]
    _phys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lo, hi = _check_region(self.region)
        c = np.array(self.coords, dtype=np.int64, order="C")  # a private, read-only copy
        c = c.reshape(1 if self.scheme.kind == PERIODIC else 2, c.shape[-1])
        if c.size and not (c.min() > -COORD_LIMIT and c.max() < COORD_LIMIT):
            raise ParameterError("lattice coordinates must stay below 2^62 in magnitude")
        c.flags.writeable = False
        ph = _physical(c)
        ph.flags.writeable = False
        if not np.all(ph[1:] > ph[:-1]):
            raise ParameterError("physical positions must be strictly increasing")
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "region", (lo, hi))
        object.__setattr__(self, "_phys", ph)

    def __len__(self):
        return self.coords.shape[1]

    def physical(self) -> np.ndarray:
        """Physical positions, increasing (read-only, computed once)."""
        return self._phys

    def density(self) -> float:
        lo, hi = self.region
        return len(self) / (hi - lo)

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Exact membership in the patch of each column of ``coords`` (laid out as ``self.coords``).

        A point's physical position is computed by the same float operations
        wherever it appears, and the positions are strictly increasing, so a
        binary search lands on the only candidate; an integer comparison of
        the coordinates then decides.
        """
        if len(self) == 0:
            return np.zeros(coords.shape[1], dtype=bool)
        i = np.minimum(np.searchsorted(self._phys, _physical(coords)), len(self) - 1)
        return (self.coords.take(i, axis=1) == coords).all(axis=0)


def _first_misplaced(ps: PointSet):
    """(index, reason) of the first point outside the region or with star outside the window."""
    bad = np.nonzero(~_in_window(ps.scheme, ps.window, ps.coords, ps.region))[0]
    if not len(bad):
        return None
    i = int(bad[0])
    col = ps.coords[:, i:i + 1]
    where = ("has star outside the window" if not _in_window(ps.scheme, ps.window, col)[0]
             else f"lies outside the region [{ps.region[0]!r}, {ps.region[1]!r}]")
    return i, f"point {tuple(col[:, 0].tolist())} {where}"


def _check_region(region) -> tuple[float, float]:
    lo, hi = (check_real("region endpoint", x) for x in region)
    if not lo < hi:
        raise ParameterError(f"region [{lo}, {hi}] is empty")
    if max(-lo, hi) >= COORD_LIMIT:
        raise ParameterError("region endpoints must stay below 2^62 in magnitude")
    return lo, hi


# ---------------------------------------------------------------------------
# exact membership: float masks, Q(tau) only inside the guard band
# ---------------------------------------------------------------------------

def _bands(x, g, bounds):
    """Masks (sure, possible) of x in a union of intervals with QuadNum endpoints.

    ``x`` is within ``g`` of the exact values; the float error of each
    endpoint is added to the band.  ``sure`` is exact for [a, b) and [a, b]
    alike; ``possible & ~sure`` is the guard band, which needs an exact test.
    """
    sure = np.zeros(len(x), dtype=bool)
    possible = np.zeros(len(x), dtype=bool)
    for a, b in bounds:
        ga = g + _float_slack(a) + _float_slack(b)
        af, bf = float(a), float(b)
        sure |= (x >= af + ga) & (x <= bf - ga)
        possible |= (x >= af - ga) & (x <= bf + ga)
    return sure, possible


def _quad_mask(iu: IntervalUnion, coords: np.ndarray, region=None) -> np.ndarray:
    """Exact mask of u + v*tau' in ``iu`` (and of u + v*tau in the closed ``region``).

    Floats decide every point outside the guard band; the band, whose width
    grows with |u| + |v|, is decided in Q(tau).
    """
    u, v = coords
    g = FLOAT_GUARD + FLOAT_REL * (np.abs(u.astype(float)) + np.abs(v.astype(float)))
    sure, possible = _bands(u + v * TAU_PRIME, g, iu.intervals)
    if region is not None:
        region = tuple(QuadNum.coerce(Fraction(x)) for x in region)
        in_sure, in_possible = _bands(u + v * TAU, g, [region])
        sure &= in_sure
        possible &= in_possible
    for i in np.nonzero(possible & ~sure)[0]:
        a, b = int(u[i]), int(v[i])
        if region is None or region[0] <= QuadNum(a, b) <= region[1]:
            sure[i] = iu.contains(QuadNum(a + b, -b))
    return sure


def _in_window(scheme: Scheme, w: Window, coords: np.ndarray, region=None) -> np.ndarray:
    """Exact mask: the star of each point (column of ``coords``) lies in ``w``.

    With a ``region`` the physical position must also lie in that closed
    interval.  The real factor is tested only where the residue factor holds.
    The columns are tested in chunks of ``PATCH_CHUNK``, so the float
    temporaries stay that size whatever the number of points.
    """
    iu, rs = window_factors(scheme, w)
    mask = np.empty(coords.shape[1], dtype=bool)
    for c in patch_chunks(coords.shape[1]):
        chunk = coords[:, c]
        if rs is None:
            mask[c] = _quad_mask(iu, chunk, region)
            continue
        keep = np.isin(chunk[0] % rs.modulus, np.array(rs.elems, dtype=np.int64))
        if iu is not None:
            keep[keep] = _quad_mask(iu, chunk[:, keep], region)
        elif region is not None:
            n = chunk[0]
            keep &= (n >= math.ceil(region[0])) & (n <= math.floor(region[1]))
        mask[c] = keep
    return mask


def _check_float_positions(lo: float, hi: float, star: tuple[float, float] | None) -> None:
    """Refuse a region where float positions can no longer tell neighbouring points apart.

    The distance between two points is at least 1 for ``periodic:N`` (``star``
    None), and 1/w for a window of hull width w, since two points differ by z
    in Z[tau] with |z*| < w and |z z*| >= 1.  The message names w.  On the
    golden-ratio schemes the region is also refused where the floats of
    :func:`_quad_candidates` reach 2^52: below that each row bound rounds
    within well under the one unit by which those rows are widened there.
    """
    width = None if star is None else star[1] - star[0]
    gap = 1.0 if width is None else 1 / width
    spacing = float(np.spacing(max(-lo, hi)))
    if spacing > gap:
        why = "" if width is None else f" = 1/(window hull width {width:.6g})"
        raise ParameterError(
            f"region [{lo}, {hi}] is too far out for float positions: their spacing "
            f"there ({spacing:g}) exceeds the smallest gap between points ({gap:.3g}{why})")
    if width is not None:
        # a row v takes u from u* - v*tau' with u* in the star range and from
        # x - v*tau with x in the region: the largest float there is about this
        v_max = max(hi - star[0], star[1] - lo) / math.sqrt(5) + 3
        reach = max(-star[0], star[1]) + TAU * v_max
        if reach >= 2.0 ** 52:
            raise ParameterError(
                f"region [{lo}, {hi}] is too far out for float positions: lattice rows "
                f"there reach {reach:.3g}, and their float bounds hold only below 2^52")


def generate(scheme: Scheme, w: Window, region: tuple[float, float]) -> PointSet:
    """All lattice points with physical position in the closed region and star in w."""
    lo, hi = _check_region(region)
    iu, _ = window_factors(scheme, w)
    if iu is None:
        _check_float_positions(lo, hi, None)
        check_budget(hi - lo, MAX_CANDIDATES, "shrink the region")
        cand = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=np.int64)[None]
    elif iu.is_empty():
        cand = np.zeros((2, 0), dtype=np.int64)
    else:
        star = _float_hull(iu)
        _check_float_positions(lo, hi, star)
        cand = _quad_candidates(star, (lo, hi), MAX_CANDIDATES, "shrink the region")
    coords = cand[:, _in_window(scheme, w, cand, (lo, hi))]
    del cand
    # rebinding drops the unsorted columns before PointSet copies the sorted ones
    coords = coords[:, np.argsort(_physical(coords), kind="stable")]
    return PointSet(scheme, w, coords, (lo, hi))


def gap_sequence(ps: PointSet, absent_sites: bool = False):
    """Gaps between successive points.

    With ``absent_sites`` (periodic scheme only) the gaps are the numbers of
    absent integer sites between successive points around one period, the
    wrap-around gap last; the patch's region must hold exactly one period.
    """
    if len(ps) < 2:
        raise ParameterError("need at least two points for a gap sequence")
    if absent_sites:
        if ps.scheme.kind != PERIODIC:
            raise ParameterError("the absent-site gap convention needs the periodic scheme")
        N, (lo, hi) = ps.scheme.modulus, ps.region
        if math.floor(hi) - math.ceil(lo) + 1 != N:
            raise ParameterError(f"the absent-site gap convention needs a region of one "
                                 f"period, exactly {N} integer sites")
        ns = ps.coords[0].tolist()
        return [b - a - 1 for a, b in zip(ns, ns[1:] + [ns[0] + N])]
    return np.diff(ps.physical()).tolist()


# ---------------------------------------------------------------------------
# file format: one point per line ("u v" or "n"), single header line
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of string chunks, to ``path``
    through a sibling temp file and a rename.

    Readers see the old file or the new one, never a partial write.  On any
    failure, also one raised while the chunks are produced, the temp file is
    removed and an existing ``path`` keeps its bytes.  Every output file of
    the package is written here.
    """
    # in the directory of ``path`` as given ("" -> the working directory)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "x")  # exclusive create; mode bits follow the umask
        try:
            with fh:
                fh.writelines([text] if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:  # name the output, not the random temp file
        raise OSError(e.errno, e.strerror or str(e), path) from None


def save_pointset(ps: PointSet, path: str) -> None:
    """Write the patch, one ``"%d %d"`` line per point, formed and written one
    chunk of ``PATCH_CHUNK`` points at a time; the write is atomic (temp file +
    rename)."""
    header = (f"# modelsets pointset scheme={ps.scheme.label()} "
              f"window={format_window(ps.window)} region=[{ps.region[0]!r},{ps.region[1]!r}]")
    _atomic_write(path, chain([header + "\n"], (_int_lines(ps.coords[:, c])
                                                for c in patch_chunks(len(ps)))))


def _int_lines(coords: np.ndarray) -> str:
    """The lines ``"%d %d"`` (one field per row) of the columns of an int64 array.

    The digits come from repeated // 10, on int32 when every |c| < 2^31.  A
    field is a run of byte columns (sign, D digits, separator) with NUL for
    leading zeros and for the sign of a non-negative value; the lines are the
    rows of the stacked columns with the NULs dropped.
    """
    q = np.abs(coords)
    top = int(q.max()) if q.size else 0
    q = q.astype(np.int32 if top < 2 ** 31 else np.int64)
    digits = []  # least significant first
    for j in range(len(str(top))):
        nq = q // 10
        d = (q - nq * 10).astype(np.uint8) | ord("0")
        if j:  # the units digit always prints
            d *= q > 0
        digits.append(d)
        q = nq
    sign = (coords < 0).astype(np.uint8) * ord("-")
    cols = []
    for r, end in enumerate(" " * (len(coords) - 1) + "\n"):
        cols += [sign[r], *(d[r] for d in reversed(digits)),
                 np.full(coords.shape[1], ord(end), np.uint8)]
    return np.stack(cols, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def _bad_line(path: str, body: str, width: int) -> ParameterError:
    """The error for the first malformed body line (line numbers count the header)."""
    for lineno, line in enumerate(body.splitlines(), 2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            return ParameterError(f"{path}:{lineno}: expected {width} integer(s), "
                                  f"got {len(fields)} fields")
        for tok in fields:
            try:
                c = int(tok)
            except ValueError:
                return ParameterError(f"{path}:{lineno}: {tok!r} is not an integer")
            if not -COORD_LIMIT < c < COORD_LIMIT:
                return ParameterError(f"{path}:{lineno}: coordinate {tok} is not below "
                                      "2^62 in magnitude")
    return ParameterError(f"{path}: malformed point data")


def load_pointset(path: str) -> PointSet:
    """Read a patch written by :func:`save_pointset`.

    Checks exactly that every point lies in the header's region with its star
    in the window; an error names the file line of the first point that does not.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        body = fh.read()
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
        lo, hi = fields["region"].strip("[]").split(",")
        region = (float(lo), float(hi))
    except KeyError as e:
        raise ParameterError(f"{path}: header missing {e}") from None
    except ValueError as e:
        raise ParameterError(f"{path}: bad header: {e}") from None
    width = 1 if scheme.kind == PERIODIC else 2
    rows = np.zeros((0, width), dtype=np.int64)
    if body.strip():
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            raise _bad_line(path, body, width) from None
        if rows.shape[1] != width or not (rows.min() > -COORD_LIMIT
                                          and rows.max() < COORD_LIMIT):
            raise _bad_line(path, body, width)

    def at_point(i: int, reason: str) -> ParameterError:
        data_lines = [n for n, line in enumerate(body.splitlines(), 2) if line.split()]
        return ParameterError(f"{path}:{data_lines[i]}: {reason}")

    try:
        ps = PointSet(scheme, window, rows.T, region)
    except ParameterError as e:
        late = np.nonzero(np.diff(_physical(rows.T)) <= 0)[0]
        if len(late):
            i = int(late[0]) + 1
            raise at_point(i, f"point {tuple(rows[i].tolist())} is out of order: "
                              "physical positions must be strictly increasing") from None
        raise ParameterError(f"{path}: {e}") from None
    bad = _first_misplaced(ps)
    if bad is not None:
        raise at_point(*bad)
    return ps
