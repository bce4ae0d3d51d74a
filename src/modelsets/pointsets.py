"""Finite patches of model sets.

Generation walks the requested region in physical blocks cut at
half-integers, on which no lattice point lies.  Each block takes its
candidates from the lattice enumeration of :mod:`.schemes`, in the box of the
window hull and the block, cuts them with the one exact cut ``_quad_mask``
(floats decide outside a guard band that grows with the size of the
coordinates, Q(tau) inside it) and writes its points, sorted, at the running
end of the one patch array.  So the working memory beyond the patch itself
stays one block of about ``PATCH_CHUNK`` candidates; membership checks,
order checks and point files go in column chunks of ``PATCH_CHUNK`` too.

A patch is stored as an int64 array with one column per point and one row
per lattice coordinate: rows u and v for the golden-ratio schemes, the single
row n for ``periodic:N``.  Its float positions are formed on first use.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Iterable
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .errors import MAX_CANDIDATES, ParameterError, check_budget, check_real
from .schemes import (COORD_LIMIT, SQRT5, TAU, PERIODIC, ResidueSet, Scheme, Window,
                      _block_span, _coord_guard, _cyclic_gaps, _float_hull, _physical,
                      _quad_candidates, _quad_mask, _quad_rows, format_window, parse_scheme,
                      parse_window, patch_chunks, window_factors)


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite patch of a model set on a closed physical region [lo, hi].

    ``coords`` holds the exact lattice coordinates as a read-only int64
    array of shape (2, len) with rows u and v for the golden-ratio schemes,
    or (1, len) with the row n for ``periodic:N``; points are sorted by
    physical position.  Construction checks that order a chunk of columns at
    a time and keeps no positions: ``physical()`` forms them on first use.
    The generating window and region travel with the patch, so densities
    and empirical frequencies know the support they average over.
    """

    scheme: Scheme
    window: Window
    coords: np.ndarray
    region: tuple[float, float]
    #: ``generate`` hands over its own int64 C-ordered coordinates, which no
    #: one else holds; any other ``coords`` is copied
    _handed_over: InitVar[bool] = False

    def __post_init__(self, _handed_over):
        lo, hi = _check_region(self.region)
        # a private, read-only copy, or the array that ``generate`` hands over
        c = self.coords if _handed_over else np.array(self.coords, dtype=np.int64, order="C")
        c = c.reshape(1 if self.scheme.kind == PERIODIC else 2, c.shape[-1])
        if c.size and not (c.min() > -COORD_LIMIT and c.max() < COORD_LIMIT):
            raise ParameterError("lattice coordinates must stay below 2^62 in magnitude")
        c.flags.writeable = False
        # each chunk with the column before it, so that the seams are checked too
        if not all(_rising(c[:, max(s.start - 1, 0):s.stop]) for s in patch_chunks(c.shape[1])):
            raise ParameterError("physical positions must be strictly increasing")
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "region", (lo, hi))

    def __len__(self):
        return self.coords.shape[1]

    def physical(self) -> np.ndarray:
        """Physical positions, increasing (read-only, formed on first use)."""
        return self._positions

    @cached_property
    def _positions(self) -> np.ndarray:
        ph = _physical(self.coords)
        ph.flags.writeable = False
        return ph

    #: a bound on the float error of every physical position, computed on first use
    _guard = cached_property(lambda self: _coord_guard(self.coords))

    def density(self) -> float:
        lo, hi = self.region
        return len(self) / (hi - lo)


def _rising(coords: np.ndarray) -> bool:
    """The physical positions of the columns strictly increase."""
    ph = _physical(coords)
    return bool(np.all(ph[1:] > ph[:-1]))


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
            keep[keep] = _quad_mask(iu, np.compress(keep, chunk, axis=1), region)
        elif region is not None:  # n as the lattice point n + 0*tau
            keep &= _quad_mask(None, np.pad(chunk, ((0, 1), (0, 0))), region)
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
        v_max = max(hi - star[0], star[1] - lo) / SQRT5 + 3
        reach = max(-star[0], star[1]) + TAU * v_max
        if reach >= 2.0 ** 52:
            raise ParameterError(
                f"region [{lo}, {hi}] is too far out for float positions: lattice rows "
                f"there reach {reach:.3g}, and their float bounds hold only below 2^52")


def _residue_count(first: np.ndarray, count: np.ndarray, rs: ResidueSet | None) -> int:
    """How many of the integers first, ..., first + count - 1 (over entries of int64
    arrays, counts >= 0) lie in the residue set; all of them for None."""
    if rs is None:
        return int(count.sum())
    N, elems = rs.modulus, np.array(rs.elems, dtype=np.int64)
    # #{0 <= u < x: u mod N in elems} is (x // N) * len(elems) + #{e < x mod N}
    (q0, r0), (q1, r1) = np.divmod(first, N), np.divmod(first + count, N)
    if N <= len(first):  # #{e < r} for every r at once, then a lookup
        r0, r1 = (np.searchsorted(elems, np.arange(N)).take(r) for r in (r0, r1))
    else:
        r0, r1 = (np.searchsorted(elems, r) for r in (r0, r1))
    return int((q1 - q0).sum()) * len(elems) + int(r1.sum() - r0.sum())


def generate(scheme: Scheme, w: Window, region: tuple[float, float]) -> PointSet:
    """All lattice points with physical position in the closed region and star in w.

    The region is cut at half-integers k + 1/2, on which no point of Z[tau]
    or Z lies, into closed physical blocks of about ``PATCH_CHUNK``
    candidates.  Each block takes its candidates from one ``_quad_candidates``
    call, or its own integers (``arange``) for ``periodic:N``, keeps those that
    its range and the window hold, and writes them, sorted, at the running end
    of the patch.  (Beyond 2^52 the floats round the cuts to integers n: a
    block's rounded range still holds its own integers, and on the golden-ratio
    schemes no such n has its star in the window.)  The patch array is sized
    by the whole region's candidates that the residue factor keeps, and then
    trimmed in place.
    """
    lo, hi = _check_region(region)
    iu, rs = window_factors(scheme, w)
    if iu is None:
        _check_float_positions(lo, hi, None)
        check_budget(hi - lo, MAX_CANDIDATES, "lattice candidates", "shrink the region")
        first = math.ceil(lo)
        cap = _residue_count(np.array([first]), np.array([math.floor(hi) + 1 - first]), rs)
    elif iu.is_empty():
        cap = 0
    else:
        star = _float_hull(iu)
        _check_float_positions(lo, hi, star)
        blocks, rows = _quad_rows(star, (lo, hi), MAX_CANDIDATES, "shrink the region")
        cap = sum(_residue_count(u_lo, counts, rs) for _, u_lo, counts in map(rows, blocks))
    nrows = 1 if scheme.kind == PERIODIC else 2
    if not cap:
        return PointSet(scheme, w, np.zeros((nrows, 0), dtype=np.int64), (lo, hi))
    buf, n = np.empty(nrows * cap, dtype=np.int64), 0  # row i fills buf[i*cap:] from the front
    cuts = range(math.floor(lo + 0.5) + 1, math.ceil(hi + 0.5),
                 _block_span(None if iu is None else star))
    ends = [lo, *(k - 0.5 for k in cuts), hi]  # each cut k - 1/2 lies in (lo, hi)
    ints = [math.ceil(lo), *cuts, math.floor(hi) + 1]  # the integers of each block start
    for block, (a, b) in zip(pairwise(ends), pairwise(ints)):
        cand = (np.arange(a, b, dtype=np.int64)[None] if iu is None
                else _quad_candidates(star, block, MAX_CANDIDATES, "shrink the region"))
        kept = np.compress(_in_window(scheme, w, cand, block), cand, axis=1)
        del cand
        order = np.argsort(_physical(kept), kind="stable")
        for i in range(nrows):
            np.take(kept[i], order, out=buf[i * cap + n:i * cap + n + len(order)])
        n += len(order)
        del kept, order
    if nrows == 2:  # row 1 down to buf[n:2n], a chunk at a time, so that the tail can go
        for c in patch_chunks(n):
            buf[n + c.start:n + c.stop] = buf[cap + c.start:cap + c.stop]
    buf.resize(nrows * n, refcheck=False)  # in place: no view of ``buf`` is left
    return PointSet(scheme, w, buf.reshape(nrows, n), (lo, hi), _handed_over=True)


def gap_sequence(ps: PointSet, absent_sites: bool = False):
    """Gaps between successive points.

    With ``absent_sites`` (periodic scheme only) the gaps are the numbers of absent
    integer sites between successive points around one period, ``_cyclic_gaps`` minus
    one, the wrap-around gap last; the patch's region must hold exactly one period.
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
        return [g - 1 for g in _cyclic_gaps(ps.coords[0].tolist(), N)]
    return np.diff(ps.physical()).tolist()


# ---------------------------------------------------------------------------
# file format: one point per line ("u v" or "n"), single header line
# ---------------------------------------------------------------------------

FLOAT_FORMAT = ".15g"  #: format spec of every float in CSV output and in the DIFFER line
POINTSET_HEADER = "# modelsets pointset "  #: a point file's header: this, then key=value fields


def _atomic_write(path: str, text: str | bytes | Iterable[str | bytes]) -> None:
    """Write ``text``, one str or bytes or an iterable of such chunks, to ``path``
    through a sibling temp file and a rename.

    The file is written through the binary layer: bytes chunks as they are,
    str chunks encoded as UTF-8.  Readers see the old file or the new one,
    never a partial write.  On any failure, also one raised while the chunks
    are produced, the temp file is removed and an existing ``path`` keeps its
    bytes.  Every output file of the package is written here.  The temp name
    takes 16 hex digits of ``os.urandom``.
    """
    # in the directory of ``path`` as given ("" -> the working directory)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")  # exclusive create; mode bits follow the umask
        try:
            with fh:  # ``map`` and ``writelines`` hold no chunk past its write
                fh.writelines(map(lambda c: c.encode() if isinstance(c, str) else c,
                                  [text] if isinstance(text, (str, bytes)) else text))
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
    header = (f"{POINTSET_HEADER}scheme={ps.scheme.label()} "
              f"window={format_window(ps.window)} region=[{ps.region[0]!r},{ps.region[1]!r}]")
    _atomic_write(path, chain([header + "\n"], (_int_lines(ps.coords[:, c])
                                                for c in patch_chunks(len(ps)))))


def _int_lines(coords: np.ndarray) -> bytes:
    """The ASCII lines ``"%d %d"`` (one field per row) of the columns of an int64 array.

    The digits come from repeated // 10, on int32 when every |c| < 2^31.  A
    field is a run of byte columns (sign, D digits, separator) with NUL for
    leading zeros and for the sign of a non-negative value; the lines are the
    rows of the stacked columns with the NULs dropped.
    """
    top = max(int(coords.max(initial=0)), -int(coords.min(initial=0)))
    q = coords.astype(np.int32 if top < 2 ** 31 else np.int64)
    np.abs(q, out=q)
    digits = []  # least significant first
    for j in range(len(str(top))):
        nq = q // 10
        lead = q == 0  # the NULs of leading zeros; the units digit always prints
        q -= nq * 10
        d = q.astype(np.uint8)
        d |= ord("0")
        if j:
            d[lead] = 0
        digits.append(d)
        q = nq
    del q, nq, lead
    sign = (coords < 0).astype(np.uint8) * ord("-")
    cols = []
    for r, end in enumerate(" " * (len(coords) - 1) + "\n"):
        cols += [sign[r], *(d[r] for d in reversed(digits)),
                 np.full(coords.shape[1], ord(end), np.uint8)]
    del sign, digits, d
    table = np.stack(cols, axis=1)
    del cols
    lines = table.tobytes()
    del table
    return lines.translate(None, b"\0")


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
    if not header.startswith(POINTSET_HEADER):
        raise ParameterError(f"{path}: not a modelsets point-set file")
    fields = dict(part.partition("=")[::2] for part in header[len(POINTSET_HEADER):].split(" "))
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
