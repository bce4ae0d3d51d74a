"""Window recovery from deck data by phase propagation.

Given only the transforms of the order-1 and order-2 deck functions (which the
2- and 3-point correlations determine), the Fourier phase of the window
indicator satisfies

    phi(k1 + k2) = phi(k1) phi(k2) psi2(k1, k2)

on the set D2 of frequency pairs avoiding extinctions.  Any solution differs
from the true phase by a character, i.e. by a translation of the window.  The
solver here constructs one solution:

* phi(0) = 1, and the smallest usable frequency is seeded with phase 1
  (a pure gauge choice; without a seed nothing propagates, since every
  relation needs two already-known phases);
* frequencies are swept in order of increasing |k|, and the sweep repeats
  until it assigns nothing new; each frequency is assigned once, from the
  known decomposition k1 + k2 maximizing the smallest modulus of the pair
  (divisions by near-extinct values are avoided), the first such k1 on ties;
* each assignment tracks an integer grading (net seed usage), and at the end
  a single holonomy measurement rescales the seed so the solution becomes
  phi_true * (exact grid character).  After that the functional equation
  holds on every triple, wrap-around included, and recovery lands on an
  integer cell shift.

Frequencies with no admissible decomposition stay unknown and are counted;
a partial result is legitimate output.

Which pairs the sweep and the gauge measurement use depends only on D, |F|
and the gradings, so both are planned on indices first; each sweep of the
plan walks only the usable frequencies still unknown.  psi2 is then read
at those at most M + 1 pairs in one pass over the deck, which forms I2hat in
checked column blocks, split across the usable cores, and stores neither it
nor psi2, and the phases are formed in plan order.  The gauge scan reads
X[(k1 + k2) % M] as rows of the doubled vector and stops early by a bound on
the holonomy (see ``_gauge_relation``).  The recovered grid is aligned with
the input by one FFT cross-correlation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import ParameterError, ReconstructionError
from .spectra import DeckGrid, wrapped_rows

#: default extinction threshold, as a fraction of the largest |F|
EPS_ZERO_FACTOR = 1e-4

#: rounding band counted as "uncertain" cells in reports
UNCERTAIN_BAND = (0.35, 0.65)

#: share of the usable frequencies that must carry a phase before inverting
MIN_KNOWN_FRAC = 0.9


@dataclass(frozen=True)
class PhaseQuotient:
    """psi2 on the admissible pairs D2, read from the deck transforms on demand.

    Adds to the deck only |F| = sqrt(I1hat), never the true phase, and the
    extinction threshold; psi2 reads I2hat through ``deck.I2hat_at``.
    D2: k1, k2 and k1 + k2 in ``D``.
    """

    deck: DeckGrid
    absF: np.ndarray
    eps_zero: float

    @property
    def M(self) -> int:
        return self.deck.M

    @property
    def D(self) -> np.ndarray:
        return self.absF >= self.eps_zero

    def at(self, k1, k2):
        """psi2(k1, k2) = I2hat[k1, k2] / (|F|[k1] |F|[k2] |F|[k1 + k2]), ints or index arrays.

        One call is one checked pass over the deck's column blocks.
        """
        return self.deck.I2hat_at(k1, k2) / (self.absF[k1] * self.absF[k2]
                                             * self.absF[(k1 + k2) % self.M])


@dataclass(frozen=True)
class PhaseField:
    """Recovered phases on the frequency grid; unknown entries are zero."""

    phi: np.ndarray
    known: np.ndarray
    grading: np.ndarray

    @property
    def unknown_count(self) -> int:
        return len(self.phi) - int(np.count_nonzero(self.known))


def phase_quotient(deck: DeckGrid) -> PhaseQuotient:
    """The unit-modulus quotient psi2 = I2hat / (|F| |F| |F|) on D2."""
    absF = np.sqrt(np.clip(deck.I1hat.real, 0.0, None))
    eps_zero = float(EPS_ZERO_FACTOR * absF.max())
    if not eps_zero > 0 or np.count_nonzero(absF >= eps_zero) <= 1:
        raise ParameterError("degenerate input: no usable frequencies beyond k = 0")
    absF.flags.writeable = False
    return PhaseQuotient(deck, absF, eps_zero)


def _order_by_abs_k(M: int) -> np.ndarray:
    """Frequency indices sorted by (|signed index|, -signed index): 0, 1, -1, 2, ..."""
    m = np.arange(M)
    s = np.where(m <= M // 2, m, m - M)
    return np.lexsort((-s, np.abs(s)))


def _wrapped_reversed(v: np.ndarray) -> np.ndarray:
    """Array R with R[M - 1 - m + j] = v[(m - j) % M]: slice m of it lines up v[m - j] with j."""
    return np.concatenate((v, v))[::-1].copy()


def propagate_phase(absF: np.ndarray, psi2: PhaseQuotient) -> PhaseField:
    """Solve the phase functional equation by ordered assignment.

    Deterministic: sweeps in a fixed order (increasing |k|) until a sweep
    assigns nothing, with fixed tie-breaks.  Returns a partial field when
    some frequencies admit no decomposition.  The usable frequencies are
    ``psi2.D``; ``absF`` ranks the candidate decompositions.  The sweep and
    the gauge relation are planned on indices; psi2 is then read at the
    planned pairs in one pass, and the phases are formed in plan order.

    For a mirror-symmetric sampled window (any single run of cells, such as
    [0,1), [-0.5,0.5) or [-1,1/tau) at L = 8) the gauge defect is real up to
    rounding: its angle / pi lies within 4e-13 of -1 at M = 512 and 2048 and
    of +1 at M = 1024.  Which branch ``np.angle`` takes, and with it the
    recovered shift, is decided by the last bits of the deck FFT: reading
    psi2 as conj psi2(-k1, -k2) here moves the shift by one cell in the
    ``unit`` and ``centred`` recovery goldens at M = 512 and 2048, the
    mismatch staying 0.  The recovery goldens therefore pin the deck FFT's
    rounding: reordering that FFT needs new benchmark goldens.  The deck
    reads its columns M/2 < j < M as such mirrors of checked columns, conj
    I2hat[-k1, M - j], -0.0 imaginary parts where fft2 gives +0.0; every
    golden holds on them.
    """
    M = psi2.M
    D = psi2.D
    if not D[0]:
        raise ParameterError("degenerate input: the zero frequency is below eps_zero")
    order = _order_by_abs_k(M)
    seed = next((int(m) for m in order if m != 0 and D[m]), None)
    plan, known, grading = _plan_assignments(order, seed, D, absF)
    relation = None if seed is None else _gauge_relation(known, grading, absF, seed)
    pairs = [(m1, m2) for _, m1, m2 in plan] + ([relation[:2]] if relation else [])
    values = psi2.at(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

    phi = np.zeros(M, dtype=complex)
    phi[0] = 1.0
    if seed is not None:
        phi[seed] = 1.0
    for (m, m1, m2), v in zip(plan, values):
        value = phi[m1] * phi[m2] * v
        phi[m] = value / abs(value)
    if relation is not None:
        m1, m2, delta = relation
        defect = phi[m1] * phi[m2] * values[-1] / phi[(m1 + m2) % M]
        # defect = w^delta with w^M a root of unity to be absorbed; principal root
        eta = np.exp(-1j * np.angle(defect) / delta)
        phi = np.where(known, phi * eta**grading, 0.0)
        phi[known] /= np.abs(phi[known])
    return PhaseField(phi, known, grading)


def _plan_assignments(order, seed, D, absF):
    """The sweep on indices: ([(m, m1, m2), ...] in assignment order, known, grading).

    Frequency m is assigned from the known pair m1 + m2 = m maximizing the
    smaller of |F|[m1], |F|[m2], the first m1 on ties; its grading is the sum
    of theirs.  0 and the seed (grading 1) are known from the start.
    """
    M = len(order)
    known = np.zeros(M, dtype=bool)
    grading = np.zeros(M, dtype=np.int64)
    # (k1, k2) is in D2 iff k1, k2, k1 + k2 are in D: for m in D, m = j + (m - j)
    # is admissible iff j and m - j are in D; only frequencies in D are assigned,
    # so ``known`` marks exactly the usable ones.  ``score`` is |F| on the known
    # frequencies and -1 elsewhere (every known |F| is at least eps_zero > 0);
    # slice M - 1 - m of its wrapped reversal lines up score[m - j] with j
    score = np.full(M, -1.0)
    score_rev = _wrapped_reversed(score)

    def assign(m: int, grade: int) -> None:
        grading[m] = grade
        known[m] = True
        score[m] = score_rev[M - 1 - m] = score_rev[2 * M - 1 - m] = absF[m]

    assign(0, 0)
    if seed is not None:
        assign(seed, 1)
    plan = []
    pair = np.empty(M)
    # each sweep walks the usable frequencies still unknown, in ``order``
    todo = [m for m in order.tolist() if D[m] and not known[m]]
    changed = True
    while changed:
        changed, left = False, []
        for m in todo:
            s = M - 1 - m
            np.minimum(score, score_rev[s:s + M], out=pair)
            m1 = int(pair.argmax())    # first maximizer: deterministic tie-break
            if pair[m1] < 0:           # no known pair adds up to m
                left.append(m)
                continue
            mm2 = (m - m1) % M
            plan.append((m, m1, mm2))
            assign(m, grading[m1] + grading[mm2])
            changed = True
        todo = left
    return plan, known, grading


def _gauge_relation(known, grading, absF, seed: int):
    """The relation (m1, m2, dc) that fixes the seed gauge, or None.

    Relations whose gradings do not add up expose the holonomy w^dc of the
    seed value w around the frequency circle.  One measurement fixes it: the
    known pair with known sum with the smallest nonzero |dc|, then the best
    score min(|F|[m1], |F|[m2], |F|[m1 + m2]), then the first in row-major
    order.  Every assignment keeps grading[k] * seed = k (mod M), so every dc
    is a multiple of q = M / gcd(seed, M); once a relation with |dc| = q is
    found, only a strictly higher score can win, and a row m1 scores at most
    |F|[m1], so the scan skips every row with |F|[m1] at or below the best
    score.
    """
    M = len(known)
    q = M // math.gcd(seed, M)
    known_sum, grading_sum, absF_sum = (wrapped_rows(v) for v in (known, grading, absF))
    step = max(1, spectra.BLOCK_CELLS // M)
    todo = np.nonzero(known)[0]    # rows still to scan, in order
    best = None   # (|dc|, score, m1, m2, dc)
    # known frequencies all lie in D, so a known pair with known sum is in D2
    while len(todo):
        r, todo = todo[:step], todo[step:]
        valid = known[None, :] & known_sum[r]
        dc = grading[r, None] + grading[None, :] - grading_sum[r]
        valid &= dc != 0
        if valid.any():
            absdc = np.where(valid, np.abs(dc), np.iinfo(np.int64).max)
            block_abs = absdc.min()
            if best is None or block_abs <= best[0]:
                score = np.minimum(np.minimum(absF[r, None], absF[None, :]), absF_sum[r])
                score = np.where(absdc == block_abs, score, -1.0)
                i, m2 = np.unravel_index(int(np.argmax(score)), score.shape)
                if best is None or block_abs < best[0] or score[i, m2] > best[1]:
                    best = (block_abs, score[i, m2], int(r[i]), int(m2), int(dc[i, m2]))
        if best is not None and best[0] == q:
            todo = todo[absF[todo] > best[1]]
    return None if best is None else best[2:]


def _raw_reconstruction(psi2: PhaseQuotient, phase: PhaseField) -> np.ndarray:
    """|F| * phi, zero-filled, transformed back to cells; needs MIN_KNOWN_FRAC of D known."""
    D = psi2.D
    nD = int(np.count_nonzero(D))
    covered = int(np.count_nonzero(phase.known & D))
    raw = np.fft.ifft(np.where(phase.known, psi2.absF * phase.phi, 0)).real / psi2.deck.cell
    if nD and covered < MIN_KNOWN_FRAC * nD:
        raise ReconstructionError(
            f"phase known on {covered}/{nD} usable frequencies "
            f"(< {MIN_KNOWN_FRAC:.0%})", partial=raw)
    return raw


def uncertain_cells(raw: np.ndarray) -> int:
    lo, hi = UNCERTAIN_BAND
    return int(np.count_nonzero((raw >= lo) & (raw <= hi)))


def align_up_to_translation(f: np.ndarray, g: np.ndarray) -> tuple[int, float]:
    """Circular shift of g minimizing the cell mismatch against f (0/1 grids).

    The overlap of f with every shift of g comes from one FFT circular
    cross-correlation, rounded to integer counts.  Returns (shift, mismatch
    fraction); the smallest optimal shift wins.
    """
    f, g = np.asarray(f), np.asarray(g)
    if f.shape != g.shape or f.ndim != 1 or len(f) == 0:
        raise ParameterError("grids must be nonempty, one-dimensional and of equal size")
    if not (np.isin(f, (0, 1)).all() and np.isin(g, (0, 1)).all()):
        raise ParameterError("grids must be 0/1 valued")
    M = len(f)
    fb, gb = f.astype(float), g.astype(float)
    # overlap[s] = sum_t f[t] g[t - s] = cells where f and roll(g, s) are both 1
    overlap = np.rint(np.fft.irfft(np.fft.rfft(fb) * np.conj(np.fft.rfft(gb)), n=M))
    mismatch = fb.sum() + gb.sum() - 2 * overlap
    shift = int(np.argmin(mismatch))
    return shift, int(mismatch[shift]) / M


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of a recover-forget-reconstruct run, JSON-serializable."""

    M: int
    l_half: float
    eps_zero: float
    unknown_count: int
    shift: int
    mismatch: float
    uncertain_cells: int
    recovered: np.ndarray

    def to_json(self) -> str:
        return json.dumps({
            "M": self.M,
            "L_half": self.l_half,
            "eps_zero": self.eps_zero,
            "unknown_count": self.unknown_count,
            "shift": self.shift,
            "mismatch": self.mismatch,
            "uncertain_cells": self.uncertain_cells,
        }, indent=2, sort_keys=True)


def roundtrip(f: np.ndarray, M: int, l_half: float) -> ReconstructionReport:
    """Compute deck data from an indicator, forget it, reconstruct, align, report."""
    deck = spectra.deck_functions(f, M, l_half)  # a wrapper set on the module sees the call
    psi2 = phase_quotient(deck)
    phase = propagate_phase(psi2.absF, psi2)
    raw = _raw_reconstruction(psi2, phase)
    recovered = (raw >= 0.5).astype(np.int64)
    shift, mismatch = align_up_to_translation(f, recovered)
    return ReconstructionReport(M, float(l_half), psi2.eps_zero, phase.unknown_count,
                                shift, mismatch, uncertain_cells(raw), recovered)
