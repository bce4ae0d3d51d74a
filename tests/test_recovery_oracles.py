"""The window-recovery fast paths against their dense and per-cell references.

``reconstruct_goldens.json`` holds, for five acceptance windows and three
shifted benchmark windows at M = 512, 1024 and 2048 (L = 8), the sampled
indicator, the report JSON and the recovered grid (as runs of 1-cells) of
the dense implementation that preceded the row-block code.  The property
tests compare each stage with a plain reference on small grids; where the
arithmetic is the same, results must be equal bit for bit.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modelsets import (IntervalUnion, ParameterError, QuadNum, align_up_to_translation,
                       deck_functions, parse_window, phase_quotient, propagate_phase,
                       roundtrip, sample_window, spectra)
from modelsets.reconstruct import _order_by_abs_k

GOLDENS = json.loads((Path(__file__).parent / "reconstruct_goldens.json").read_text())
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def runs(grid) -> list:
    d = np.diff(np.concatenate(([0], np.asarray(grid).astype(np.int8), [0])))
    return [[int(a), int(b)] for a, b in zip(np.nonzero(d == 1)[0], np.nonzero(d == -1)[0])]


@pytest.mark.parametrize("case", GOLDENS, ids=lambda c: f"{c['window']}-M{c['M']}")
def test_roundtrip_matches_golden(case):
    M = case["M"]
    f = sample_window(parse_window(case["window"]), M, 8.0)
    assert runs(f) == case["sampled"]
    rep = roundtrip(f, M, 8.0)
    assert rep.to_json() == case["report"]
    assert runs(rep.recovered) == case["recovered"]


# ---------------------------------------------------------------------------
# sample_window: bisection against one exact membership test per cell
# ---------------------------------------------------------------------------

@st.composite
def window_on_grid(draw):
    M = draw(st.integers(1, 48))
    L = Fraction(draw(st.sampled_from([1, 3, 5, 8, 15])), draw(st.sampled_from([1, 2, 3])))
    h = 2 * L / M
    grid_point = st.integers(-2, M + 2).map(lambda j: QuadNum(-L + j * h, 0))
    quad = st.builds(lambda a, q, b: QuadNum(Fraction(a, q), Fraction(b, 2)),
                     st.integers(-40, 40), st.integers(1, 8), st.integers(-3, 3))
    ends = draw(st.lists(st.one_of(grid_point, quad), min_size=2, max_size=8))
    ends = sorted(set(ends))
    pairs = list(zip(ends[0::2], ends[1::2]))
    return IntervalUnion(pairs), M, L


@SETTINGS
@given(window_on_grid())
def test_sample_window_matches_cell_loop(case):
    iu, M, L = case
    h = 2 * L / M
    expected = [int(iu.contains(QuadNum(-L + j * h, 0))) for j in range(M)]
    got = sample_window(iu, M, L)
    assert got.dtype == np.int64 and got.tolist() == expected


# ---------------------------------------------------------------------------
# deck_functions: n2 against a brute-force triple count
# ---------------------------------------------------------------------------

@st.composite
def small_indicator(draw):
    """A 0/1 grid whose support spans fewer than M/4 cells (anti-wraparound)."""
    M = draw(st.sampled_from([8, 16, 32, 64]))
    bits = draw(st.lists(st.booleans(), min_size=M // 4, max_size=M // 4))
    bits[draw(st.integers(0, M // 4 - 1))] = True
    f = np.zeros(M, dtype=np.int64)
    f[:M // 4] = bits
    return np.roll(f, draw(st.integers(0, M - 1))), draw(st.sampled_from([2.0, 8.0]))


@contextmanager
def with_block_cells(cells):
    """Run with BLOCK_CELLS = cells; small values cut these small grids into many
    row blocks, as large grids are cut by the default."""
    default = spectra.BLOCK_CELLS
    spectra.BLOCK_CELLS = cells
    try:
        yield
    finally:
        spectra.BLOCK_CELLS = default


BLOCK_SIZES = st.sampled_from([spectra.BLOCK_CELLS, 1, 100])


@SETTINGS
@given(small_indicator(), BLOCK_SIZES)
def test_deck_n2_matches_triple_count(case, block_cells):
    f, L = case
    M = len(f)
    with with_block_cells(block_cells):
        deck = deck_functions(f, M, L)
    # n2[j1, j2] = #{t : f[t] = f[t - j1] = f[t - j2] = 1}, indices mod M
    shifted = np.array([np.roll(f, j) for j in range(M)])
    n2 = (shifted * f) @ shifted.T
    assert np.array_equal(deck.I2, deck.cell * n2)
    # the byte check also tells an empty cell's +0.0 from -0.0
    assert deck.I2.tobytes() == (deck.cell * n2).tobytes()
    h = deck.cell
    assert np.array_equal(deck.I2hat, h * h * np.fft.fft2(deck.I2))


# ---------------------------------------------------------------------------
# phase quotient and propagation against the dense sweep they replace
# ---------------------------------------------------------------------------

def dense_reference(deck):
    """psi2 with M x M index grids, then the sweep and gauge fix over gathered arrays."""
    M = deck.M
    absF = np.sqrt(np.clip(deck.I1hat.real, 0.0, None))
    eps = 1e-4 * absF.max()
    D = absF >= eps
    idx = (np.arange(M)[:, None] + np.arange(M)[None, :]) % M
    mask = D[:, None] & D[None, :] & D[idx]
    denom = absF[:, None] * absF[None, :] * absF[idx]
    values = np.zeros((M, M), dtype=complex)
    values[mask] = deck.I2hat[mask] / denom[mask]

    phi = np.zeros(M, dtype=complex)
    known = np.zeros(M, dtype=bool)
    grading = np.zeros(M, dtype=np.int64)
    phi[0], known[0] = 1.0, True
    order = _order_by_abs_k(M)
    seed = next((int(m) for m in order if m != 0 and D[m]), None)
    if seed is not None:
        phi[seed], known[seed], grading[seed] = 1.0, True, 1
    j = np.arange(M)
    changed = True
    while changed:
        changed = False
        for m in order:
            if known[m] or not D[m]:
                continue
            m2 = (m - j) % M
            cand = j[known & known[m2] & mask[j, m2]]
            if len(cand) == 0:
                continue
            m1 = int(cand[int(np.argmax(np.minimum(absF[cand], absF[m2[cand]])))])
            phi[m] = phi[m1] * phi[m2[m1]] * values[m1, m2[m1]]
            phi[m] /= abs(phi[m])
            grading[m] = grading[m1] + grading[m2[m1]]
            known[m] = changed = True

    kd = np.nonzero(known)[0]
    sums = (kd[:, None] + kd[None, :]) % M
    dc = grading[kd][:, None] + grading[kd][None, :] - grading[sums]
    valid = known[sums] & mask[kd[:, None], kd[None, :]] & (dc != 0)
    if valid.any():
        absdc = np.where(valid, np.abs(dc), np.iinfo(np.int64).max)
        score = np.minimum(np.minimum(absF[kd][:, None], absF[kd][None, :]), absF[sums])
        score = np.where(absdc == absdc.min(), score, -1.0)
        a, b = np.unravel_index(int(np.argmax(score)), score.shape)
        m1, m2 = int(kd[a]), int(kd[b])
        defect = phi[m1] * phi[m2] * values[m1, m2] / phi[(m1 + m2) % M]
        eta = np.exp(-1j * np.angle(defect) / int(dc[a, b]))
        phi = np.where(known, phi * eta**grading, 0.0)
        phi[known] /= np.abs(phi[known])
    return values, mask, phi, known, grading


@SETTINGS
@given(small_indicator(), BLOCK_SIZES)
def test_quotient_and_propagation_match_dense_reference(case, block_cells):
    f, L = case
    with with_block_cells(block_cells):
        deck = deck_functions(f, len(f), L)
        psi2 = phase_quotient(deck)
        phase = propagate_phase(psi2.absF, psi2)
    values, mask, phi, known, grading = dense_reference(deck)
    D, k = psi2.D, np.arange(len(f))
    assert np.array_equal(D[:, None] & D & D[(k[:, None] + k) % len(f)], mask)
    assert psi2.at(*np.nonzero(mask)).tobytes() == values[mask].tobytes()
    assert np.array_equal(phase.known, known)
    assert np.array_equal(phase.grading, grading)
    assert phase.phi.tobytes() == phi.tobytes()


@SETTINGS
@given(small_indicator())
def test_known_frequencies_are_usable(case):
    # the gauge fix takes a known pair with known sum to be in D2; that rests
    # on every known frequency lying in D
    f, L = case
    psi2 = phase_quotient(deck_functions(f, len(f), L))
    phase = propagate_phase(psi2.absF, psi2)
    assert not (phase.known & ~psi2.D).any()


# ---------------------------------------------------------------------------
# align_up_to_translation: one FFT against the np.roll loop
# ---------------------------------------------------------------------------

def roll_loop(f, g):
    M = len(f)
    best_shift, best_mis = 0, M + 1
    for s in range(M):
        mis = int(np.count_nonzero(f != np.roll(g, s)))
        if mis < best_mis:
            best_shift, best_mis = s, mis
    return best_shift, best_mis / M


@st.composite
def grid_pair(draw):
    M = draw(st.integers(1, 40))
    bits = st.lists(st.integers(0, 1), min_size=M, max_size=M).map(np.array)
    f = draw(bits)
    kind = draw(st.sampled_from(["random", "shifted", "periodic"]))
    if kind == "random":
        g = draw(bits)
    elif kind == "shifted":
        g = np.roll(f, draw(st.integers(0, M - 1)))
    else:  # a repeated tile: every period of the tile ties
        tile = draw(st.lists(st.integers(0, 1), min_size=1, max_size=M))
        f = np.resize(np.array(tile), M)
        g = np.roll(f, draw(st.integers(0, M - 1)))
    return f, g


@SETTINGS
@given(grid_pair())
def test_align_matches_roll_loop(case):
    f, g = case
    assert align_up_to_translation(f, g) == roll_loop(f, g)


def test_align_ties_pick_the_smallest_shift():
    f = np.array([1, 0, 1, 0, 1, 0])
    assert align_up_to_translation(f, f) == (0, 0.0)
    assert align_up_to_translation(f, np.roll(f, 1)) == (1, 0.0)
    assert align_up_to_translation(np.zeros(5, dtype=int), np.ones(5, dtype=int)) == (0, 1.0)


@pytest.mark.parametrize("f, g", [
    (np.array([0, 2, 1]), np.array([0, 1, 1])),
    (np.array([0.5, 1, 0]), np.array([0, 1, 1])),
    (np.array([0, 1, 1]), np.array([0, 1])),
    (np.zeros((2, 2)), np.zeros((2, 2))),
    (np.zeros(0), np.zeros(0)),
], ids=["non-binary", "fraction", "sizes", "two-dimensional", "empty"])
def test_align_rejects_bad_grids(f, g):
    with pytest.raises(ParameterError):
        align_up_to_translation(f, g)
