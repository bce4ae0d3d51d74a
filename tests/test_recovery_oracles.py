"""The window-recovery fast paths against their dense and per-cell references.

``reconstruct_goldens.json`` holds, for five acceptance windows and three
shifted benchmark windows at M = 512, 1024 and 2048 (L = 8), the sampled
indicator, the report JSON and the recovered grid (as runs of 1-cells) of
the dense implementation that preceded the row-block code.  The property
tests compare each stage with a plain reference on small grids; where the
arithmetic is the same, results must be equal bit for bit.
"""

import json
import math
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
from modelsets.reconstruct import _gauge_relation, _order_by_abs_k, _plan_assignments

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


@SETTINGS
@given(small_indicator())
def test_gradings_count_seed_steps(case):
    # the gauge scan's bound rests on grading[k] * seed = k (mod M) for every known k
    f, L = case
    M = len(f)
    psi2 = phase_quotient(deck_functions(f, M, L))
    phase = propagate_phase(psi2.absF, psi2)
    seed = next((int(m) for m in _order_by_abs_k(M) if m != 0 and psi2.D[m]), None)
    k = np.nonzero(phase.known)[0]
    if seed is None:
        assert k.tolist() == [0]
    else:
        assert np.array_equal(phase.grading[k] * seed % M, k)


def sweep_loop(order, seed, D, absF):
    """The sweep as one loop over ``order`` per pass, a fresh pair array per frequency."""
    M = len(order)
    known = np.zeros(M, dtype=bool)
    grading = np.zeros(M, dtype=np.int64)
    score = np.full(M, -1.0)
    score_rev = np.concatenate((score, score))[::-1].copy()

    def assign(m, grade):
        grading[m] = grade
        known[m] = True
        score[m] = score_rev[M - 1 - m] = score_rev[2 * M - 1 - m] = absF[m]

    assign(0, 0)
    if seed is not None:
        assign(seed, 1)
    plan = []
    changed = True
    while changed:
        changed = False
        for m in order:
            m = int(m)
            if known[m] or not D[m]:
                continue
            s = M - 1 - m
            pair = np.minimum(score, score_rev[s:s + M])
            m1 = int(np.argmax(pair))
            if pair[m1] < 0:
                continue
            mm2 = (m - m1) % M
            plan.append((m, m1, mm2))
            assign(m, grading[m1] + grading[mm2])
            changed = True
    return plan, known, grading


@pytest.mark.parametrize("M", [512, 2048])
@pytest.mark.parametrize("window", ["[0,1)", "[-0.5,0.5)", "[0,1)u[1.5,2.25)",
                                    "[0,0.4)u[0.6,1.1)", "[-1,1/tau)"])
def test_plan_matches_the_sweep_loop(window, M):
    psi2 = phase_quotient(deck_functions(sample_window(parse_window(window), M, 8.0), M, 8.0))
    order, D = _order_by_abs_k(M), psi2.D
    seed = next((int(m) for m in order if m != 0 and D[m]), None)
    plan, known, grading = _plan_assignments(order, seed, D, psi2.absF)
    ref_plan, ref_known, ref_grading = sweep_loop(order, seed, D, psi2.absF)
    assert plan == ref_plan
    assert np.array_equal(known, ref_known) and np.array_equal(grading, ref_grading)


def full_gauge_scan(known, grading, absF):
    """The gauge relation over all M x M pairs: smallest nonzero |dc|, best score, first."""
    M = len(known)
    k = np.arange(M)
    s = (k[:, None] + k) % M
    dc = grading[:, None] + grading[None, :] - grading[s]
    valid = known[:, None] & known[None, :] & known[s] & (dc != 0)
    if not valid.any():
        return None
    absdc = np.where(valid, np.abs(dc), np.iinfo(np.int64).max)
    score = np.minimum(np.minimum(absF[:, None], absF[None, :]), absF[s])
    score = np.where(absdc == absdc.min(), score, -1.0)
    m1, m2 = np.unravel_index(int(np.argmax(score)), score.shape)
    return int(m1), int(m2), int(dc[m1, m2])


def synthetic_gradings(rng, M, seed):
    """(known, grading) with grading[k] * seed = k (mod M), 0 and seed known, as the sweep keeps."""
    d = math.gcd(seed, M)
    inv = pow(seed // d, -1, M // d) if M // d > 1 else 0
    known = np.zeros(M, dtype=bool)
    known[::d] = rng.random(M // d) < rng.uniform(0.2, 1.0)
    known[0] = known[seed] = True
    grading = (np.arange(M) // d * inv) % (M // d) + (M // d) * rng.integers(-2, 3, M)
    grading[0], grading[seed] = 0, 1
    assert np.array_equal(grading * seed % M, np.arange(M) - np.arange(M) % d)
    return known, np.where(known, grading, 0).astype(np.int64)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scores", ["distinct", "ties", "constant"])
def test_pruned_gauge_scan_matches_full_scan(seed, scores, monkeypatch):
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(spectra, "BLOCK_CELLS", 100)   # several row blocks
    for _ in range(150):
        M = int(rng.choice([4, 6, 9, 12, 16, 30, 45, 64]))
        if seed >= M:
            continue
        known, grading = synthetic_gradings(rng, M, seed)
        if scores == "distinct":
            absF = rng.uniform(0.1, 1.0, M)
        elif scores == "ties":   # many equal scores: the first in row-major order wins
            absF = rng.choice([0.25, 0.5, 1.0], M)
        else:
            absF = np.ones(M)
        assert _gauge_relation(known, grading, absF, seed) == full_gauge_scan(known, grading, absF)


def test_pruned_gauge_scan_keeps_the_first_of_tied_relations():
    # M = 8, seed 1, grading[k] = k: every pair wrapping past M has dc = M = q;
    # with constant scores the first of them in row-major order, (1, 7), wins
    M = 8
    known, grading = np.ones(M, dtype=bool), np.arange(M, dtype=np.int64)
    assert _gauge_relation(known, grading, np.ones(M), 1) == (1, 7, 8)
    # a strictly better score in a later row wins, the ties after it do not
    absF = np.ones(M)
    absF[[1, 7]] = 0.5
    assert _gauge_relation(known, grading, absF, 1) == (2, 6, 8)
    assert full_gauge_scan(known, grading, absF) == (2, 6, 8)


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
