"""Phase quotient, propagation, window recovery, and alignment."""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modelsets
from modelsets import (CorrelationMeasure, DeckGrid, ParameterError, ReconstructionError,
                       Spectrum, align_up_to_translation, deck_functions, generate,
                       make_scheme, parse_window, phase_quotient, propagate_phase, roundtrip,
                       sample_window, save_pointset, spectra)
from modelsets.reconstruct import PhaseField, _raw_reconstruction, uncertain_cells

M, L = 512, 8.0


def _deck(literal, M=M, L=L):
    f = sample_window(parse_window(literal), M, L)
    return f, deck_functions(f, M, L)


def _admissible(psi2, k1, k2):
    """D2 membership: k1, k2 and k1 + k2 all usable."""
    D = psi2.D
    return D[k1] & D[k2] & D[(k1 + k2) % psi2.M]


def _admissible_pairs(psi2):
    """Index arrays (k1, k2) of every pair in D2."""
    k = np.arange(psi2.M)
    return np.nonzero(_admissible(psi2, k[:, None], k))


def test_phase_quotient_unit_modulus():
    _, deck = _deck("[0,1)u[1.5,2.25)")
    psi2 = phase_quotient(deck)
    assert psi2.at(0, 0) == pytest.approx(1.0, abs=1e-10)
    k1, k2 = _admissible_pairs(psi2)
    mags = np.abs(psi2.at(k1, k2))
    assert np.abs(mags - 1).max() < 1e-8
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, M, size=(10_000, 2))
    sel = _admissible(psi2, pairs[:, 0], pairs[:, 1])
    mags = np.abs(psi2.at(pairs[sel, 0], pairs[sel, 1]))
    assert np.abs(mags - 1).max() < 1e-8


def test_phase_quotient_symmetric_window_signs():
    # an exactly even indicator has a real transform; psi2 collapses to signs
    f = np.zeros(M, dtype=np.int64)
    width = 20
    f[:width + 1] = 1
    f[-width:] = 1  # support {-width..width} mod M: even
    deck = deck_functions(f, M, L)
    Fr = deck.cell * np.fft.fft(f)
    assert np.abs(Fr.imag).max() < 1e-9 * np.abs(Fr).max()
    psi2 = phase_quotient(deck)
    sign = np.sign(Fr.real)
    k1, k2 = _admissible_pairs(psi2)
    pred = sign[k1] * sign[k2] * sign[(k1 + k2) % M]
    got = psi2.at(k1, k2)
    assert np.abs(got - pred).max() < 1e-6


def test_phase_quotient_degenerate():
    # only k = 0 above the threshold, then all zero
    _, deck = _deck("[0,1)")
    for k0 in (1.0, 0.0):
        I1hat = np.zeros(M, dtype=complex)
        I1hat[0] = k0
        with pytest.raises(ParameterError, match="^degenerate input: no usable frequencies"):
            phase_quotient(dataclasses.replace(deck, I1hat=I1hat))


def test_propagation_refuses_a_zero_frequency_below_eps_zero():
    _, deck = _deck("[0,1)")
    psi2 = phase_quotient(deck)
    absF = psi2.absF.copy()
    absF[0] = psi2.eps_zero / 2
    degenerate = dataclasses.replace(psi2, absF=absF)
    with pytest.raises(ParameterError, match="^degenerate input: the zero frequency is "
                                             "below eps_zero$"):
        propagate_phase(absF, degenerate)


def test_propagation_zero_free_input_knows_everything():
    # a single occupied cell has |F| constant: no extinctions at all
    f = np.zeros(M, dtype=np.int64)
    f[0] = 1
    deck = deck_functions(f, M, L)
    psi2 = phase_quotient(deck)
    phase = propagate_phase(psi2.absF, psi2)
    assert phase.unknown_count == 0
    assert abs(phase.phi[0] - 1) < 1e-12
    assert np.abs(np.abs(phase.phi[phase.known]) - 1).max() < 1e-10


def test_propagation_reaches_all_usable_frequencies():
    # [0, 1) at this grid has exact extinctions at multiples of 16; the
    # propagation must reach every remaining frequency
    _, deck = _deck("[0,1)")
    psi2 = phase_quotient(deck)
    phase = propagate_phase(psi2.absF, psi2)
    D = psi2.D
    assert np.array_equal(phase.known, D)
    assert phase.unknown_count == int(np.count_nonzero(~D))
    assert phase.unknown_count == 31  # m = 16j, j = 1..31 are extinct on this grid


def test_propagation_consistency_residual():
    for lit in ["[0,1)", "[0,1)u[1.5,2.25)", "[-1,1/tau)"]:
        _, deck = _deck(lit)
        psi2 = phase_quotient(deck)
        phase = propagate_phase(psi2.absF, psi2)
        rng = np.random.default_rng(1)
        m1, m2 = np.array([rng.integers(0, M, 2) for _ in range(20_000)]).T
        m = (m1 + m2) % M
        sel = phase.known[m1] & phase.known[m2] & phase.known[m] & _admissible(psi2, m1, m2)
        m1, m2, m = m1[sel], m2[sel], m[sel]
        # one read of psi2 at every sampled pair: each read is a pass over the deck
        res = np.abs(phase.phi[m] - phase.phi[m1] * phase.phi[m2] * psi2.at(m1, m2))
        assert res.max() < 1e-6


def test_propagation_deterministic():
    _, deck = _deck("[0,0.4)u[0.6,1.1)")
    psi2 = phase_quotient(deck)
    p1 = propagate_phase(psi2.absF, psi2)
    p2 = propagate_phase(psi2.absF, psi2)
    assert np.array_equal(p1.phi, p2.phi)
    assert np.array_equal(p1.known, p2.known)


def test_reconstruct_window_roundtrip_unit_interval():
    f, deck = _deck("[0,1)")
    psi2 = phase_quotient(deck)
    phase = propagate_phase(psi2.absF, psi2)
    rec = (_raw_reconstruction(psi2, phase) >= 0.5).astype(np.int64)
    shift, mismatch = align_up_to_translation(f, rec)
    assert mismatch <= 0.01


def test_reconstruct_recovers_translate_not_reflection():
    f, deck = _deck("[0,1)u[1.5,2.25)")
    psi2 = phase_quotient(deck)
    phase = propagate_phase(psi2.absF, psi2)
    rec = (_raw_reconstruction(psi2, phase) >= 0.5).astype(np.int64)
    _, mismatch = align_up_to_translation(f, rec)
    assert mismatch < 0.01
    reflected = rec[(-np.arange(M)) % M]
    _, mis_ref = align_up_to_translation(f, reflected)
    support = int(f.sum())
    assert mis_ref * M / support > 0.05  # worse than 5% of the window cells


def test_reconstruct_symmetric_window_with_trivial_phase():
    # single occupied cell at index 0: transform is a positive constant, so
    # the all-ones phase already reproduces the indicator
    f = np.zeros(M, dtype=np.int64)
    f[0] = 1
    deck = deck_functions(f, M, L)
    psi2 = phase_quotient(deck)
    trivial = PhaseField(np.ones(M, dtype=complex), np.ones(M, dtype=bool),
                         np.zeros(M, dtype=np.int64))
    rec = (_raw_reconstruction(psi2, trivial) >= 0.5).astype(np.int64)
    assert np.array_equal(rec, f)


def test_reconstruct_requires_phase_coverage():
    _, deck = _deck("[0,1)")
    psi2 = phase_quotient(deck)
    sparse = PhaseField(np.where(np.arange(M) == 0, 1.0 + 0j, 0), np.arange(M) == 0,
                        np.zeros(M, dtype=np.int64))
    with pytest.raises(ReconstructionError) as err:
        _raw_reconstruction(psi2, sparse)
    assert err.value.partial is not None and len(err.value.partial) == M


def test_uncertain_cells_counted():
    f, deck = _deck("[-1,1/tau)")
    psi2 = phase_quotient(deck)
    phase = propagate_phase(psi2.absF, psi2)
    raw = _raw_reconstruction(psi2, phase)
    assert uncertain_cells(raw) <= 4


def test_recovery_reads_deck_data_only():
    # the deck holds the deck data and no indicator, the correlation table and
    # the spectrum hold no window, and the recovery thresholds in one place
    def names(cls):
        return {field.name for field in dataclasses.fields(cls)}

    # the indicator transform _F is kept for the deck's own check of I2hat alone
    assert names(DeckGrid) == {"M", "l_half", "I1", "rows", "I1hat", "row_hat", "_F"}
    assert "window" not in names(CorrelationMeasure) | names(Spectrum)
    assert not hasattr(modelsets.reconstruct, "reconstruct_window")
    assert not hasattr(modelsets, "reconstruct_window")


def test_reconstruction_never_reads_the_indicator_transform():
    tree = ast.parse(Path(modelsets.reconstruct.__file__).read_text())
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert "_F" not in names


def test_recovery_arrays_are_read_only():
    _, deck = _deck("[0,1)")
    psi2 = phase_quotient(deck)
    for a in (deck.I1, deck.rows, deck.I1hat, deck.row_hat, deck.I2hat, psi2.absF):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_align_examples():
    rng = np.random.default_rng(3)
    f = (rng.random(256) < 0.3).astype(np.int64)
    g = np.roll(f, -7)
    shift, mis = align_up_to_translation(f, g)
    assert (shift, mis) == (7, 0.0)
    assert align_up_to_translation(f, f) == (0, 0.0)


def test_align_reflection_of_asymmetric_grid():
    f = sample_window(parse_window("[0,0.4)u[0.6,1.1)"), M, L)
    g = f[(-np.arange(M)) % M]
    _, mis = align_up_to_translation(f, g)
    assert mis > 0


def test_gauge_covariance_under_translation():
    f, deck = _deck("[0,1)u[1.5,2.25)")
    a = 37
    deck2 = deck_functions(np.roll(f, a), M, L)
    assert np.allclose(deck.I1hat, deck2.I1hat, atol=1e-10)
    psi1 = phase_quotient(deck)
    psi2 = phase_quotient(deck2)
    assert np.array_equal(psi1.D, psi2.D)
    k1, k2 = _admissible_pairs(psi1)
    assert np.abs(psi1.at(k1, k2) - psi2.at(k1, k2)).max() < 1e-8
    rep1 = roundtrip(f, M, L)
    rep2 = roundtrip(np.roll(f, a), M, L)
    # both recoveries align perfectly onto their own inputs
    assert rep1.mismatch < 0.01 and rep2.mismatch < 0.01
    # and the recovered windows agree up to a circular shift
    _, cross = align_up_to_translation(rep1.recovered, rep2.recovered)
    assert cross < 0.01


def _traced_roundtrip(literal, M):
    """The report of a roundtrip of ``literal`` on M cells and its traced peak in bytes."""
    f = sample_window(parse_window(literal), M, L)
    tracemalloc.start()
    try:
        rep = roundtrip(f, M, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def test_roundtrip_traced_peak_at_largest_grid():
    # I2 is held once, as the transforms of its nonzero rows (575 of 2048 here),
    # columns 0..M/2 only (9.4 MB; the traced peak is 13.0 MB); psi2 and the
    # column blocks of I2hat are formed on read and never stored, so a
    # full-width row_hat (18.8 MB), a second rows x M array (4.7 MB even as
    # int32) or an M x M copy of either (64 MB complex) breaks this bound
    rep, peak = _traced_roundtrip("[0,1)u[1.5,2.25)", 2048)
    assert rep.mismatch < 0.01
    assert peak <= 15e6


def test_roundtrip_at_4096_cells():
    # the deck budget admits M = 4096: 1151 nonzero rows, 37.7 MB of row_hat,
    # a traced peak of 41.5 MB; a full-width row_hat (75.4 MB) breaks this bound
    rep, peak = _traced_roundtrip("[0,1)u[1.5,2.25)", 4096)
    assert rep.mismatch == 0
    assert peak <= 50e6


def traced_generate_and_save(scheme, window, region, path):
    """(patch, generate's traced peak, what it leaves held, save_pointset's peak above that)."""
    tracemalloc.start()
    try:
        ps = generate(scheme, window, region)
        gen_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        save_pointset(ps, str(path))
        save_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return ps, gen_peak, held, save_peak


def test_generate_and_save_traced_peaks(tmp_path):
    # the patch (723,607 points) is 16 bytes a point of coordinates; its positions
    # are formed on first use.  generate peaks at 17.3 bytes a point: the patch
    # array, sized by the region's candidates (one more than the points), and one
    # physical block's working memory, its candidates and the float temporaries
    # of the exact cut (0.93 MB).  save_pointset peaks at 2.4 MB above the patch,
    # one chunk of lines as bytes.  A region-wide candidate array (33.7 bytes a
    # point), positions held by the patch (+8), or lines decoded to str (3.1 MB)
    # break these
    ps, gen_peak, held, save_peak = traced_generate_and_save(
        make_scheme("fibonacci"), parse_window("[-1,1/tau)"), (-5e5, 5e5), tmp_path / "fib.txt")
    assert len(ps) == 723_607
    assert gen_peak <= 20 * len(ps) and gen_peak - held <= 1.2e6
    assert held <= 16 * len(ps) + 64e3
    assert save_peak <= 2.5e6


def test_generate_traced_peak_where_candidates_outnumber_points(tmp_path):
    # the residue factor {0}@32 keeps one candidate in 32; the patch array is sized
    # by the candidates it keeps, so generate holds the patch and one block
    # (1.0 MB), where a region-wide candidate array peaked at 6.1 MB
    ps, gen_peak, held, _ = traced_generate_and_save(
        make_scheme("combined", 32), parse_window("[-1,1/tau)x{0}@32"), (-2e5, 2e5),
        tmp_path / "fib0.txt")
    assert len(ps) == 9045
    assert gen_peak - held <= 1.2e6 and held <= 16 * len(ps) + 64e3


def test_roundtrip_checks_each_column_once(monkeypatch):
    # each psi2 read is one checked pass over the deck, whatever it reads, so a
    # solver that read psi2 entry by entry would pass over the deck per entry
    monkeypatch.setattr(spectra, "BLOCK_CELLS", 3000)   # 5 formed columns a block on one core
    checked = []
    check = spectra._factor_residual

    def recorded(block, c, *args):
        checked.extend(range(c.start, c.stop))
        return check(block, c, *args)

    monkeypatch.setattr(spectra, "_factor_residual", recorded)
    rep = roundtrip(sample_window(parse_window("[0,1)u[1.5,2.25)"), M, L), M, L)
    assert rep.mismatch < 0.01
    # the columns 0..M/2, each once, and no column above M/2; the blocks end in any order
    assert sorted(checked) == list(range(M // 2 + 1))


def test_roundtrip_report_json():
    f = sample_window(parse_window("[0,1)"), M, L)
    rep = roundtrip(f, M, L)
    import json
    payload = json.loads(rep.to_json())
    assert payload["M"] == M and payload["mismatch"] == rep.mismatch
    assert set(payload) == {"M", "L_half", "eps_zero", "unknown_count", "shift",
                            "mismatch", "uncertain_cells"}
