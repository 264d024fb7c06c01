from dataclasses import replace

import numpy as np
import pytest

from fbff.analysis import FrameBounds, frame_bounds, fusion_report
from fbff.constructions import daubechies4, daubechies_mercedes, mercedes_benz
from fbff.oracle import (
    _MAX_DIM,
    cross_check,
    dense_channel_gram,
    dense_frame_spectrum,
    densify,
    spectrum_union_check,
)
from fbff.polyphase import bank_of, matrix_of
from fbff.signals import FilterBank, Signal, synthesis_apply


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def test_densify_trivial_identity():
    fb = FilterBank((Signal.delta(0, 2),), 1)
    d = densify(fb)
    np.testing.assert_array_equal(d.matrix, np.eye(2))


def test_densify_mercedes_gram():
    fb = bank_of(mercedes_benz(2))
    d = densify(fb)
    assert d.matrix.shape == (4, 6)
    g = d.matrix @ d.matrix.conj().T
    np.testing.assert_allclose(g, 1.5 * np.eye(4), atol=1e-9)


def test_densify_columns_apply_like_synthesis():
    rng = np.random.default_rng(0)
    fb = FilterBank(tuple(_random_signal(rng, 12) for _ in range(3)), 2)
    d = densify(fb)
    ys = [_random_signal(rng, 6) for _ in range(3)]
    stacked = np.concatenate([y.samples for y in ys])
    direct = synthesis_apply(fb, ys)
    np.testing.assert_allclose(d.matrix @ stacked, direct.samples, atol=1e-12)


def test_densify_gate():
    with pytest.raises(ValueError):
        densify(FilterBank((Signal.zero(1024),), 2))


def test_densify_gate_edge():
    m = 2
    d = densify(FilterBank((Signal.zero(_MAX_DIM),), m))
    assert d.matrix.shape == (_MAX_DIM, _MAX_DIM // m)
    with pytest.raises(ValueError, match="gated"):
        densify(FilterBank((Signal.zero(_MAX_DIM + m),), m))


def test_spectrum_of_tight_bank_is_flat():
    fb = bank_of(daubechies_mercedes(4))
    spectrum = dense_frame_spectrum(densify(fb))
    np.testing.assert_allclose(spectrum, 1.5 * np.ones(8), atol=1e-9)


def test_spectrum_extremes_match_polyphase_bounds():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, m + 3))
        p = int(rng.integers(2, 5))
        fb = FilterBank(
            tuple(_random_signal(rng, m * p) for _ in range(n)), m
        )
        spectrum = dense_frame_spectrum(densify(fb))
        bounds = frame_bounds(matrix_of(fb))
        assert max(spectrum[0], 0.0) == pytest.approx(bounds.A, abs=1e-8)
        assert spectrum[-1] == pytest.approx(bounds.B, abs=1e-8)


def test_channel_gram_delta():
    fb = FilterBank((Signal.delta(0, 6),), 2)
    cg = dense_channel_gram(densify(fb), 0)
    assert cg.is_projection and cg.rank == 3


def test_channel_gram_mercedes_ranks():
    fb = bank_of(mercedes_benz(2))
    d = densify(fb)
    grams = [dense_channel_gram(d, n) for n in range(3)]
    assert all(cg.is_projection for cg in grams)
    assert [cg.rank for cg in grams] == [2, 2, 2]
    # the three projections sum to 1.5 I
    total = np.zeros((4, 4), dtype=complex)
    for n in range(3):
        cols = d.matrix[:, 2 * n : 2 * n + 2]
        total += cols @ cols.conj().T
    np.testing.assert_allclose(total, 1.5 * np.eye(4), atol=1e-12)


def test_channel_gram_detects_non_projection():
    fb = FilterBank((Signal.delta(0, 6) + Signal.delta(2, 6),), 2)
    cg = dense_channel_gram(densify(fb), 0)
    assert not cg.is_projection


def test_channel_gram_index_check():
    fb = bank_of(mercedes_benz(2))
    with pytest.raises(ValueError):
        dense_channel_gram(densify(fb), 3)


def test_spectrum_union_constant_bank():
    fb = bank_of(mercedes_benz(2))
    assert spectrum_union_check(fb)


def test_spectrum_union_daubechies_all_ones():
    fb = bank_of(daubechies4(4))
    assert spectrum_union_check(fb)
    spectrum = dense_frame_spectrum(densify(fb))
    np.testing.assert_allclose(spectrum, np.ones(8), atol=1e-9)


def test_spectrum_union_random_bank():
    rng = np.random.default_rng(2)
    fb = FilterBank(tuple(_random_signal(rng, 6) for _ in range(3)), 2)
    assert spectrum_union_check(fb)


def test_cross_check_reads_the_report_spectra():
    rng = np.random.default_rng(3)
    fb = FilterBank(tuple(_random_signal(rng, 6) for _ in range(3)), 2)
    rep = fusion_report(fb)
    assert cross_check(fb, rep)["agrees"]
    shifted = replace(rep, bounds=FrameBounds(rep.bounds.spectra + 1e-6))
    out = cross_check(fb, shifted)
    assert not out["spectrum_union_ok"] and not out["agrees"]
