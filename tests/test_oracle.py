import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbff.analysis import FrameBounds, channel_defects, frame_bounds, fusion_report
from fbff.constructions import (
    daubechies4,
    daubechies_mercedes,
    mercedes_benz,
    paraunitary_chain,
)
from fbff.oracle import (
    _MAX_DIM,
    cross_check,
    dense_channel_gram,
    dense_frame_spectrum,
    densify,
    spectrum_union_check,
)
from fbff.polyphase import bank_of, decompose, matrix_of
from fbff.signals import FilterBank, Signal
from refs import channel_trace, delta, synthesis_apply, zero


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def test_densify_trivial_identity():
    fb = FilterBank((delta(0, 2),), 1)
    d = densify(fb)
    np.testing.assert_array_equal(d.reshape(len(d), -1), np.eye(2))


def test_densify_mercedes_gram():
    fb = bank_of(mercedes_benz(2))
    d = densify(fb)
    assert d.shape == (4, 3, 2) and not d.flags.writeable
    mat = d.reshape(len(d), -1)
    g = mat @ mat.conj().T
    np.testing.assert_allclose(g, 1.5 * np.eye(4), atol=1e-9)


def test_densify_columns_apply_like_synthesis():
    rng = np.random.default_rng(0)
    fb = FilterBank(tuple(_random_signal(rng, 12) for _ in range(3)), 2)
    d = densify(fb)
    ys = [_random_signal(rng, 6) for _ in range(3)]
    stacked = np.concatenate([y.samples for y in ys])
    direct = synthesis_apply(fb, ys)
    np.testing.assert_allclose(d.reshape(len(d), -1) @ stacked, direct.samples, atol=1e-12)


def test_densify_gate():
    with pytest.raises(ValueError):
        densify(FilterBank((zero(1024),), 2))


def test_densify_gate_edge():
    m = 2
    d = densify(FilterBank((zero(_MAX_DIM),), m))
    assert d.shape == (_MAX_DIM, 1, _MAX_DIM // m)
    with pytest.raises(ValueError, match="gated"):
        densify(FilterBank((zero(_MAX_DIM + m),), m))


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
    fb = FilterBank((delta(0, 6),), 2)
    dense = densify(fb)
    assert dense_channel_gram(dense)[0] <= 1e-9
    assert round(channel_trace(dense, 0)) == 3


def test_channel_gram_mercedes_ranks():
    fb = bank_of(mercedes_benz(2))
    d = densify(fb)
    assert np.all(dense_channel_gram(d) <= 1e-9)
    assert [round(channel_trace(d, n)) for n in range(3)] == [2, 2, 2]
    # the three projections sum to 1.5 I
    total = np.zeros((4, 4), dtype=complex)
    for n in range(3):
        cols = d[:, n, :]
        total += cols @ cols.conj().T
    np.testing.assert_allclose(total, 1.5 * np.eye(4), atol=1e-12)


def test_channel_gram_detects_non_projection():
    fb = FilterBank((delta(0, 6) + delta(2, 6),), 2)
    assert not dense_channel_gram(densify(fb))[0] <= 1e-9


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


def test_the_two_routes_share_no_eigensolver(monkeypatch):
    # the per-root route reads eigvalsh, the dense oracle the general
    # eigensolver: each still runs with the other's routine broken
    rng = np.random.default_rng(6)
    fb = FilterBank(tuple(_random_signal(rng, 16) for _ in range(3)), 2)
    rep = fusion_report(fb)
    assert not rep.is_tight
    general = np.linalg.eigvals
    calls = []

    def counted(a):
        calls.append(a.shape)
        return general(a)

    def broken(*args, **kwargs):
        raise AssertionError("the other route's eigensolver was called")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", broken)
        patch.setattr(np.linalg, "eigh", broken)
        patch.setattr(np.linalg, "eigvals", counted)
        assert cross_check(fb, rep)["agrees"] is True
    assert calls == [(16, 16)]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvals", broken)
        assert fusion_report(fb).bounds.A == rep.bounds.A


@pytest.mark.parametrize("random", [False, True], ids=["mercedes-benz", "random"])
def test_cross_check_catches_a_flipped_channel_verdict(random):
    rng = np.random.default_rng(4)
    fb = (
        FilterBank(tuple(_random_signal(rng, 6) for _ in range(3)), 2)
        if random
        else bank_of(mercedes_benz(4))
    )
    rep = fusion_report(fb)
    assert cross_check(fb, rep)["agrees"]
    flags = list(rep.channel_projection)
    flags[1] = not flags[1]
    out = cross_check(fb, replace(rep, channel_projection=tuple(flags)))
    assert out["spectrum_union_ok"]
    assert not out["channel_match"] and not out["agrees"]


def test_cross_check_compares_on_the_spectrum_scale():
    # samples of about 1e3 put B near 1e8; the absolute gaps of two correct
    # routes are then about 1e-7, well within 1e-8 of B
    rng = np.random.default_rng(0)
    fb = FilterBank(tuple(Signal(1e3 * _random_signal(rng, 16).samples) for _ in range(3)), 2)
    rep = fusion_report(fb)
    out = cross_check(fb, rep)
    assert out["B_dense"] > 1e8
    assert out["spectrum_union_ok"] and out["agrees"]
    assert spectrum_union_check(fb)
    shifted = replace(rep, bounds=FrameBounds(rep.bounds.spectra + 1e-7 * rep.bounds.B))
    out = cross_check(fb, shifted)
    assert not out["spectrum_union_ok"] and not out["agrees"]


@pytest.mark.parametrize("random", [False, True], ids=["mercedes-benz", "random"])
def test_cross_check_at_the_gate(random):
    # dense dimension 256: mercedes-benz at P = 128 and a random (8, 10, 32)
    rng = np.random.default_rng(5)
    fb = (
        FilterBank(tuple(_random_signal(rng, _MAX_DIM) for _ in range(10)), 8)
        if random
        else bank_of(mercedes_benz(_MAX_DIM // 2))
    )
    assert fb.filter_period == _MAX_DIM
    rep = fusion_report(fb)
    assert rep.is_puntf is not random
    assert cross_check(fb, rep)["agrees"]


def test_cross_check_at_the_gate_sees_a_scaled_filter():
    # filter 0 scaled by 1 + 1e-6 has defect about 2e-6: not a PUNTF, and
    # the dense frame operator is no longer diagonal, yet both routes agree
    tight = bank_of(mercedes_benz(_MAX_DIM // 2))
    scaled = Signal((1.0 + 1e-6) * tight.filters[0].samples)
    fb = FilterBank((scaled,) + tight.filters[1:], tight.downsample)
    rep = fusion_report(fb)
    assert not rep.is_puntf and not rep.channel_projection[0]
    out = cross_check(fb, rep)
    assert out["B_dense"] > 1.5 and out["agrees"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_channel_defect_matches_the_dense_gram_defect(m, p, n, paraunitary, seed):
    # paraunitary banks have projection channels (defects near 1e-16),
    # random ones do not
    rng = np.random.default_rng(seed)
    if paraunitary:
        fb = bank_of(paraunitary_chain(m, 2, p, seed=seed))
    else:
        fb = FilterBank(tuple(_random_signal(rng, m * p) for _ in range(n)), m)
    dense = densify(fb)
    defects = dense_channel_gram(dense)
    assert defects.shape == (fb.n_channels,)
    for idx, phi in enumerate(fb.filters):
        poly = channel_defects(decompose(phi, m))[0]
        assert abs(poly - defects[idx]) <= 1e-12 * max(1.0, poly)
        # the batched stack gives each channel's own dense Gram defect, bit for bit
        cols = dense[:, idx, :]
        assert defects[idx] == np.max(np.abs(cols.conj().T @ cols - np.eye(p)))


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_channel_gram_forms_no_dim_by_dim_matrix():
    # one channel of 2 translates at the gate's dimension 256: a dim x dim
    # complex matrix would take 1 MiB, the 2 x 2 Gram takes 64 bytes
    dense = densify(FilterBank((delta(0, _MAX_DIM),), _MAX_DIM // 2))
    defects, peak = _traced_peak(dense_channel_gram, dense)
    assert defects.tolist() == [0.0] and round(channel_trace(dense, 0)) == 2
    assert peak < _MAX_DIM * _MAX_DIM * 16 // 8
    # eight channels of 256 translates at the gate, (M, N, P) = (1, 8, 256):
    # the batched product holds the conjugated (P, N, P) array and the stack
    # of N P x P complex Grams, one stack each; a further stack-sized
    # temporary, such as T^H T - I out of place, would take a third
    n, p = 8, _MAX_DIM
    dense = densify(FilterBank(tuple(delta(k, p) for k in range(n)), 1))
    defects, peak = _traced_peak(dense_channel_gram, dense)
    assert defects.tolist() == [0.0] * n
    assert peak < 2.25 * n * p * p * 16
