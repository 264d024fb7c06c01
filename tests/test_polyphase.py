import numpy as np
import pytest
from hypothesis import given, strategies as st

from fbff.cyclic import CyclicPoly
from fbff.constructions import daubechies4, mercedes_benz, DAUB_A, DAUB_B, DAUB_C, DAUB_D
from fbff.polyphase import (
    PolyphaseMatrix,
    bank_of,
    decompose,
    eval_matrix,
    gram,
    matrix_of,
    pp_inner,
    reconstruct,
    zak_power_rows,
)
from fbff.signals import FilterBank, Signal, inner, translate


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def _random_matrix(rng, m, n, period):
    rows = tuple(
        tuple(
            CyclicPoly(rng.standard_normal(period) + 1j * rng.standard_normal(period)).coeffs
            for _ in range(n)
        )
        for _ in range(m)
    )
    return PolyphaseMatrix(np.array(rows))


def test_decompose_delta():
    v = decompose(Signal.delta(0, 8), 2)
    assert v.entry(0, 0) == CyclicPoly.constant(1.0, 4)
    assert v.entry(1, 0) == CyclicPoly.zero(4)


def test_decompose_offset_delta():
    v = decompose(Signal.delta(1, 4), 2)
    assert v.entry(0, 0) == CyclicPoly.zero(2)
    assert v.entry(1, 0) == CyclicPoly.constant(1.0, 2)


def test_round_trip_exact():
    rng = np.random.default_rng(0)
    phi = _random_signal(rng, 12)
    assert reconstruct(decompose(phi, 3)) == phi


def test_reconstruct_zero_and_single_component():
    z = PolyphaseMatrix(np.array([[CyclicPoly.zero(3).coeffs], [CyclicPoly.zero(3).coeffs]]))
    assert reconstruct(z) == Signal.zero(6)
    v = PolyphaseMatrix(np.array([[CyclicPoly.zero(3).coeffs], [CyclicPoly([1, 2, 3]).coeffs]]))
    out = reconstruct(v)
    assert np.all(out.samples[0::2] == 0)
    np.testing.assert_array_equal(out.samples[1::2], [1, 2, 3])


def test_decompose_requires_divisor():
    with pytest.raises(ValueError):
        decompose(Signal.zero(9), 2)


def test_matrix_of_mercedes_constants():
    fb = bank_of(mercedes_benz(4))
    mat = matrix_of(fb)
    expect = np.array([[1.0, -0.5, -0.5], [0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2]])
    for m in range(2):
        for n in range(3):
            assert mat.entry(m, n) == CyclicPoly.constant(expect[m, n], 4)


def test_matrix_of_daubechies_taps():
    fb = bank_of(daubechies4(4))
    low, high = fb.filters
    np.testing.assert_allclose(
        low.samples[:4], [DAUB_A, DAUB_C, DAUB_B, DAUB_D], atol=0
    )
    np.testing.assert_allclose(
        high.samples[:4], [DAUB_D, -DAUB_B, DAUB_C, -DAUB_A], atol=0
    )
    mat = matrix_of(fb)
    assert mat.entry(0, 0) == CyclicPoly([DAUB_A, DAUB_B, 0, 0])
    assert mat.entry(1, 1) == CyclicPoly([-DAUB_B, -DAUB_A, 0, 0])


def test_matrix_of_single_delta_filter():
    fb = FilterBank((Signal.delta(0, 8),), 2)
    mat = matrix_of(fb)
    assert mat.entry(0, 0) == CyclicPoly.constant(1.0, 4)
    assert mat.entry(1, 0) == CyclicPoly.zero(4)


def test_eval_constant_matrix():
    mat = mercedes_benz(5)
    e0 = eval_matrix(mat, 0)
    for p in range(5):
        np.testing.assert_allclose(eval_matrix(mat, p), e0, atol=1e-14)


def test_eval_daubechies_at_z_equal_one():
    mat = daubechies4(2)
    e = eval_matrix(mat, 0)  # z = 1
    np.testing.assert_allclose(e @ e.conj().T, np.eye(2), atol=1e-14)


def test_eval_matches_entry_evaluations():
    rng = np.random.default_rng(3)
    mat = _random_matrix(rng, 2, 2, 6)
    for p in range(6):
        e = eval_matrix(mat, p)
        for m in range(2):
            for n in range(2):
                assert e[m, n] == mat.entry(m, n).eval_at_root(p)


def test_gram_mercedes_is_three_halves_identity():
    mat = mercedes_benz(4)
    for p in range(4):
        np.testing.assert_allclose(gram(mat, p), 1.5 * np.eye(2), atol=1e-14)


def test_gram_daubechies_is_identity():
    mat = daubechies4(8)
    for p in range(8):
        np.testing.assert_allclose(gram(mat, p), np.eye(2), atol=1e-12)


def test_gram_hermitian():
    rng = np.random.default_rng(4)
    mat = _random_matrix(rng, 3, 4, 5)
    for p in range(5):
        g = gram(mat, p)
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)


@pytest.mark.parametrize(
    "m, q, r", [(2, 2, 2), (1, 3, 1), (3, 1, 4), (2, 4, 3), (3, 2, 1), (1, 1, 2)]
)
def test_zak_power_rows_fold_the_twisted_columns(m, q, r):
    # reference: the Zak matrix's columns, component m twisted by r of R,
    # evaluated root by root; the folded grid is its first Q roots, and the
    # reference repeats with period Q
    rng = np.random.default_rng(7)
    phi = _random_signal(rng, m * q * r)
    vec = decompose(phi, m)
    rows = zak_power_rows(vec, r)
    expect = np.array(
        [
            [
                sum(abs(vec.entry(k, 0).twist(s, r).eval_at_root(p)) ** 2 for s in range(r))
                for p in range(q * r)
            ]
            for k in range(m)
        ]
    )
    assert rows.shape == (m, q)
    np.testing.assert_allclose(np.tile(rows, r), expect, rtol=0, atol=1e-12 * expect.max())


def test_zak_power_rows_needs_a_divisor():
    with pytest.raises(ValueError, match="redundancy"):
        zak_power_rows(decompose(Signal.delta(0, 8), 2), 3)


def test_pp_inner_delta():
    assert pp_inner(Signal.delta(0, 8), Signal.delta(0, 8), 2) == pytest.approx(1.0)


def test_pp_inner_orthogonal_signals():
    assert abs(pp_inner(Signal.delta(0, 8), Signal.delta(3, 8), 2)) <= 1e-12


def test_pp_inner_unitarity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        phi = _random_signal(rng, 16)
        psi = _random_signal(rng, 16)
        assert pp_inner(phi, psi, 2) == pytest.approx(inner(phi, psi), abs=1e-10)


def test_translation_law_at_all_roots():
    # translating by M p0 multiplies every evaluated component by z^{-p0}
    rng = np.random.default_rng(9)
    m, inner_p = 3, 5
    phi = _random_signal(rng, m * inner_p)
    p0 = 2
    base = decompose(phi, m)
    shifted = decompose(translate(phi, m * p0), m)
    for comp_base, comp_shift in zip(
        [base.entry(k, 0) for k in range(m)], [shifted.entry(k, 0) for k in range(m)]
    ):
        for p in range(inner_p):
            factor = np.exp(-2j * np.pi * p * p0 / inner_p)
            assert comp_shift.eval_at_root(p) == pytest.approx(
                factor * comp_base.eval_at_root(p), abs=1e-12
            )


def test_fundamental_dft_identity():
    # DFT of p -> <x, T^{Mp} phi> equals the evaluated polyphase inner products
    rng = np.random.default_rng(10)
    m, inner_p = 2, 6
    x = _random_signal(rng, m * inner_p)
    phi = _random_signal(rng, m * inner_p)
    corr = np.array([inner(x, translate(phi, m * p)) for p in range(inner_p)])
    lhs = np.fft.fft(corr)
    ex = np.stack([decompose(x, m).entry(k, 0).eval_all() for k in range(m)])
    ep = np.stack([decompose(phi, m).entry(k, 0).eval_all() for k in range(m)])
    rhs = np.sum(ex * np.conj(ep), axis=0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_bank_of_inverts_matrix_of():
    rng = np.random.default_rng(11)
    fb = FilterBank(tuple(_random_signal(rng, 12) for _ in range(3)), 2)
    again = bank_of(matrix_of(fb))
    assert again.downsample == fb.downsample
    assert all(a == b for a, b in zip(again.filters, fb.filters))


def test_pp_inner_preconditions():
    with pytest.raises(ValueError):
        pp_inner(Signal.zero(8), Signal.zero(6), 2)
    with pytest.raises(ValueError):
        pp_inner(Signal.zero(9), Signal.zero(9), 2)


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6),
)
def test_round_trip_property(m, base):
    phi = Signal(np.tile(np.asarray(base, dtype=complex), m))
    assert reconstruct(decompose(phi, m)) == phi
