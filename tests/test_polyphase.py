import numpy as np
import pytest
from hypothesis import given, strategies as st

from fbff.cyclic import Signal, twist
from fbff.constructions import daubechies4, mercedes_benz, DAUB_A, DAUB_B, DAUB_C, DAUB_D
from fbff.analysis import gram_stack
from fbff.polyphase import (
    bank_of,
    decompose,
    eval_all_roots,
    gram,
    matrix_of,
    zak_power_rows,
)
from fbff.signals import FilterBank
from refs import delta, inner, pp_inner, reconstruct, translate, zero


def _random_signal(rng, period):
    return rng.standard_normal(period) + 1j * rng.standard_normal(period)


def _random_matrix(rng, m, n, period):
    return np.array(
        [
            [rng.standard_normal(period) + 1j * rng.standard_normal(period) for _ in range(n)]
            for _ in range(m)
        ]
    )


def test_decompose_delta():
    v = decompose(delta(0, 8), 2)
    assert np.array_equal(v[0, 0], delta(0, 4))
    assert np.array_equal(v[1, 0], zero(4))


def test_decompose_offset_delta():
    v = decompose(delta(1, 4), 2)
    assert np.array_equal(v[0, 0], zero(2))
    assert np.array_equal(v[1, 0], delta(0, 2))


def test_round_trip_exact():
    rng = np.random.default_rng(0)
    phi = _random_signal(rng, 12)
    assert np.array_equal(reconstruct(decompose(phi, 3)), phi)


def test_reconstruct_zero_and_single_component():
    z = np.zeros((2, 1, 3))
    assert np.array_equal(reconstruct(z), zero(6))
    v = np.array([[[0, 0, 0]], [[1, 2, 3]]])
    out = reconstruct(v)
    assert np.all(out[0::2] == 0)
    np.testing.assert_array_equal(out[1::2], [1, 2, 3])


def test_decompose_requires_divisor():
    with pytest.raises(ValueError):
        decompose(zero(9), 2)


def test_matrix_of_mercedes_constants():
    fb = bank_of(mercedes_benz(4))
    mat = matrix_of(fb)
    expect = np.array([[1.0, -0.5, -0.5], [0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2]])
    for m in range(2):
        for n in range(3):
            assert np.array_equal(mat[m, n], delta(0, 4, expect[m, n]))


def test_matrix_of_daubechies_taps():
    fb = bank_of(daubechies4(4))
    low, high = fb.samples
    np.testing.assert_allclose(
        low[:4], [DAUB_A, DAUB_C, DAUB_B, DAUB_D], atol=0
    )
    np.testing.assert_allclose(
        high[:4], [DAUB_D, -DAUB_B, DAUB_C, -DAUB_A], atol=0
    )
    mat = matrix_of(fb)
    assert np.array_equal(mat[0, 0], [DAUB_A, DAUB_B, 0, 0])
    assert np.array_equal(mat[1, 1], [-DAUB_B, -DAUB_A, 0, 0])


def test_matrix_of_single_delta_filter():
    fb = FilterBank([delta(0, 8)], 2)
    mat = matrix_of(fb)
    assert np.array_equal(mat[0, 0], delta(0, 4))
    assert np.array_equal(mat[1, 0], zero(4))


def test_eval_constant_matrix():
    mat = mercedes_benz(5)
    e0 = eval_all_roots(mat)[..., 0]
    for p in range(5):
        np.testing.assert_allclose(eval_all_roots(mat)[..., p], e0, atol=1e-14)


def test_eval_daubechies_at_z_equal_one():
    mat = daubechies4(2)
    e = eval_all_roots(mat)[..., 0]  # z = 1
    np.testing.assert_allclose(e @ e.conj().T, np.eye(2), atol=1e-14)


def test_eval_matches_entry_evaluations():
    # gram evaluates each of the entry Signals that gram_stack builds through
    # eval_at_root, so its bits are those of the entrywise evaluations
    rng = np.random.default_rng(3)
    mat = _random_matrix(rng, 2, 2, 6)
    entries = [[Signal(x) for x in row] for row in mat]
    for p in range(6):
        e = np.array([[Signal(mat[m, n]).eval_at_root(p) for n in range(2)] for m in range(2)])
        assert np.array_equal(gram(entries, p), e @ e.conj().T)


def test_gram_mercedes_is_three_halves_identity():
    mat = mercedes_benz(4)
    for p in range(4):
        np.testing.assert_allclose(gram_stack(mat)[p], 1.5 * np.eye(2), atol=1e-14)


def test_gram_daubechies_is_identity():
    mat = daubechies4(8)
    for p in range(8):
        np.testing.assert_allclose(gram_stack(mat)[p], np.eye(2), atol=1e-12)


def test_gram_hermitian():
    rng = np.random.default_rng(4)
    mat = _random_matrix(rng, 3, 4, 5)
    for p in range(5):
        g = gram_stack(mat)[p]
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
                sum(abs(Signal(twist(vec[k, 0], s, r)).eval_at_root(p)) ** 2 for s in range(r))
                for p in range(q * r)
            ]
            for k in range(m)
        ]
    )
    assert rows.shape == (m, q)
    np.testing.assert_allclose(np.tile(rows, r), expect, rtol=0, atol=1e-12 * expect.max())


def test_zak_power_rows_needs_a_divisor():
    with pytest.raises(ValueError, match="redundancy"):
        zak_power_rows(decompose(delta(0, 8), 2), 3)


def test_pp_inner_delta():
    assert pp_inner(delta(0, 8), delta(0, 8), 2) == pytest.approx(1.0)


def test_pp_inner_orthogonal_signals():
    assert abs(pp_inner(delta(0, 8), delta(3, 8), 2)) <= 1e-12


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
        [Signal(c) for c in base[:, 0]], [Signal(c) for c in shifted[:, 0]]
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
    ex = np.stack([Signal(c).eval_all() for c in decompose(x, m)[:, 0]])
    ep = np.stack([Signal(c).eval_all() for c in decompose(phi, m)[:, 0]])
    rhs = np.sum(ex * np.conj(ep), axis=0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bank_of_inverts_matrix_of(m, n, period, seed):
    coeffs = _random_matrix(np.random.default_rng(seed), m, n, period)
    fb = bank_of(coeffs)
    mat = matrix_of(fb)
    assert np.array_equal(mat, coeffs) and not mat.flags.writeable
    again = FilterBank(fb.samples, m)
    assert np.array_equal(again.coeffs, coeffs)
    assert np.array_equal(bank_of(matrix_of(again)).samples, fb.samples)
    kept = coeffs.copy()
    coeffs[...] = 0  # the bank holds a copy
    assert np.array_equal(matrix_of(fb), kept)
    for bad in (kept[0], kept[..., None], *(np.delete(kept, np.s_[:], axis=a) for a in range(3))):
        with pytest.raises(ValueError, match=r"need an \(M, N, P\) array"):
            bank_of(bad)


def test_pp_inner_preconditions():
    with pytest.raises(ValueError):
        pp_inner(zero(8), zero(6), 2)
    with pytest.raises(ValueError):
        pp_inner(zero(9), zero(9), 2)


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6),
)
def test_round_trip_property(m, base):
    phi = np.tile(np.asarray(base, dtype=complex), m)
    assert np.array_equal(reconstruct(decompose(phi, m)), phi)
