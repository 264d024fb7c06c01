import numpy as np
import pytest

from fbff.analysis import fusion_report, gram_stack
from fbff.constructions import (
    DAUB_A,
    DAUB_B,
    DAUB_C,
    DAUB_D,
    daubechies4,
    daubechies_mercedes,
    elementary_paraunitary,
    mercedes_benz,
    modulated_daubechies_stack,
    named_matrix,
    paraunitary_chain,
    paraunitary_product,
    tensor,
    union,
)
from fbff.polyphase import bank_of, eval_all_roots
from fbff.cyclic import twist
from refs import delta, zero


def _linear(c0, c1, period):
    coeffs = np.zeros(period, dtype=complex)
    coeffs[0], coeffs[1] = c0, c1
    return coeffs


def _unitary_at_all_roots(mat, tol=1e-12):
    return all(
        np.max(np.abs(gram_stack(mat)[p] - np.eye(mat.shape[0]))) <= tol
        for p in range(mat.shape[2])
    )


def test_mercedes_filters():
    fb = bank_of(mercedes_benz(4))
    s3 = np.sqrt(3.0)
    assert np.array_equal(fb.samples[0], delta(0, 8))
    np.testing.assert_allclose(fb.samples[1][:2], [-0.5, s3 / 2], atol=0)
    np.testing.assert_allclose(fb.samples[2][:2], [-0.5, -s3 / 2], atol=0)


def test_mercedes_column_norms_at_z_one():
    e = eval_all_roots(mercedes_benz(2))[..., 0]
    np.testing.assert_allclose(np.linalg.norm(e, axis=0), np.ones(3), atol=1e-14)


def test_mercedes_report():
    rep = fusion_report(bank_of(mercedes_benz(2)))
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(1.5, abs=1e-12)


def test_daubechies_tap_values():
    # closed forms 2^(-5/2)(1 +/- sqrt3), 2^(-5/2)(3 -/+ sqrt3)
    assert DAUB_A == pytest.approx(0.48296291314453416, abs=1e-15)
    assert DAUB_B == pytest.approx(0.22414386804201339, abs=1e-15)
    assert DAUB_C == pytest.approx(0.83651630373780790, abs=1e-15)
    assert DAUB_D == pytest.approx(-0.12940952255126037, abs=1e-15)


def test_daubechies_unitary_at_all_roots():
    assert _unitary_at_all_roots(daubechies4(8))


def test_daubechies_period_one_folds_to_orthonormal_pair():
    mat = daubechies4(1)
    a, b, c, d = DAUB_A, DAUB_B, DAUB_C, DAUB_D
    assert np.array_equal(mat[0, 0], delta(0, 1, a + b))
    assert np.array_equal(mat[1, 1], delta(0, 1, -b - a))
    rep = fusion_report(bank_of(mat))
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(1.0, abs=1e-12)


def test_union_with_empty_is_identity():
    mat = daubechies4(4)
    empty = np.zeros((2, 0, 4))
    assert np.array_equal(union(mat, empty), mat)
    assert np.array_equal(union(empty, mat), mat)


def test_union_of_two_daubechies_copies():
    mat = union(daubechies4(4), daubechies4(4))
    rep = fusion_report(bank_of(mat))
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(2.0, abs=1e-9)


def test_union_shape_checks():
    with pytest.raises(ValueError):
        union(mercedes_benz(4), tensor(mercedes_benz(4), mercedes_benz(4)))
    with pytest.raises(ValueError):
        union(mercedes_benz(4), mercedes_benz(6))


def test_stacked_bank_matches_displayed_matrix():
    # columns 2,3 carry the quarter-band modulates: diag(1, j) times the
    # z -> -z twist of the base pair
    mat = modulated_daubechies_stack(4)
    a, b, c, d = DAUB_A, DAUB_B, DAUB_C, DAUB_D
    assert mat.shape[1] == 4
    expected = {
        (0, 2): _linear(a, -b, 4),
        (1, 2): _linear(1j * c, -1j * d, 4),
        (0, 3): _linear(d, -c, 4),
        (1, 3): _linear(-1j * b, 1j * a, 4),
    }
    for (m, n), want in expected.items():
        np.testing.assert_allclose(mat[m, n], want, atol=1e-15)


def test_stacked_bank_filters_are_modulates():
    mat = modulated_daubechies_stack(4)
    fb = bank_of(mat)
    base = bank_of(daubechies4(4))
    # filter n+2 is j^k times filter n, i.e. modulation by period/4
    for n in range(2):
        expect = twist(base.samples[n], fb.filter_period // 4, fb.filter_period)
        np.testing.assert_allclose(fb.samples[n + 2], expect, atol=1e-12)


def test_stacked_bank_quarter_band_shift():
    # |hat(phi)_{n+2}(w)| = |hat(psi)_n(w - pi/2)| at the DFT frequencies
    fb = bank_of(modulated_daubechies_stack(4))
    period = fb.filter_period
    k = np.arange(period)
    for n in range(2):
        spec_base = np.array(
            [
                abs(np.sum(fb.samples[n] * np.exp(-1j * k * w))) ** 2
                for w in 2 * np.pi * np.arange(period) / period
            ]
        )
        spec_mod = np.array(
            [
                abs(np.sum(fb.samples[n + 2] * np.exp(-1j * k * w))) ** 2
                for w in 2 * np.pi * np.arange(period) / period
            ]
        )
        shift = period // 4  # pi/2 in bins
        np.testing.assert_allclose(spec_mod, np.roll(spec_base, shift), atol=1e-9)


def test_tensor_with_identity():
    ident = np.array([[delta(0, 4)]])
    mat = mercedes_benz(4)
    assert np.array_equal(tensor(mat, ident), mat)
    assert np.array_equal(tensor(ident, mat), mat)


def test_tensor_of_mercedes_pair():
    mat = tensor(mercedes_benz(2), mercedes_benz(2))
    assert mat.shape[:2] == (4, 9)
    rep = fusion_report(bank_of(mat))
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(2.25, abs=1e-9)


def test_tensor_evaluates_to_kronecker():
    rng = np.random.default_rng(1)
    def rand_mat(m, n):
        rows = tuple(
            tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(n))
            for _ in range(m)
        )
        return np.array(rows)

    m0, m1 = rand_mat(2, 3), rand_mat(3, 2)
    out = tensor(m0, m1)
    for p in range(6):
        np.testing.assert_allclose(
            eval_all_roots(out)[..., p],
            np.kron(eval_all_roots(m0)[..., p], eval_all_roots(m1)[..., p]),
            atol=1e-10,
        )


def test_product_identity():
    ident = np.array(
        tuple(
            tuple(delta(0, 4, 1.0 if i == j else 0.0) for j in range(2))
            for i in range(2)
        )
    )
    mat = mercedes_benz(4)
    assert np.array_equal(paraunitary_product(ident, mat), mat)


def test_product_bank_first_column_is_lowpass():
    prod = daubechies_mercedes(4)
    base = daubechies4(4)
    for m in range(2):
        assert np.array_equal(prod[m, 0], base[m, 0])
    assert np.array_equal(prod[0, 0], _linear(DAUB_A, DAUB_B, 4))


def test_product_filters_combine_base_pair():
    # filters 1,2 are (-(low) +/- sqrt3 (high)) / 2
    fb = bank_of(daubechies_mercedes(4))
    base = bank_of(daubechies4(4))
    low, high = base.samples
    s3 = np.sqrt(3.0)
    np.testing.assert_allclose(
        fb.samples[1], 0.5 * (-low + s3 * high), atol=1e-14
    )
    np.testing.assert_allclose(
        fb.samples[2], 0.5 * (-low - s3 * high), atol=1e-14
    )


def test_product_matches_numeric_product_at_roots():
    chain = paraunitary_chain(2, 2, 8, seed=5)
    prod = paraunitary_product(chain, mercedes_benz(8))
    for p in range(8):
        np.testing.assert_allclose(
            eval_all_roots(prod)[..., p],
            eval_all_roots(chain)[..., p] @ eval_all_roots(mercedes_benz(8))[..., p],
            atol=1e-10,
        )


def test_product_rejects_non_square_left():
    with pytest.raises(ValueError):
        paraunitary_product(mercedes_benz(4), mercedes_benz(4))


def test_elementary_factor_basis_vector():
    mat = elementary_paraunitary(np.array([1.0, 0.0]), 4)
    assert np.array_equal(mat[0, 0], delta(3, 4))  # z = z^{-(P-1)}
    assert np.array_equal(mat[1, 1], delta(0, 4))
    assert np.array_equal(mat[0, 1], zero(4))


def test_elementary_factor_unitary():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    assert _unitary_at_all_roots(elementary_paraunitary(u, 6))


def test_elementary_factor_products_stay_unitary():
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(2):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u /= np.linalg.norm(u)
        mats.append(elementary_paraunitary(u, 6))
    prod = paraunitary_product(mats[0], mats[1])
    assert _unitary_at_all_roots(prod, tol=1e-10)


def test_elementary_factor_rejects_non_unit():
    with pytest.raises(ValueError):
        elementary_paraunitary(np.array([1.0, 1.0]), 4)


def test_closure_under_combinators():
    # unions, tensors, and unitary products of tight projection banks stay tight
    sources = [mercedes_benz(4), daubechies4(4)]
    for seed in range(3):
        chain = paraunitary_chain(2, 2, 4, seed=seed)
        sources.append(paraunitary_product(chain, mercedes_benz(4)))
    for i, m0 in enumerate(sources):
        for m1 in sources[i:]:
            assert fusion_report(bank_of(union(m0, m1)), tol=1e-9).is_puntf
            assert fusion_report(bank_of(tensor(m0, m1)), tol=1e-9).is_puntf


def test_named_matrix_lookup():
    assert np.array_equal(named_matrix("mercedes-benz", 4), mercedes_benz(4))
    with pytest.raises(ValueError):
        named_matrix("nope", 4)
