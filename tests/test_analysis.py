import numpy as np
import pytest

from fbff.analysis import (
    channel_defect,
    channel_is_projection,
    frame_bounds,
    fusion_report,
    hermitian_eigs,
    jacobi_eigh,
    report_to_json,
    verify_weighted_parseval,
)
from fbff.constructions import daubechies4, daubechies_mercedes, mercedes_benz, modulated_daubechies_stack
from fbff.polyphase import bank_of, matrix_of
from fbff.signals import FilterBank, Signal, translate_matrix


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _char_poly_roots(h):
    """Independent eigenvalue oracle: characteristic polynomial coefficients
    from Newton's identities on power-sum traces, then companion-matrix roots."""
    n = h.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ h)
    p = [np.trace(powers[k]).real for k in range(n + 1)]
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i]
        e.append(acc / k)
    # char(x) = x^n - e1 x^{n-1} + e2 x^{n-2} - ...
    coeffs = [1.0] + [(-1) ** k * e[k] for k in range(1, n + 1)]
    return np.sort(np.roots(coeffs).real)


def test_eigs_identity():
    np.testing.assert_allclose(hermitian_eigs(np.eye(3)), np.ones(3), atol=1e-14)


def test_eigs_diagonal_sorted():
    np.testing.assert_allclose(
        hermitian_eigs(np.diag([1.0, 3.0, 2.0])), [1.0, 2.0, 3.0], atol=1e-14
    )


def test_eigs_match_char_poly_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = _random_hermitian(rng, 4)
        np.testing.assert_allclose(
            hermitian_eigs(h), _char_poly_roots(h), atol=1e-8
        )


def test_eig_system_reconstruction_residual():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 8):
        h = _random_hermitian(rng, n)
        w, v = jacobi_eigh(h)
        scale = np.sqrt(np.sum(np.abs(h) ** 2))
        residual = np.sqrt(np.sum(np.abs(h @ v - v @ np.diag(w)) ** 2))
        assert residual <= 1e-9 * max(scale, 1e-30)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)


def test_eigs_zero_matrix():
    np.testing.assert_allclose(hermitian_eigs(np.zeros((3, 3))), np.zeros(3))


def test_eigs_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _assert_eig_system(h, w, v, tol):
    """Eigenvalues against numpy's (the test's reference only), unitary v
    and the reconstruction residual, all relative to the norm of h."""
    n = h.shape[0]
    scale = max(float(np.linalg.norm(h)), 1e-300)
    assert w.shape == (n,) and v.shape == (n, n)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= tol * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= tol * n
    assert np.max(np.abs(h @ v - v * w)) <= tol * scale


@pytest.mark.parametrize("n", [1, 3, 7, 33])
def test_jacobi_odd_sizes_drop_the_padding(n):
    h = _random_hermitian(np.random.default_rng(n), n)
    w, v = jacobi_eigh(h)
    _assert_eig_system(h, w, v, 1e-12)


def test_jacobi_equal_diagonals():
    # d = 0 in every pair: the rotation angle is pi/4
    w, v = jacobi_eigh(np.array([[1.0, 2j], [-2j, 1.0]]))
    np.testing.assert_allclose(w, [-1.0, 3.0], atol=1e-14)
    for n in (4, 9):
        h = np.ones((n, n), dtype=complex)
        w, v = jacobi_eigh(h)
        np.testing.assert_allclose(w, [0.0] * (n - 1) + [n], atol=1e-12)
        _assert_eig_system(h, w, v, 1e-12)


def test_jacobi_block_diagonal_never_mixes_blocks():
    # a_pq = 0 across the blocks: those pairs get the identity rotation
    rng = np.random.default_rng(4)
    for k, n in ((3, 8), (5, 11)):
        h = np.zeros((n, n), dtype=complex)
        h[:k, :k] = _random_hermitian(rng, k)
        h[k:, k:] = _random_hermitian(rng, n - k)
        w, v = jacobi_eigh(h)
        _assert_eig_system(h, w, v, 1e-12)
        in_first = np.abs(v[:k]).sum(axis=0) > 0
        in_second = np.abs(v[k:]).sum(axis=0) > 0
        assert not np.any(in_first & in_second)
        assert in_first.sum() == k


@pytest.mark.parametrize("n", [6, 17, 40])
def test_jacobi_repeated_eigenvalues(n):
    rng = np.random.default_rng(n)
    u = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    h = 1.5 * np.eye(n) + u @ u.conj().T
    w, v = jacobi_eigh(h)
    _assert_eig_system(h, w, v, 1e-12)
    np.testing.assert_allclose(w[: n - 2], 1.5, atol=1e-12 * np.linalg.norm(h))


@pytest.mark.parametrize("n", [64, 128])
def test_jacobi_large_against_reference(n):
    h = _random_hermitian(np.random.default_rng(n), n)
    w, v = jacobi_eigh(h)
    _assert_eig_system(h, w, v, 1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e200])
def test_jacobi_extreme_scales(scale):
    # the stopping rule's norms must neither underflow nor overflow
    h = _random_hermitian(np.random.default_rng(2), 9)
    np.testing.assert_allclose(
        hermitian_eigs(scale * h) / scale, hermitian_eigs(h), rtol=0, atol=1e-12 * np.linalg.norm(h)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jacobi_rejects_non_finite(bad):
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(h)


def test_frame_bounds_mercedes():
    fb = frame_bounds(mercedes_benz(4))
    assert fb.A == pytest.approx(1.5, abs=1e-12)
    assert fb.B == pytest.approx(1.5, abs=1e-12)
    assert len(fb.per_root) == 4


def test_frame_bounds_daubechies():
    fb = frame_bounds(daubechies4(8))
    assert fb.A == pytest.approx(1.0, abs=1e-12)
    assert fb.B == pytest.approx(1.0, abs=1e-12)


def test_frame_bounds_zero_bank():
    fb = frame_bounds(matrix_of(FilterBank((Signal.zero(8),), 2)))
    assert fb.A == 0.0 and fb.B == 0.0


def test_channel_projection_delta():
    assert channel_is_projection(Signal.delta(0, 8), 2)


def test_channel_projection_rejects_overlapping_translates():
    phi = Signal.delta(0, 8) + Signal.delta(2, 8)
    assert not channel_is_projection(phi, 2)


def test_channel_projection_daubechies_lowpass():
    fb = bank_of(daubechies4(4))
    assert channel_is_projection(fb.filters[0], 2)
    assert channel_is_projection(fb.filters[1], 2)


def test_channel_defect_reads_twice_the_scaling_of_a_projection_channel():
    # the defect is the largest entry of T^H T - I: (1 + d)^2 - 1 = 2d + d^2
    phi = bank_of(mercedes_benz(16)).filters[0]
    assert channel_defect(phi, 2) <= 1e-15
    for d in (1e-11, 1e-8, 1e-3):
        scaled = Signal((1.0 + d) * phi.samples)
        assert channel_defect(scaled, 2) == pytest.approx(2 * d + d * d, rel=1e-4)
    assert channel_is_projection(Signal((1.0 + 4e-10) * phi.samples), 2, tol=1e-9)
    assert not channel_is_projection(Signal((1.0 + 6e-10) * phi.samples), 2, tol=1e-9)


def test_channel_defect_is_the_largest_autocorrelation_defect():
    rng = np.random.default_rng(6)
    phi = Signal(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    t = translate_matrix(phi, 3)
    expected = np.max(np.abs(t.conj().T @ t - np.eye(4)))
    assert channel_defect(phi, 3) == pytest.approx(expected, rel=1e-12)


def test_channel_projection_overflow_is_value_error():
    # finite samples whose squared polyphase norms overflow have no verdict
    phi = Signal(np.array([1e200, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not finite"):
        channel_is_projection(phi, 2)


def test_fusion_report_product_bank():
    rep = fusion_report(bank_of(daubechies_mercedes(4)))
    assert rep.is_puntf and rep.is_tight
    assert rep.bounds.A == pytest.approx(1.5, abs=1e-9)
    assert rep.bounds.B == pytest.approx(1.5, abs=1e-9)
    assert rep.channel_projection == (True, True, True)
    assert rep.redundancy.numerator == 3 and rep.redundancy.denominator == 2
    assert rep.projection_rank == 4


def test_fusion_report_stacked_bank():
    rep = fusion_report(bank_of(modulated_daubechies_stack(4)))
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(2.0, abs=1e-9)
    assert rep.bounds.B == pytest.approx(2.0, abs=1e-9)
    assert all(rep.channel_projection)


def test_fusion_report_zero_bank_not_tight():
    rep = fusion_report(FilterBank((Signal.zero(8),), 2))
    assert not rep.is_tight and not rep.is_puntf


def test_fusion_report_json_shape():
    rep = fusion_report(bank_of(mercedes_benz(2)))
    obj = report_to_json(rep)
    assert obj["is_puntf"] is True
    assert obj["A"] == pytest.approx(1.5)
    assert obj["redundancy"] == {"num": 3, "den": 2}
    assert len(obj["per_root"]) == 2


def test_weighted_parseval_identity():
    ok, residual = verify_weighted_parseval(
        [(np.eye(4), 1.0)], dim=4, tol=1e-12
    )
    assert ok and residual <= 1e-15


def test_weighted_parseval_tetrahedron():
    # four rank-2 projections onto the orthogonal complements of tetrahedron
    # vertices resolve the identity with weight 3/8 each
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    projections = []
    for v in verts:
        basis = np.linalg.eigh(np.eye(3) - np.outer(v, v))[1][:, 1:]  # of v's complement
        projections.append((basis, 3.0 / 8.0))
    ok, residual = verify_weighted_parseval(projections, dim=3, tol=1e-12)
    assert ok
    assert residual <= 1e-12


def test_weighted_parseval_detects_bad_weights():
    ok, residual = verify_weighted_parseval(
        [(np.eye(4), 0.5)], dim=4, tol=1e-9
    )
    assert not ok and residual == pytest.approx(0.5)


def test_weighted_parseval_detects_non_projection():
    mat = np.diag([np.sqrt(2.0), 1.0, 1.0])  # T T^H = diag(2, 1, 1)
    ok, _ = verify_weighted_parseval(
        [(mat, 1.0)], dim=3, tol=1e-9
    )
    assert not ok


def test_weighted_parseval_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_weighted_parseval([(np.eye(3)[:2], 1.0, 2)], dim=3)


def test_weighted_parseval_rejects_a_basis_of_the_wrong_length():
    with pytest.raises(ValueError, match="shape"):
        verify_weighted_parseval([(np.eye(3)[:2], 1.0)], dim=3)


def test_random_bank_verdicts_match_dense_oracle():
    # smaller version of the acceptance ensemble, mixing in projection banks
    from fbff.oracle import dense_channel_gram, dense_frame_spectrum, densify, spectrum_union_check

    rng = np.random.default_rng(2)
    banks = [bank_of(mercedes_benz(3)), bank_of(daubechies4(4))]
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, m + 4))
        p = int(rng.integers(2, 5))
        filters = tuple(
            Signal(rng.standard_normal(m * p) + 1j * rng.standard_normal(m * p))
            for _ in range(n)
        )
        banks.append(FilterBank(filters, m))
    for fb in banks:
        bounds = frame_bounds(matrix_of(fb))
        spectrum = dense_frame_spectrum(densify(fb))
        assert max(spectrum[0], 0.0) == pytest.approx(bounds.A, abs=1e-8)
        assert spectrum[-1] == pytest.approx(bounds.B, abs=1e-8)
        dense = densify(fb)
        for idx, phi in enumerate(fb.filters):
            assert channel_is_projection(phi, fb.downsample, 1e-9) == dense_channel_gram(
                dense, idx, tol=1e-9
            ).is_projection
        assert spectrum_union_check(fb)


def test_puntf_iff_dense_structure():
    # is_puntf must agree with a dense check: frame operator (N/M) I and
    # every channel Gram idempotent
    from fbff.oracle import dense_channel_gram, densify

    rng = np.random.default_rng(3)
    banks = [
        bank_of(mercedes_benz(2)),
        bank_of(daubechies_mercedes(4)),
        bank_of(modulated_daubechies_stack(2)),
    ]
    for _ in range(5):
        filters = tuple(
            Signal(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            for _ in range(3)
        )
        banks.append(FilterBank(filters, 2))
    for fb in banks:
        rep = fusion_report(fb)
        dense = densify(fb)
        g = dense.matrix @ dense.matrix.conj().T
        target = fb.n_channels / fb.downsample
        dense_tight = np.max(np.abs(g - target * np.eye(g.shape[0]))) <= 1e-9 * target
        dense_channels = all(
            dense_channel_gram(dense, n, tol=1e-9).is_projection
            for n in range(fb.n_channels)
        )
        assert rep.is_puntf == (dense_tight and dense_channels)
