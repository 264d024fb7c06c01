import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbff import analysis, cyclic
from fbff.analysis import (
    channel_defects,
    channel_is_projection,
    frame_bounds,
    fusion_report,
    hermitian_eigs,
    isometry_defect,
    report_to_json,
)
from fbff.constructions import (
    daubechies4,
    daubechies_mercedes,
    mercedes_benz,
    modulated_daubechies_stack,
    named_matrix,
)
from fbff.multilevel import verify_weighted_parseval
from fbff.polyphase import bank_of, decompose, eval_all_roots, matrix_of
from fbff.signals import FilterBank, translate_matrix
from refs import delta, zero


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
        w = hermitian_eigs(h)
        np.testing.assert_allclose(w, _char_poly_roots(h), rtol=0, atol=1e-9 * _frobenius(h))
        _assert_spectral_invariants(h, w)


def test_eigs_zero_matrix():
    np.testing.assert_allclose(hermitian_eigs(np.zeros((3, 3))), np.zeros(3))


def test_eigs_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _frobenius(h):
    return float(np.sqrt(np.sum(np.abs(h) ** 2)))


def _assert_spectral_invariants(h, w):
    """Sum of eigenvalues is the trace and sum of squares the squared
    Frobenius norm, both to 1e-12 relative: no LAPACK reference needed."""
    scale = max(_frobenius(h), 1e-300)
    assert abs(np.sum(w) - np.trace(h).real) <= 1e-12 * scale
    assert abs(np.sum(w**2) - scale**2) <= 1e-12 * scale**2


def _assert_spectrum(h, w, tol):
    """Shape, ascending order and agreement with numpy's eigvalsh (the
    test's reference only), relative to the norm of h, and the invariants."""
    n = h.shape[0]
    scale = max(float(np.linalg.norm(h)), 1e-300)
    assert w.shape == (n,)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= tol * scale
    _assert_spectral_invariants(h, w)


@pytest.mark.parametrize("n", [1, 3, 7, 33])
def test_hermitian_eigs_odd_sizes(n):
    h = _random_hermitian(np.random.default_rng(n), n)
    _assert_spectrum(h, hermitian_eigs(h), 1e-12)


def test_hermitian_eigs_equal_diagonals():
    # equal diagonal entries; the all-ones matrix has an (n-1)-fold zero
    w = hermitian_eigs(np.array([[1.0, 2j], [-2j, 1.0]]))
    np.testing.assert_allclose(w, [-1.0, 3.0], atol=1e-14)
    for n in (4, 9):
        h = np.ones((n, n), dtype=complex)
        w = hermitian_eigs(h)
        np.testing.assert_allclose(w, [0.0] * (n - 1) + [n], atol=1e-12)
        _assert_spectrum(h, w, 1e-12)


def test_hermitian_eigs_block_diagonal_never_mixes_blocks():
    # no coupling across the blocks: the reduced form splits there, and
    # the spectrum is the sorted union of the blocks' own spectra
    rng = np.random.default_rng(4)
    for k, n in ((3, 8), (5, 11)):
        first, second = _random_hermitian(rng, k), _random_hermitian(rng, n - k)
        h = np.zeros((n, n), dtype=complex)
        h[:k, :k] = first
        h[k:, k:] = second
        w = hermitian_eigs(h)
        _assert_spectrum(h, w, 1e-12)
        union = np.sort(np.concatenate([hermitian_eigs(first), hermitian_eigs(second)]))
        np.testing.assert_allclose(w, union, rtol=0, atol=1e-12 * _frobenius(h))


@pytest.mark.parametrize("n", [6, 17, 40])
def test_hermitian_eigs_repeated_eigenvalues(n):
    rng = np.random.default_rng(n)
    u = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    h = 1.5 * np.eye(n) + u @ u.conj().T
    w = hermitian_eigs(h)
    _assert_spectrum(h, w, 1e-12)
    np.testing.assert_allclose(w[: n - 2], 1.5, atol=1e-12 * np.linalg.norm(h))


@pytest.mark.parametrize("n", [64, 128, 256])
def test_hermitian_eigs_large_against_reference(n):
    h = _random_hermitian(np.random.default_rng(n), n)
    _assert_spectrum(h, hermitian_eigs(h), 1e-12)


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _wilkinson_plus(m=10):
    # W_{2m+1}^+: its largest eigenvalues come in close pairs; at m = 10
    # the top pair is 7e-14 apart
    return _tridiagonal(np.abs(np.arange(-m, m + 1)).astype(float), np.ones(2 * m))


def _glued_wilkinson(copies=4, glue=1e-7):
    w = _wilkinson_plus()
    k = len(w)
    h = np.kron(np.eye(copies), w)
    for j in range(1, copies):
        h[j * k, j * k - 1] = h[j * k - 1, j * k] = glue
    return h


def _graded(n=20):
    # entries fall by 10x per row, from 1 down to 1e-19
    return _tridiagonal(10.0 ** -np.arange(n), 10.0 ** -(np.arange(n - 1) + 0.5))


@pytest.mark.parametrize(
    "h",
    [
        _wilkinson_plus(),
        _glued_wilkinson(),
        _graded(),
        _graded()[::-1, ::-1],
        _tridiagonal(np.zeros(30), np.ones(29)),
        _tridiagonal(np.zeros(31), np.ones(30)),
    ],
    ids=["wilkinson-21", "glued-wilkinson", "graded-down", "graded-up", "path-30", "path-31"],
)
def test_eigs_of_hard_tridiagonal_matrices(h):
    # close eigenvalue pairs, both directions of grading (a shifted QR or QL
    # sweep deflates at one end), and a zero diagonal, whose spectrum is
    # symmetric about 0 and contains 0 at odd n
    _assert_spectrum(h, hermitian_eigs(h), 1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e200])
def test_hermitian_eigs_extreme_scales(scale):
    # the off-diagonal test's Frobenius norms and the solver's own scaling
    # must neither underflow nor overflow
    h = _random_hermitian(np.random.default_rng(2), 9)
    w = hermitian_eigs(scale * h) / scale
    np.testing.assert_allclose(
        w, hermitian_eigs(h), rtol=0, atol=1e-12 * np.linalg.norm(h)
    )
    _assert_spectral_invariants(h, w)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_eigs_rejects_non_finite(bad):
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigs(h)


@pytest.mark.parametrize(
    "h",
    [[[0.0, 1e-12], [0.0, 0.0]], [[1e-11, 5e-11], [-5e-11, 2e-11]]],
    ids=["nilpotent", "anti-hermitian-part"],
)
def test_eigs_reject_non_hermitian_below_unit_scale(h):
    # the check is relative to the largest entry: no scale is small enough
    # to have its anti-Hermitian part dropped
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigs(np.array(h))


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["positive-zero", "negative-zero"])
def test_tridiagonal_eigs_of_a_signed_zero_diagonal(first):
    # a zero diagonal whose first entry is +0 or -0, unit subdiagonal: the
    # sign of the zero must not change the spectrum -sqrt(2), 0, sqrt(2)
    h = np.array([[first, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(hermitian_eigs(h), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=44),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# rank 2 of 29: a deflation test relative to the neighbouring diagonal
# entries alone never passes among the 27 zero eigenvalues' rounding noise
@example(n=29, cols=2, clustered=False, seed=0)
def test_eigs_of_gram_matrices_match_reference(n, cols, clustered, seed):
    # S = D D^H is PSD; fewer columns than rows makes it rank-deficient, and
    # orthonormal columns scaled by 1 + O(1e-9) cluster its nonzero spectrum
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    if clustered:
        q, _ = np.linalg.qr(d[:, : min(n, cols)])
        d = q * (1.0 + 1e-9 * rng.random(q.shape[1]))
    h = d @ d.conj().T
    _assert_spectrum(h, hermitian_eigs(h), 1e-12)


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
    fb = frame_bounds(matrix_of(FilterBank([zero(8)], 2)))
    assert fb.A == 0.0 and fb.B == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_root_and_fft_grams_match_a_long_double_reference(seed):
    # both routes against Grams summed in np.clongdouble (64-bit mantissa,
    # pi to 1e-19) at each root.  A root formed from the float product
    # 2 pi p q / P would cost about 1e-14 of max|G| here; a root read at an
    # exact integer exponent, or one FFT, stays within a few ulps.
    coeffs = np.random.default_rng(seed).standard_normal((4, 6, 128, 2)) @ [1, 1j]
    period = coeffs.shape[-1]
    pi = 4 * np.arctan(np.longdouble(1))
    angle = (np.outer(np.arange(period), np.arange(period)) % period) * (-2 * pi / period)
    roots = np.exp(1j * angle)
    values = np.einsum("mnq,pq->pmn", coeffs.astype(np.clongdouble), roots)
    reference = values @ values.conj().transpose(0, 2, 1)
    fft_values = np.moveaxis(eval_all_roots(coeffs), -1, 0)
    bound = 2e-15 * float(np.max(np.abs(reference)))
    for grams in (
        analysis.gram_stack(coeffs),
        fft_values @ fft_values.conj().transpose(0, 2, 1),
    ):
        assert float(np.max(np.abs(grams - reference))) <= bound


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gram_stack_is_the_integer_exponent_gather_bit_for_bit(seed):
    # every Gram entry from values that read the root table at the integer
    # exponents q p mod P, written out here: the cached rows of root powers
    # change no bit of the stack
    coeffs = np.random.default_rng(seed).standard_normal((4, 6, 128, 2)) @ [1, 1j]
    period = coeffs.shape[-1]
    roots = cyclic._roots_of_unity(period)
    expected = []
    for p in range(period):
        row = roots[np.arange(period) * p % period]
        e = np.array([[complex(entry @ row) for entry in line] for line in coeffs])
        expected.append(e @ e.conj().T)
    assert np.array_equal(analysis.gram_stack(coeffs), np.stack(expected))


def test_gram_stack_builds_each_entry_once_and_evaluates_it_at_every_root(monkeypatch):
    # counts, which repeat exactly: one Signal per entry per bank (not per
    # entry per root), and one eval_at_root per entry per root
    m, n, period = 3, 4, 16
    coeffs = np.random.default_rng(17).standard_normal((m, n, period, 2)) @ [1, 1j]
    counts = {"built": 0, "evaluated": 0}
    post_init, eval_at_root = cyclic.Signal.__post_init__, cyclic.Signal.eval_at_root

    def counted_post_init(self):
        counts["built"] += 1
        post_init(self)

    def counted_eval_at_root(self, p):
        counts["evaluated"] += 1
        return eval_at_root(self, p)

    monkeypatch.setattr(cyclic.Signal, "__post_init__", counted_post_init)
    monkeypatch.setattr(cyclic.Signal, "eval_at_root", counted_eval_at_root)
    analysis.gram_stack(coeffs)
    assert counts["built"] <= m * n
    assert counts["evaluated"] == m * n * period


def test_channel_projection_delta():
    assert channel_is_projection(delta(0, 8), 2)


def test_channel_projection_rejects_overlapping_translates():
    phi = delta(0, 8) + delta(2, 8)
    assert not channel_is_projection(phi, 2)


def test_channel_projection_daubechies_lowpass():
    fb = bank_of(daubechies4(4))
    assert channel_is_projection(fb.samples[0], 2)
    assert channel_is_projection(fb.samples[1], 2)


def test_channel_defect_reads_twice_the_scaling_of_a_projection_channel():
    # the defect is the largest entry of T^H T - I: (1 + d)^2 - 1 = 2d + d^2
    phi = bank_of(mercedes_benz(16)).samples[0]
    assert channel_defects(decompose(phi, 2))[0] <= 1e-15
    for d in (1e-11, 1e-8, 1e-3):
        scaled = (1.0 + d) * phi
        assert channel_defects(decompose(scaled, 2))[0] == pytest.approx(2 * d + d * d, rel=1e-4)
    assert channel_is_projection((1.0 + 4e-10) * phi, 2, tol=1e-9)
    assert not channel_is_projection((1.0 + 6e-10) * phi, 2, tol=1e-9)


def test_channel_defect_is_the_largest_autocorrelation_defect():
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    t = translate_matrix(phi, 3)
    expected = np.max(np.abs(t.conj().T @ t - np.eye(4)))
    assert channel_defects(decompose(phi, 3))[0] == pytest.approx(expected, rel=1e-12)


def _random_banks():
    rng = np.random.default_rng(11)
    for m, n, p in [(1, 2, 3), (2, 3, 4), (3, 5, 2), (2, 2, 8), (4, 6, 5)]:
        filters = tuple(
            rng.standard_normal(m * p) + 1j * rng.standard_normal(m * p) for _ in range(n)
        )
        yield FilterBank(filters, m)


def _ladder():
    """Filter 0 of two projection banks scaled by 1 + d: its defect 2d + d^2
    crosses tol 1e-9."""
    for name in ("mercedes-benz", "daubechies4"):
        fb = bank_of(named_matrix(name, 16))
        for d in np.geomspace(1e-11, 1e-8, 30):
            scaled = (1.0 + d) * fb.samples[0]
            yield FilterBank([scaled, *fb.samples[1:]], fb.downsample)


def _one_fft_channels(fb, tol):
    """The report's channel verdicts, after checking that its one-FFT
    defects agree with each filter decomposed on its own."""
    per_filter = [channel_defects(decompose(phi, fb.downsample))[0] for phi in fb.samples]
    one_fft = analysis.channel_defects(matrix_of(fb))
    for got, want in zip(one_fft, per_filter, strict=True):
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    channels = fusion_report(fb, tol=tol).channel_projection
    assert channels == tuple(d <= tol for d in per_filter)
    return channels


def test_fusion_report_channels_match_the_per_filter_defects():
    for fb in _random_banks():
        _one_fft_channels(fb, 1e-9)
    ladder = [_one_fft_channels(fb, 1e-9)[0] for fb in _ladder()]
    assert 0 < sum(ladder) < len(ladder)


def test_channel_projection_overflow_is_value_error():
    # finite samples whose squared polyphase norms overflow have no verdict
    phi = np.array([1e200, 0.0, 0.0, 0.0])
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
    rep = fusion_report(FilterBank([zero(8)], 2))
    assert not rep.is_tight and not rep.is_puntf


@pytest.mark.parametrize("scale", [1.0, 1e-151, 1e-152])
@pytest.mark.parametrize("gain, tight", [(1.0, True), (1.01, False)])
def test_tightness_verdict_does_not_depend_on_scale(scale, gain, tight):
    # filter 0 times 1.01 gives A = 1.5, B = 1.5201: a 1.3 % gap, not tight
    # at tol 1e-3 however small the bank (B = 1.52e-304 at scale 1e-152)
    fb = bank_of(mercedes_benz(4))
    filters = [gain * fb.samples[0], *fb.samples[1:]]
    rep = fusion_report(FilterBank(tuple(scale * f for f in filters), 2), tol=1e-3)
    assert rep.bounds.B == pytest.approx(scale**2 * (1.5201 if gain > 1 else 1.5), rel=1e-4)
    assert rep.is_tight is tight


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
    # a non-finite entry makes the residual NaN, which no tolerance passes
    nan_column = np.column_stack([np.eye(4), np.full(4, np.nan)])
    for basis in (np.full((4, 4), np.nan), nan_column):
        ok, residual = verify_weighted_parseval([(basis, 1.0)], 4)
        assert not ok and np.isnan(residual)


def test_weighted_parseval_dimension_mismatch():
    # numpy's own broadcast error also says "shape": match the check's message
    with pytest.raises(ValueError, match=r"isometry has shape \(4, 2\), expected \(3, r\)"):
        verify_weighted_parseval([(np.eye(4)[:, :2], 1.0)], dim=3)


def test_weighted_parseval_rejects_a_basis_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"isometry has shape \(2, 3\), expected \(3, r\)"):
        verify_weighted_parseval([(np.eye(3)[:2], 1.0)], dim=3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.data(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_isometry_defect_of_a_stack_is_each_slice_defect(k, dim, data, complex_, seed):
    # one batched product gives, bit for bit, the 2-D call on each slice;
    # r = 0 (an empty basis, defect 0) and r = dim are drawn too
    r = data.draw(st.integers(min_value=0, max_value=dim))
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((k, dim, r))
    if complex_:
        t = t + 1j * rng.standard_normal((k, dim, r))
    defects = isometry_defect(t)
    assert defects.shape == (k,)
    per_slice = [isometry_defect(t[j]) for j in range(k)]
    assert all(isinstance(d, float) for d in per_slice)
    np.testing.assert_array_equal(defects, per_slice)


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
            rng.standard_normal(m * p) + 1j * rng.standard_normal(m * p)
            for _ in range(n)
        )
        banks.append(FilterBank(filters, m))
    for fb in banks:
        bounds = frame_bounds(matrix_of(fb))
        spectrum = dense_frame_spectrum(densify(fb))
        assert max(spectrum[0], 0.0) == pytest.approx(bounds.A, abs=1e-8)
        assert spectrum[-1] == pytest.approx(bounds.B, abs=1e-8)
        defects = dense_channel_gram(densify(fb))
        for idx, phi in enumerate(fb.samples):
            assert channel_is_projection(phi, fb.downsample, 1e-9) == (defects[idx] <= 1e-9)
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
            rng.standard_normal(6) + 1j * rng.standard_normal(6)
            for _ in range(3)
        )
        banks.append(FilterBank(filters, 2))
    for fb in banks:
        rep = fusion_report(fb)
        dense = densify(fb)
        mat = dense.reshape(len(dense), -1)
        g = mat @ mat.conj().T
        target = fb.n_channels / fb.downsample
        dense_tight = np.max(np.abs(g - target * np.eye(g.shape[0]))) <= 1e-9 * target
        dense_channels = bool(np.all(dense_channel_gram(dense) <= 1e-9))
        assert rep.is_puntf == (dense_tight and dense_channels)
