import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fbff import gabor

from fbff.analysis import (
    fusion_report,
    gabor_channel_orthonormal,
    gabor_frame_bounds,
    gabor_tightness,
)
from fbff.constructions import daubechies4
from fbff.gabor import (
    GaborSystem,
    design_maxflat,
    embed_taps,
    flatness_matrix,
    flatness_solve_odd,
    gabor_bank,
    interleave_taps,
    levenberg_marquardt,
    tightness_jacobian,
    tightness_residual,
    zak_row_sums,
)
from fbff.oracle import dense_channel_gram, dense_frame_spectrum, densify
from fbff.polyphase import bank_of
from fbff.signals import Signal, inner, modulate, translate


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def _falling(m, k):
    out = 1
    for i in range(k):
        out *= m - i
    return out


def test_gabor_system_validation():
    with pytest.raises(ValueError):
        GaborSystem(Signal.zero(7), 2, 2, 2)
    sys_ = GaborSystem(Signal.delta(0, 8), 2, 2, 2)
    assert sys_.n_channels == 4


def test_gabor_bank_critically_sampled_orthonormal():
    # R = 1 needs every polyphase component at constant modulus 1/sqrt(M);
    # the normalized length-M window does it and yields the Haar-type basis
    phi = Signal(np.concatenate([np.full(2, 2**-0.5), np.zeros(6)]))
    sys_ = GaborSystem(phi, 2, 4, 1)
    fb = gabor_bank(sys_)
    assert fb.n_channels == 2
    bounds = gabor_frame_bounds(phi, 2, 4, 1)
    assert bounds.A == pytest.approx(1.0, abs=1e-10)
    assert bounds.B == pytest.approx(1.0, abs=1e-10)
    spectrum = dense_frame_spectrum(densify(fb))
    np.testing.assert_allclose(spectrum, np.ones(8), atol=1e-10)


def test_gabor_bank_filters_are_modulates():
    rng = np.random.default_rng(0)
    phi = _random_signal(rng, 8)
    sys_ = GaborSystem(phi, 2, 2, 2)
    fb = gabor_bank(sys_)
    for n in range(4):
        assert fb.filters[n] == modulate(phi, 2 * n)


def test_gabor_bounds_rectangular_window_vs_dense():
    # normalized length-2 window at M=2, Q=1, R=2
    phi = Signal(np.array([2**-0.5, 2**-0.5, 0, 0]))
    bounds = gabor_frame_bounds(phi, 2, 1, 2)
    spectrum = dense_frame_spectrum(densify(gabor_bank(GaborSystem(phi, 2, 1, 2))))
    assert bounds.A == pytest.approx(max(spectrum[0], 0.0), abs=1e-8)
    assert bounds.B == pytest.approx(spectrum[-1], abs=1e-8)


def test_gabor_bounds_random_vs_dense():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = _random_signal(rng, 8)
        bounds = gabor_frame_bounds(phi, 2, 2, 2)
        spectrum = dense_frame_spectrum(densify(gabor_bank(GaborSystem(phi, 2, 2, 2))))
        assert bounds.A == pytest.approx(max(spectrum[0], 0.0), abs=1e-8)
        assert bounds.B == pytest.approx(spectrum[-1], abs=1e-8)


def test_modulation_commutation_identity():
    # <M^{Qn} phi, T^{Mp} M^{Qn} phi> = exp(2 pi j n p / R) <phi, T^{Mp} phi>
    rng = np.random.default_rng(2)
    m, q, r = 2, 3, 2
    phi = _random_signal(rng, m * q * r)
    for n in range(m * r):
        mod = modulate(phi, q * n)
        for p in range(q * r):
            lhs = inner(mod, translate(mod, m * p))
            rhs = np.exp(2j * np.pi * n * p / r) * inner(phi, translate(phi, m * p))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_zak_row_sums_delta():
    # every twisted component of the delta evaluates to 1, so row 0 is the
    # constant M * R and the other rows vanish; the dense spectrum of this
    # degenerate bank (extremes 0 and M * R) pins the scale down
    sys_ = GaborSystem(Signal.delta(0, 8), 2, 2, 2)
    rows = zak_row_sums(sys_)
    np.testing.assert_allclose(rows[0], 4.0 * np.ones(4), atol=1e-12)
    np.testing.assert_allclose(rows[1], np.zeros(4), atol=1e-12)
    spectrum = dense_frame_spectrum(densify(gabor_bank(sys_)))
    assert spectrum[0] == pytest.approx(0.0, abs=1e-12)
    assert spectrum[-1] == pytest.approx(4.0, abs=1e-12)


def test_zak_row_sums_extremes_match_dense():
    rng = np.random.default_rng(3)
    phi = _random_signal(rng, 8)
    sys_ = GaborSystem(phi, 2, 2, 2)
    rows = zak_row_sums(sys_)
    spectrum = dense_frame_spectrum(densify(gabor_bank(sys_)))
    assert rows.min() == pytest.approx(max(spectrum[0], 0.0), abs=1e-8)
    assert rows.max() == pytest.approx(spectrum[-1], abs=1e-8)


def test_flatness_solve_zero():
    np.testing.assert_array_equal(flatness_solve_odd(np.zeros(3)), np.zeros(3))


def test_flatness_t1_reads_off():
    np.testing.assert_allclose(flatness_solve_odd([2.0]), [-2.0])


def test_flatness_matrix_entries():
    a = flatness_matrix(3)
    for k in range(3):
        for p in range(3):
            assert a[k, p] == float(_falling(2 * p + 1, k))


def test_flatness_kills_derivatives():
    # derivative oracle: sum_m m!/(m-k)! phi[m] must vanish for k < T
    rng = np.random.default_rng(4)
    t = 4
    even = rng.standard_normal(t)
    odd = flatness_solve_odd(even)
    taps = interleave_taps(even, odd)
    scale = max(1.0, float(np.max(np.abs(taps))))
    for k in range(t):
        deriv = sum(_falling(m, k) * taps[m] for m in range(2 * t))
        assert abs(deriv) <= 1e-8 * scale * _falling(2 * t - 1, k)


def _odd_map_by_elimination(t):
    # reference: Gauss-Jordan elimination of [A | -C] in Fractions
    rows = [
        [Fraction(math.perm(2 * p + 1, k)) for p in range(t)]
        + [Fraction(-math.perm(2 * p, k)) for p in range(t)]
        for k in range(t)
    ]
    for c in range(t):
        piv = next(r for r in range(c, t) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(t):
            if r != c:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return np.array([[float(v) for v in row[t:]] for row in rows])


def test_odd_map_is_the_rounded_rational_solution():
    for t in range(1, 13):
        np.testing.assert_array_equal(gabor._odd_map(t), _odd_map_by_elimination(t))
    assert not gabor._odd_map(4).flags.writeable


def test_flatness_forward_error_up_to_16():
    # the derivatives at 1 of the float taps, summed exactly in Fractions,
    # must vanish to 1e-12 of the sum of their absolute terms
    rng = np.random.default_rng(16)
    for t in range(2, 17):
        for _ in range(20):
            even = rng.standard_normal(t)
            taps = interleave_taps(even, flatness_solve_odd(even))
            for k in range(t):
                terms = [Fraction(_falling(m, k)) * Fraction(x) for m, x in enumerate(taps)]
                assert abs(sum(terms)) <= Fraction(1e-12) * sum(abs(v) for v in terms), (t, k)


def test_flatness_forward_check_rejects_an_inexact_map(monkeypatch):
    # a LAPACK solve of the factorial system passes the backward check but
    # not the forward one at T = 16
    t = 16
    lapack = np.linalg.solve(flatness_matrix(t), -gabor._derivative_table(t)[:, 0::2])
    monkeypatch.setattr(gabor, "_odd_map", lambda _: lapack)
    even = np.random.default_rng(0).standard_normal(t)
    with pytest.raises(ValueError, match="forward"):
        flatness_solve_odd(even)


@pytest.mark.parametrize("t", [133, 135, 136])
def test_flatness_overflow_is_value_error(t):
    # T = 133-135: F @ taps overflows to inf and NaN, which every comparison
    # used to pass; T >= 136: F itself has entries beyond the float range
    even = gabor._restart_rng(0, 0).standard_normal(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="floats"):
            flatness_solve_odd(even)


@pytest.mark.parametrize("check", [gabor_frame_bounds, gabor_tightness])
def test_zak_row_sum_overflow_is_value_error(check):
    # squared samples beyond the float range: a ValueError, not a numpy
    # overflow warning and inf bounds
    with pytest.raises(ValueError, match="not finite"):
        check(Signal([1e200, 0, 0, 0, 0, 0, 0, 0]), 2, 2, 2)


def test_tightness_jacobian_matches_central_differences():
    # the residual is quadratic in the even taps, so central differences are
    # exact up to rounding of order eps * |r| / step
    rng = np.random.default_rng(7)
    for t in range(1, 13):
        even = rng.standard_normal(t)
        even *= 2.0**-0.5 / np.linalg.norm(even)
        exact = tightness_jacobian(even)
        numeric = gabor._jacobian_cd(tightness_residual, even)
        assert exact.shape == (2 * ((t + 1) // 2), t)
        scale = max(1.0, float(np.max(np.abs(exact))))
        np.testing.assert_allclose(exact, numeric, rtol=0, atol=1e-7 * scale)


def test_tightness_residual_unit_deltas():
    res = tightness_residual([2**-0.5], [2**-0.5])
    np.testing.assert_allclose(res, np.zeros(2), atol=1e-15)


def test_tightness_residual_matches_spectral_form():
    # the time-domain residual entries reproduce the spectral defect
    # |s(z)|^2 + |s(-z)|^2 - 1 at every root of an even-period embedding
    low = bank_of(daubechies4(4)).filters[0]
    s = (low.samples[:4].real) / np.sqrt(2.0)  # satisfies the half-norm conditions
    t = 4
    res = tightness_residual(s, s)[: (t + 1) // 2]
    period = 2 * t
    from fbff.cyclic import CyclicPoly

    poly = CyclicPoly(np.concatenate([s, np.zeros(period - t)]))
    for p in range(period):
        defect = (
            abs(poly.eval_at_root(p)) ** 2
            + abs(poly.twist(1, 2).eval_at_root(p)) ** 2
            - 1.0
        )
        predicted = 2.0 * (
            res[0]
            + sum(
                2.0 * res[q] * np.cos(2 * np.pi * 2 * q * p / period)
                for q in range(1, len(res))
            )
        )
        assert defect == pytest.approx(predicted, abs=1e-10)


def _half_norm_pair(q):
    """u interleaved with u twisted by z -> -z, u the Daubechies-4 lowpass / sqrt 2."""
    low = bank_of(daubechies4(4)).filters[0]
    u = low.samples[:4] / np.sqrt(2.0)
    even = np.concatenate([u, np.zeros(2 * q - u.size)])
    odd = np.array([(-1.0) ** p for p in range(2 * q)]) * even
    return Signal(interleave_taps(even.real, odd.real))


def test_half_norm_scaled_orthonormal_pair_passes_both_checks():
    # interleaving u with u twisted by z -> -z satisfies both the tightness
    # and the per-channel orthonormality conditions
    q = 2
    phi = _half_norm_pair(q)
    assert phi.period == 4 * q
    assert gabor_tightness(phi, 2, q, 2)
    assert gabor_channel_orthonormal(phi, 2, q, 2)
    bounds = gabor_frame_bounds(phi, 2, q, 2)
    assert bounds.A == pytest.approx(2.0, abs=1e-9)
    assert bounds.B == pytest.approx(2.0, abs=1e-9)


def test_gabor_tightness_generic_failure():
    rng = np.random.default_rng(5)
    phi = _random_signal(rng, 8)
    phi = Signal(phi.samples / phi.norm())
    assert not gabor_tightness(phi, 2, 2, 2)
    bounds = gabor_frame_bounds(phi, 2, 2, 2)
    assert bounds.B - bounds.A > 1e-6  # generic prototypes are not tight


@pytest.mark.parametrize("t", [2, 4, 6])
def test_gabor_tightness_near_a_design_never_raises(t):
    # the Zak and translate-Gram routes read one defect, so perturbations
    # near the tolerance give one verdict instead of a disagreement
    result = design_maxflat(t, seed=1)
    phi, q = result.signal, result.block
    rng = np.random.default_rng(t)
    scales = np.geomspace(1e-12, 1e-7, 11)
    verdicts = []
    for scale in scales:
        for _ in range(5):
            d = _random_signal(rng, phi.period).samples
            perturbed = Signal(phi.samples + scale * d / np.linalg.norm(d))
            verdicts.append(gabor_tightness(perturbed, 2, q, 2))
    assert all(verdicts[:5]) and not any(verdicts[-5:])


def test_zak_verdicts_match_the_materialized_bank():
    # reference: fusion_report of the modulated bank itself, at the CLI's tolerance
    cases = []
    for t in (2, 4, 6):
        result = design_maxflat(t, seed=1)
        assert result.converged
        cases.append((result.signal, result.block))
    generic = _random_signal(np.random.default_rng(5), 8)  # as in the generic failure test
    cases += [(Signal(generic.samples / generic.norm()), 2), (_half_norm_pair(2), 2)]
    verdicts = set()
    for phi, q in cases:
        ref = fusion_report(gabor_bank(GaborSystem(phi, 2, q, 2)), tol=1e-7)
        bounds = gabor_frame_bounds(phi, 2, q, 2)
        assert abs(bounds.A - ref.bounds.A) <= 1e-12 * ref.bounds.B
        assert abs(bounds.B - ref.bounds.B) <= 1e-12 * ref.bounds.B
        assert bounds.is_tight(1e-7) == ref.is_tight
        channels = [gabor_channel_orthonormal(phi, 2, q, 2, tol=1e-7)] * 4
        assert channels == list(ref.channel_projection)
        verdicts.add((ref.is_tight, channels[0]))
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {False, True}


def test_levenberg_marquardt_small_system():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

    run = levenberg_marquardt(residual, np.array([1.0, 0.2]), tol=1e-12)
    assert run.converged
    np.testing.assert_allclose(np.abs(run.x), np.full(2, 2**-0.5), atol=1e-8)


def test_levenberg_marquardt_with_jacobian():
    calls = []

    def residual(x):
        calls.append(1)
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

    def jacobian(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

    numeric = levenberg_marquardt(residual, np.array([1.0, 0.2]), tol=1e-12)
    numeric_calls = len(calls)
    calls.clear()
    run = levenberg_marquardt(residual, np.array([1.0, 0.2]), tol=1e-12, jac=jacobian)
    assert run.converged
    np.testing.assert_allclose(run.x, numeric.x, atol=1e-8)
    # same steps, minus the 2 * x.size difference quotients of every
    # iteration that forms a Jacobian (all but the last)
    assert run.iterations == numeric.iterations
    assert numeric_calls - len(calls) == 4 * (run.iterations - 1)


def test_tight_system_splits_into_orthonormal_subsequences():
    # whenever tightness holds, every channel's translates split into R
    # orthonormal subsequences indexed by the residue r
    result = design_maxflat(2, seed=0, restarts=20)
    phi = result.signal
    m, q, r = 2, result.block, 2
    assert gabor_tightness(phi, m, q, r)
    for n in range(m * r):
        mod = modulate(phi, q * n)
        for res in range(r):
            seq = [translate(mod, m * (res + r * shift)) for shift in range(q)]
            for i in range(q):
                for j in range(q):
                    want = 1.0 if i == j else 0.0
                    assert abs(inner(seq[i], seq[j]) - want) <= 1e-9


def test_design_t2_converges():
    result = design_maxflat(2, seed=0, restarts=20)
    assert result.converged
    assert result.residual_inf <= 1e-8
    assert result.taps.size == 4
    assert np.linalg.norm(result.taps) == pytest.approx(1.0, abs=1e-10)
    phi = result.signal
    assert gabor_tightness(phi, 2, result.block, 2)
    # the flatness constraints hold by construction for solver output
    for k in range(2):
        deriv = sum(_falling(m, k) * result.taps[m] for m in range(4))
        assert abs(deriv) <= 1e-8


def test_design_odd_half_length_reports_outcome():
    # the odd case is formally overdetermined; no claim is made either way,
    # but whatever comes back must be honest: a converged result has to pass
    # the tightness check for real
    result = design_maxflat(3, seed=0, restarts=6)
    if result.converged:
        assert result.residual_inf <= 1e-8
        assert gabor_tightness(result.signal, 2, result.block, 2)
    else:
        assert result.taps is None and result.signal is None
        assert result.residual_inf > 1e-8


def test_design_failure_is_reported_not_raised():
    # exact zero residual is unreachable, so every restart must be rejected
    # and the best attempt reported
    result = design_maxflat(2, seed=0, restarts=3, tol=0.0)
    assert not result.converged
    assert result.taps is None and result.signal is None
    assert 0.0 < result.residual_inf
    assert 0 <= result.restart < 3


def test_design_t12_converges():
    result = design_maxflat(12, seed=1, restarts=3)
    assert result.converged
    assert result.residual_inf <= 1e-8
    assert gabor_tightness(result.signal, 2, result.block, 2)


def test_design_trace_has_one_entry_per_restart():
    failed = design_maxflat(2, seed=0, restarts=3, tol=0.0)
    assert len(failed.trace) == 3
    assert min(res for res, _ in failed.trace) == failed.residual_inf
    assert failed.trace[failed.restart] == (failed.residual_inf, failed.iterations)
    won = design_maxflat(10, seed=1, restarts=100)
    assert len(won.trace) == won.restart + 1
    assert won.trace[-1] == (won.residual_inf, won.iterations)
    assert all(res > 1e-8 for res, _ in won.trace[:-1])


def test_design_rejects_bad_half_length():
    with pytest.raises(ValueError):
        design_maxflat(0)
    with pytest.raises(ValueError):
        design_maxflat(4, q=1)


def test_design_deterministic_given_seed():
    a = design_maxflat(2, seed=42, restarts=5)
    b = design_maxflat(2, seed=42, restarts=5)
    assert a.restart == b.restart
    np.testing.assert_array_equal(a.taps, b.taps)


def test_designed_translate_orthogonality():
    # tight designs make the 4-translates of phi and of T^2 phi orthonormal,
    # and each channel a sum of two rank-Q projections
    result = design_maxflat(2, seed=1, restarts=20)
    phi = result.signal
    q = result.block
    for base in (phi, translate(phi, 2)):
        for shift in range(1, q):
            assert abs(inner(base, translate(base, 4 * shift))) <= 1e-8
        assert inner(base, base) == pytest.approx(1.0, abs=1e-8)
    fb = gabor_bank(GaborSystem(phi, 2, q, 2))
    dense = densify(fb)
    for n in range(4):
        cg = dense_channel_gram(dense, n)
        assert not cg.is_projection
        assert cg.trace == pytest.approx(2 * q, abs=1e-8)


def test_embed_taps_bounds():
    with pytest.raises(ValueError):
        embed_taps(np.ones(10), 2)
    phi = embed_taps(np.ones(4), 3)
    assert phi.period == 12
    np.testing.assert_array_equal(phi.samples[4:], np.zeros(8))
