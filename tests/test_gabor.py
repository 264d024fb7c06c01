import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fbff import gabor

from fbff.analysis import autocorrelation_defect, channel_is_projection, fusion_report
from fbff.constructions import daubechies4
from fbff.gabor import (
    design_maxflat,
    embed_taps,
    flatness_solve_odd,
    gabor_bank,
    gabor_frame_bounds,
    gabor_tightness,
    interleave_taps,
    levenberg_marquardt,
    tightness_residual,
    zak_row_sums,
)
from fbff.oracle import dense_channel_gram, dense_frame_spectrum, densify
from fbff.polyphase import bank_of
from fbff.signals import Signal, modulate
from refs import channel_trace, delta, inner, norm, translate, zero


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def _jacobian_cd(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences with step ``step * max(1, |x_j|)``: the reference
    for the exact tightness Jacobian."""
    cols = []
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h))
    return np.stack(cols, axis=1)


def _falling(m, k):
    out = 1
    for i in range(k):
        out *= m - i
    return out


def test_gabor_lattice_validation():
    # Q = period / (M*R), so the lattice must fit the prototype's period
    with pytest.raises(ValueError, match=r"M\*R = 2\*2"):
        gabor_bank(zero(7), 2, 2)
    phi = delta(0, 8)
    assert gabor_bank(phi, 2, 2).n_channels == 4
    with pytest.raises(ValueError, match="redundancy 3 must divide"):
        zak_row_sums(phi, 2, 3)
    # tol is keyword-only: a stale (phi, M, Q, R) call cannot read Q as R
    with pytest.raises(TypeError):
        gabor_tightness(phi, 2, 2, 2)


def test_gabor_bank_critically_sampled_orthonormal():
    # R = 1 needs every polyphase component at constant modulus 1/sqrt(M);
    # the normalized length-M window does it and yields the Haar-type basis
    phi = Signal(np.concatenate([np.full(2, 2**-0.5), np.zeros(6)]))
    fb = gabor_bank(phi, 2, 1)
    assert fb.n_channels == 2
    bounds = gabor_frame_bounds(phi, 2, 1)
    assert bounds.A == pytest.approx(1.0, abs=1e-10)
    assert bounds.B == pytest.approx(1.0, abs=1e-10)
    spectrum = dense_frame_spectrum(densify(fb))
    np.testing.assert_allclose(spectrum, np.ones(8), atol=1e-10)


def test_gabor_bank_filters_are_modulates():
    rng = np.random.default_rng(0)
    phi = _random_signal(rng, 8)
    fb = gabor_bank(phi, 2, 2)
    for n in range(4):
        assert fb.filters[n] == modulate(phi, 2 * n)


def test_gabor_bounds_rectangular_window_vs_dense():
    # normalized length-2 window at M=2, Q=1, R=2
    phi = Signal(np.array([2**-0.5, 2**-0.5, 0, 0]))
    bounds = gabor_frame_bounds(phi, 2, 2)
    spectrum = dense_frame_spectrum(densify(gabor_bank(phi, 2, 2)))
    assert bounds.A == pytest.approx(max(spectrum[0], 0.0), abs=1e-8)
    assert bounds.B == pytest.approx(spectrum[-1], abs=1e-8)


def test_gabor_bounds_random_vs_dense():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = _random_signal(rng, 8)
        bounds = gabor_frame_bounds(phi, 2, 2)
        spectrum = dense_frame_spectrum(densify(gabor_bank(phi, 2, 2)))
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
    # every twisted component of the delta evaluates to 1, so row 0 of the
    # (M, Q) grid is the constant M * R and the other rows vanish; the dense
    # spectrum of this degenerate bank (extremes 0 and M * R) pins the scale
    phi = delta(0, 8)
    rows = zak_row_sums(phi, 2, 2)
    assert rows.shape == (2, 2)
    np.testing.assert_allclose(rows[0], 4.0 * np.ones(2), atol=1e-12)
    np.testing.assert_allclose(rows[1], np.zeros(2), atol=1e-12)
    spectrum = dense_frame_spectrum(densify(gabor_bank(phi, 2, 2)))
    assert spectrum[0] == pytest.approx(0.0, abs=1e-12)
    assert spectrum[-1] == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("m, q, r", [(2, 2, 2), (3, 2, 2), (2, 3, 4), (1, 4, 3)])
def test_zak_row_sums_extremes_match_dense(m, q, r):
    rng = np.random.default_rng(3)
    phi = _random_signal(rng, m * q * r)
    rows = zak_row_sums(phi, m, r)
    assert rows.shape == (m, q)
    spectrum = dense_frame_spectrum(densify(gabor_bank(phi, m, r)))
    assert rows.min() == pytest.approx(max(spectrum[0], 0.0), abs=1e-8)
    assert rows.max() == pytest.approx(spectrum[-1], abs=1e-8)


def test_flatness_solve_zero():
    np.testing.assert_array_equal(flatness_solve_odd(np.zeros(3)), np.zeros(3))


def test_flatness_t1_reads_off():
    np.testing.assert_allclose(flatness_solve_odd([2.0]), [-2.0])


def test_flatness_matrix_entries():
    # the odd columns of the derivative table tie the odd taps to the even ones
    a = gabor._derivative_table(3)[:, 1::2]
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
    table = gabor._derivative_table(t)
    lapack = np.linalg.solve(table[:, 1::2], -table[:, 0::2])
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
        check(Signal([1e200, 0, 0, 0, 0, 0, 0, 0]), 2, 2)


def test_tightness_jacobian_matches_central_differences():
    # the residual is quadratic in the even taps, so central differences are
    # exact up to rounding of order eps * |r| / step
    rng = np.random.default_rng(7)
    for t in range(1, 13):
        even = rng.standard_normal(t)
        even *= 2.0**-0.5 / np.linalg.norm(even)
        exact = tightness_residual(even)[1]
        numeric = _jacobian_cd(lambda x: tightness_residual(x)[0], even)
        assert exact.shape == (2 * ((t + 1) // 2), t)
        scale = max(1.0, float(np.max(np.abs(exact))))
        np.testing.assert_allclose(exact, numeric, rtol=0, atol=1e-7 * scale)


def _residual_by_correlation(even):
    """Reference tightness residual, with the sum of |terms| of each entry:
    the correlations of the even taps and of their odd completion."""
    t = even.size
    rows, sizes = [], []
    for s in (even, flatness_solve_odd(even)):
        rows.append(np.correlate(s, s, "full")[t - 1 :: 2])
        sizes.append(np.correlate(np.abs(s), np.abs(s), "full")[t - 1 :: 2])
    res = np.array(rows)
    res[:, 0] -= 0.5
    return res.ravel(), np.ravel(sizes)


def test_tightness_residual_matches_the_correlations():
    # the quadratic forms reproduce both correlations to rounding of the
    # largest product they sum, at unit-norm random taps
    rng = np.random.default_rng(17)
    for t in range(1, 17):
        for _ in range(20):
            even = rng.standard_normal(t)
            even *= 2.0**-0.5 / np.linalg.norm(even)
            ref, terms = _residual_by_correlation(even)
            res = tightness_residual(even)[0]
            assert res.shape == ref.shape == (2 * ((t + 1) // 2),)
            assert np.all(np.abs(res - ref) <= 1e-14 * np.maximum(1.0, terms)), t


def test_tightness_forms_are_symmetric_cached_and_read_only():
    for t in range(1, 17):
        forms = gabor._tightness_forms(t)
        assert forms.shape == (2 * ((t + 1) // 2), t, t)
        np.testing.assert_array_equal(forms, forms.transpose(0, 2, 1))
        assert gabor._tightness_forms(t) is forms
        assert not forms.flags.writeable
        with pytest.raises(ValueError):
            forms[0, 0, 0] = 1.0


@pytest.mark.parametrize("fn", [tightness_residual, flatness_solve_odd])
@pytest.mark.parametrize("even", [[], [[0.5, 0.5]]], ids=["empty", "matrix"])
def test_even_taps_must_be_a_nonempty_vector(fn, even):
    with pytest.raises(ValueError, match="nonempty vector"):
        fn(even)


@pytest.mark.parametrize(
    "t, seed, restarts, tol",
    [(6, 2, 100, 1e-8), (2, 0, 3, 0.0)],
    ids=["won-at-restart-2", "all-failed"],
)
def test_design_checks_flatness_at_both_ends_of_every_restart(monkeypatch, t, seed, restarts, tol):
    # the search itself forms no odd taps, so the flatness checks run once
    # on each restart's start point and once on its end point
    calls = []

    def counting(even):
        calls.append(np.array(even, dtype=float))
        return flatness_solve_odd(even)

    monkeypatch.setattr(gabor, "flatness_solve_odd", counting)
    result = design_maxflat(t, seed=seed, restarts=restarts, tol=tol)
    assert len(calls) == 2 * len(result.trace)
    for restart, (start, end) in enumerate(zip(calls[0::2], calls[1::2])):
        x0 = gabor._restart_rng(seed, restart).standard_normal(t)
        np.testing.assert_array_equal(start, x0 * (2.0**-0.5 / np.linalg.norm(x0)))
        assert np.max(np.abs(tightness_residual(end)[0])) == result.trace[restart][0]
    if result.converged:
        assert result.restart == len(result.trace) - 1 == 2
        np.testing.assert_allclose(result.taps[0::2], calls[-1], rtol=1e-12)


def test_design_forms_one_product_per_evaluated_point(monkeypatch):
    # the residual and its Jacobian come from one B x, so the search builds
    # (or reads from the cache) the stack of forms once per evaluation
    counts = {"forms": 0, "residual": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gabor, "_tightness_forms", counting("forms", gabor._tightness_forms))
    monkeypatch.setattr(gabor, "tightness_residual", counting("residual", tightness_residual))
    result = design_maxflat(6, seed=2)
    assert result.converged
    assert counts["residual"] >= sum(its for _, its in result.trace)
    assert counts["forms"] == counts["residual"]


def test_tightness_residual_unit_deltas():
    res = tightness_residual([2**-0.5])[0]  # T = 1: odd = -even
    np.testing.assert_allclose(res, np.zeros(2), atol=1e-15)


def test_tightness_residual_matches_spectral_form():
    # the time-domain residual entries reproduce the spectral defect
    # |s(z)|^2 + |s(-z)|^2 - 1 at every root of an even-period embedding
    low = bank_of(daubechies4(4)).filters[0]
    s = (low.samples[:4].real) / np.sqrt(2.0)  # satisfies the half-norm conditions
    t = 4
    res = tightness_residual(s)[0][: (t + 1) // 2]  # the even half
    period = 2 * t
    from fbff.cyclic import twist

    poly = Signal(np.concatenate([s, np.zeros(period - t)]))
    for p in range(period):
        defect = (
            abs(poly.eval_at_root(p)) ** 2
            + abs(Signal(twist(poly.samples, 1, 2)).eval_at_root(p)) ** 2
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
    assert gabor_tightness(phi, 2, 2)
    assert channel_is_projection(phi, 2)
    bounds = gabor_frame_bounds(phi, 2, 2)
    assert bounds.A == pytest.approx(2.0, abs=1e-9)
    assert bounds.B == pytest.approx(2.0, abs=1e-9)


def test_gabor_tightness_generic_failure():
    rng = np.random.default_rng(5)
    phi = _random_signal(rng, 8)
    phi = Signal(phi.samples / norm(phi))
    assert not gabor_tightness(phi, 2, 2)
    bounds = gabor_frame_bounds(phi, 2, 2)
    assert bounds.B - bounds.A > 1e-6  # generic prototypes are not tight


@pytest.mark.parametrize("t", [2, 4, 6])
def test_gabor_tightness_near_a_design_never_raises(t):
    # the Zak and translate-Gram routes read one defect, so perturbations
    # near the tolerance give one verdict instead of a disagreement
    result = design_maxflat(t, seed=1)
    phi = result.signal
    rng = np.random.default_rng(t)
    scales = np.geomspace(1e-12, 1e-7, 11)
    verdicts = []
    for scale in scales:
        for _ in range(5):
            d = _random_signal(rng, phi.period).samples
            perturbed = Signal(phi.samples + scale * d / np.linalg.norm(d))
            verdicts.append(gabor_tightness(perturbed, 2, 2))
    assert all(verdicts[:5]) and not any(verdicts[-5:])


def test_zak_verdicts_match_the_materialized_bank():
    # reference: fusion_report of the modulated bank itself, at the CLI's tolerance
    cases = []
    for t in (2, 4, 6):
        result = design_maxflat(t, seed=1)
        assert result.converged
        cases.append(result.signal)
    generic = _random_signal(np.random.default_rng(5), 8)  # as in the generic failure test
    cases += [Signal(generic.samples / norm(generic)), _half_norm_pair(2)]
    verdicts = set()
    for phi in cases:
        ref = fusion_report(gabor_bank(phi, 2, 2), tol=1e-7)
        bounds = gabor_frame_bounds(phi, 2, 2)
        assert abs(bounds.A - ref.bounds.A) <= 1e-12 * ref.bounds.B
        assert abs(bounds.B - ref.bounds.B) <= 1e-12 * ref.bounds.B
        assert bounds.is_tight(1e-7) == ref.is_tight
        channels = [channel_is_projection(phi, 2, tol=1e-7)] * 4
        assert channels == list(ref.channel_projection)
        verdicts.add((ref.is_tight, channels[0]))
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {False, True}


def test_levenberg_marquardt_small_system():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

    def jacobian(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

    run = levenberg_marquardt(
        lambda x: (residual(x), jacobian(x)), np.array([1.0, 0.2]), tol=1e-12
    )
    assert run.converged
    np.testing.assert_allclose(np.abs(run.x), np.full(2, 2**-0.5), atol=1e-8)


def test_levenberg_marquardt_with_jacobian():
    calls = []

    def residual(x):
        calls.append(1)
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

    def jacobian(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

    x0 = np.array([1.0, 0.2])
    numeric = levenberg_marquardt(
        lambda x: (residual(x), _jacobian_cd(residual, x)), x0, tol=1e-12
    )
    numeric_calls = len(calls)
    calls.clear()
    run = levenberg_marquardt(lambda x: (residual(x), jacobian(x)), x0, tol=1e-12)
    assert run.converged
    np.testing.assert_allclose(run.x, numeric.x, atol=1e-8)
    # same steps; the numeric callable adds the 2 * x.size difference
    # quotients of its Jacobian to every point it evaluates
    assert run.iterations == numeric.iterations
    assert numeric_calls == (1 + 2 * x0.size) * len(calls)


def test_tight_system_splits_into_orthonormal_subsequences():
    # whenever tightness holds, every channel's translates split into R
    # orthonormal subsequences indexed by the residue r
    result = design_maxflat(2, seed=0, restarts=20)
    phi = result.signal
    m, q, r = 2, result.block, 2
    assert gabor_tightness(phi, m, r)
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
    assert gabor_tightness(phi, 2, 2)
    # the flatness constraints hold by construction for solver output
    for k in range(2):
        deriv = sum(_falling(m, k) * result.taps[m] for m in range(4))
        assert abs(deriv) <= 1e-8


def test_design_odd_half_length_reports_outcome():
    # odd T gives T + 1 residual equations in T unknowns, yet every odd T up
    # to 11 converges at the first restart, and the result passes the
    # tightness check for real; T = 11 stops at residual 5.3e-10, whose Zak
    # defect 1.05e-9 passes the search's tol 1e-8 but not 1e-9
    for t in (1, 3, 5, 7, 9, 11):
        result = design_maxflat(t, seed=1)
        assert result.converged and result.restart == 0, t
        assert result.residual_inf <= 1e-8
        tol = 1e-8 if t == 11 else 1e-9
        assert gabor_tightness(result.signal, 2, 2, tol=tol), t


def test_design_converges_only_on_the_verdict_it_reports():
    # at tol 1e-9, restart 0 of T = 11 (residual 5.3e-10, Zak defect
    # 1.05e-9) is rejected by the tightness verdict, and the search goes on
    result = design_maxflat(11, seed=1, tol=1e-9)
    assert result.converged and result.restart > 0
    assert result.trace[0][0] <= 1e-9
    assert result.residual_inf <= 1e-9
    assert gabor_tightness(result.signal, 2, 2, tol=1e-9)


def test_design_residual_gate_is_half_the_verdict_scale():
    # the residual's targets are 1/2 and the Zak defect's are 1, so the
    # verdict reads twice the residual: restart 0 of T = 14, seed 4 stops at
    # residual 8.3e-9, inside (tol/2, tol], and its design fails at tol 1e-8
    result = design_maxflat(14, seed=4, restarts=1)
    assert not result.converged
    assert 0.5e-8 < result.residual_inf <= 1e-8
    x0 = gabor._restart_rng(4, 0).standard_normal(14)
    run = levenberg_marquardt(tightness_residual, x0 * (2.0**-0.5 / np.linalg.norm(x0)))
    assert np.max(np.abs(run.residual)) == result.residual_inf
    taps = interleave_taps(run.x, flatness_solve_odd(run.x))
    phi = embed_taps(taps / np.linalg.norm(taps), result.block)
    defect = np.max(autocorrelation_defect(zak_row_sums(phi, 2, 2) / 2))
    assert defect == pytest.approx(2.0 * result.residual_inf, rel=1e-2)


def test_design_failure_is_reported_not_raised():
    # exact zero residual is unreachable, so every restart must be rejected
    # and the best attempt reported
    result = design_maxflat(2, seed=0, restarts=3, tol=0.0)
    assert not result.converged
    assert result.taps is None and result.signal is None
    assert 0.0 < result.residual_inf
    assert 0 <= result.restart < 3


def test_design_skips_a_draw_that_fails_the_flatness_checks():
    # restart 0's draw at T = 43, seed 108 is past the exact odd-tap map's
    # float limits; the search skips it and runs restart 1
    result = design_maxflat(43, seed=108, restarts=2)
    assert not result.converged
    assert len(result.trace) == 2 and result.trace[0] == (None, 0)
    assert result.restart == 1 and result.trace[1][0] is not None
    assert result.trace[1] == (result.residual_inf, result.iterations)
    # every draw failed: the last failure is raised
    with pytest.raises(ValueError, match="float limit"):
        design_maxflat(43, seed=108, restarts=1)


def test_design_t12_converges():
    result = design_maxflat(12, seed=1, restarts=3)
    assert result.converged
    assert result.residual_inf <= 1e-8
    assert gabor_tightness(result.signal, 2, 2)


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
    # the seed keys a Philox stream: 0 .. 2**128 - 1
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed must be in"):
            design_maxflat(2, seed=seed)
    assert len(design_maxflat(2, seed=2**128 - 1, restarts=1).trace) == 1


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
    fb = gabor_bank(phi, 2, 2)
    dense = densify(fb)
    assert not np.any(dense_channel_gram(dense) <= 1e-9)
    for n in range(4):
        assert channel_trace(dense, n) == pytest.approx(2 * q, abs=1e-8)


def test_embed_taps_bounds():
    with pytest.raises(ValueError):
        embed_taps(np.ones(10), 2)
    phi = embed_taps(np.ones(4), 3)
    assert phi.period == 12
    np.testing.assert_array_equal(phi.samples[4:], np.zeros(8))
