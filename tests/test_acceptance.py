"""End-to-end acceptance checks, one test per criterion, pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fbff.analysis import (
    channel_is_projection,
    frame_bounds,
    fusion_report,
    gram_stack,
)
from fbff.constructions import (
    daubechies4,
    daubechies_mercedes,
    mercedes_benz,
    modulated_daubechies_stack,
)
from fbff.gabor import (
    design_maxflat,
    gabor_bank,
    gabor_frame_bounds,
    gabor_tightness,
)
from fbff.multilevel import (
    compose_tree,
    equivalent_filter,
    periodize_bank,
    verify_tree,
    verify_weighted_parseval,
)
from fbff.oracle import (
    dense_channel_gram,
    dense_frame_spectrum,
    densify,
    spectrum_union_check,
)
from fbff.polyphase import bank_of, decompose, matrix_of
from fbff.signals import FilterBank, Signal, modulate
from refs import (
    analysis_apply,
    channel_trace,
    dwt_tree,
    inner,
    packet_tree,
    pp_inner,
    synthesis_apply,
    translate,
)


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def _report(line):
    print(f"[acceptance] {line}: PASS")


def test_criterion_01_mercedes_benz():
    start = time.perf_counter()
    for p in (2, 4, 8):
        fb = bank_of(mercedes_benz(p))
        bounds = frame_bounds(matrix_of(fb))
        assert bounds.A == pytest.approx(1.5, abs=1e-10)
        assert bounds.B == pytest.approx(1.5, abs=1e-10)
        dense = densify(fb)
        assert np.all(dense_channel_gram(dense) <= 1e-9)
        for n in range(3):
            assert round(channel_trace(dense, n)) == p
        mat = dense.reshape(len(dense), -1)
        g = mat @ mat.conj().T
        assert np.max(np.abs(g - 1.5 * np.eye(2 * p))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"criterion 1 (constant tight bank, {elapsed:.2f}s)")


def test_criterion_02_daubechies_unitary():
    for p in (2, 4, 8):
        mat = daubechies4(p)
        for root in range(p):
            assert np.max(np.abs(gram_stack(mat)[root] - np.eye(2))) <= 1e-12
        spectrum = dense_frame_spectrum(densify(bank_of(mat)))
        assert np.max(np.abs(spectrum - 1.0)) <= 1e-9
    _report("criterion 2 (orthonormal pair unitary at every root)")


def test_criterion_03_product_bank():
    fb = bank_of(daubechies_mercedes(4))
    rep = fusion_report(fb)
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(1.5, abs=1e-9)
    assert rep.bounds.B == pytest.approx(1.5, abs=1e-9)
    base = bank_of(daubechies4(4))
    low, high = base.filters
    assert np.array_equal(fb.filters[0].samples, low.samples)
    s3 = np.sqrt(3.0)
    assert np.max(np.abs(fb.filters[1].samples - 0.5 * (-low.samples + s3 * high.samples))) <= 1e-12
    assert np.max(np.abs(fb.filters[2].samples - 0.5 * (-low.samples - s3 * high.samples))) <= 1e-12
    _report("criterion 3 (product bank filters and bounds)")


def test_criterion_04_stacked_bank():
    fb = bank_of(modulated_daubechies_stack(4))
    rep = fusion_report(fb)
    assert rep.is_puntf
    assert rep.bounds.A == pytest.approx(2.0, abs=1e-9)
    assert rep.bounds.B == pytest.approx(2.0, abs=1e-9)
    p = fb.inner_period
    for pair in ((0, 1), (2, 3)):
        f0, f1 = fb.filters[pair[0]], fb.filters[pair[1]]
        for i in range(p):
            for j in range(p):
                ip = inner(translate(f0, 2 * i), translate(f1, 2 * j))
                assert abs(ip) <= 1e-10
    _report("criterion 4 (stacked bank tight, channel pairs orthogonal)")


def test_criterion_05_parseval_trees():
    start = time.perf_counter()
    fb = bank_of(modulated_daubechies_stack(8))  # ambient dim 16, Q = 4

    leaves = compose_tree(dwt_tree(fb, 2), 16)
    assert len(leaves) == 7
    assert sorted(str(w) for _, w in leaves) == ["1/2"] * 3 + ["1/4"] * 4
    assert sorted(leaf.inner_period for leaf, _ in leaves) == [4] * 4 + [8] * 3
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-9

    leaves = compose_tree(packet_tree(fb, 2), 16)
    assert len(leaves) == 16
    assert all(w == Fraction(1, 4) for _, w in leaves)
    assert all(leaf.inner_period == 4 for leaf, _ in leaves)
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(f"criterion 5 (weighted Parseval trees, {elapsed:.2f}s)")


def test_criterion_06_equivalent_filter_responses():
    fb = bank_of(modulated_daubechies_stack(8))
    folded = periodize_bank(fb, 8)
    period = fb.filter_period
    k_out = np.arange(period)
    k_in = np.arange(8)
    for outer in fb.filters:
        for inner_f in folded.filters:
            eq = equivalent_filter(outer.samples, inner_f.samples, 2)
            for t in range(period):
                w = 2 * np.pi * t / period
                lhs = abs(np.sum(eq * np.exp(-1j * k_out * w))) ** 2
                rhs = (
                    abs(np.sum(outer.samples * np.exp(-1j * k_out * w))) ** 2
                    * abs(np.sum(inner_f.samples * np.exp(-1j * k_in * 2 * w))) ** 2
                )
                assert abs(lhs - rhs) <= 1e-9
    _report("criterion 6 (two-level equivalent filter responses factorize)")


def test_criterion_07_random_ensemble_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, min(m + 3, 6) + 1))
        p = int(rng.integers(2, 5))
        fb = FilterBank(
            tuple(_random_signal(rng, m * p) for _ in range(n)), m
        )
        bounds = frame_bounds(matrix_of(fb))
        spectrum = dense_frame_spectrum(densify(fb))
        assert abs(max(spectrum[0], 0.0) - bounds.A) <= 1e-8
        assert abs(spectrum[-1] - bounds.B) <= 1e-8
        defects = dense_channel_gram(densify(fb))
        for idx, phi in enumerate(fb.filters):
            lhs = channel_is_projection(phi, m, 1e-9)
            rhs = defects[idx] <= 1e-9
            assert lhs == rhs
        assert spectrum_union_check(fb, tol=1e-8)
    _report("criterion 7 (50-bank oracle equivalence ensemble)")


def test_criterion_08_gabor_bounds_and_modulation_identity():
    rng = np.random.default_rng(88)
    m, q, r = 2, 2, 2
    for _ in range(20):
        phi = _random_signal(rng, m * q * r)
        bounds = gabor_frame_bounds(phi, m, r)
        bank = gabor_bank(phi, m, r)
        spectrum = dense_frame_spectrum(densify(bank))
        assert abs(max(spectrum[0], 0.0) - bounds.A) <= 1e-8
        assert abs(spectrum[-1] - bounds.B) <= 1e-8
        for n in range(m * r):
            mod = modulate(phi, q * n)
            for p in range(q * r):
                lhs = inner(mod, translate(mod, m * p))
                rhs = np.exp(2j * np.pi * n * p / r) * inner(phi, translate(phi, m * p))
                assert abs(lhs - rhs) <= 1e-12
    _report("criterion 8 (Gabor bounds vs dense, modulation identity)")


def test_criterion_09_maxflat_designs():
    start = time.perf_counter()
    for t in (2, 10):
        result = design_maxflat(t, seed=1, restarts=100)
        assert result.converged and result.restart < 100
        assert result.residual_inf <= 1e-8
        phi = result.signal
        q = result.block
        bounds = gabor_frame_bounds(phi, 2, 2)
        assert abs(bounds.A - 2.0) <= 1e-7
        assert abs(bounds.B - 2.0) <= 1e-7
        assert gabor_tightness(phi, 2, 2)
        for base in (phi, translate(phi, 2)):
            assert abs(inner(base, base) - 1.0) <= 1e-8
            for shift in range(1, q):
                assert abs(inner(base, translate(base, 4 * shift))) <= 1e-8
        bank = gabor_bank(phi, 2, 2)
        dense = densify(bank)
        assert not np.any(dense_channel_gram(dense) <= 1e-9)
        for n in range(4):
            assert abs(channel_trace(dense, n) - 2 * q) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"criterion 9 (max-flat designs T=2 and T=10, {elapsed:.2f}s)")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(10)

    # polyphase round trip, exact
    from refs import reconstruct

    for _ in range(20):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, 7))
        phi = _random_signal(rng, m * p)
        assert reconstruct(decompose(phi, m)) == phi

    # polyphase-domain inner product is unitary
    for _ in range(100):
        phi = _random_signal(rng, 16)
        psi = _random_signal(rng, 16)
        assert abs(pp_inner(phi, psi, 2) - inner(phi, psi)) <= 1e-10

    # synthesis / analysis adjoint identity
    for _ in range(20):
        fb = FilterBank(tuple(_random_signal(rng, 12) for _ in range(4)), 3)
        ys = [_random_signal(rng, 4) for _ in range(4)]
        x = _random_signal(rng, 12)
        lhs = inner(synthesis_apply(fb, ys), x)
        rhs = sum(inner(y, c) for y, c in zip(ys, analysis_apply(fb, x)))
        assert abs(lhs - rhs) <= 1e-10

    # DFT of the translate correlation equals the evaluated polyphase pairing
    for _ in range(20):
        m, ip = 2, 6
        x = _random_signal(rng, m * ip)
        phi = _random_signal(rng, m * ip)
        corr = np.array([inner(x, translate(phi, m * p)) for p in range(ip)])
        ex = np.stack([Signal(c).eval_all() for c in decompose(x, m)[:, 0]])
        ep = np.stack([Signal(c).eval_all() for c in decompose(phi, m)[:, 0]])
        assert np.max(np.abs(np.fft.fft(corr) - np.sum(ex * np.conj(ep), axis=0))) <= 1e-10

    # tetrahedron fusion frame: four rank-2 projections, weight 3/8 each
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    projections = [
        (np.linalg.eigh(np.eye(3) - np.outer(v, v))[1][:, 1:], 3.0 / 8.0)
        for v in verts
    ]
    ok, residual = verify_weighted_parseval(projections, dim=3, tol=1e-12)
    assert ok and residual <= 1e-12

    _report("criterion 10 (property suites)")
