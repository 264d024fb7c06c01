import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbff.cyclic import Signal, twist
from fbff.multilevel import equivalent_filter
from fbff.signals import (
    FilterBank,
    bank_from_json,
    bank_to_json,
    circ_convolve,
    signal_from_json,
    signal_to_json,
    translate_matrix,
    upsample,
)
from refs import (
    analysis_apply,
    delta,
    downsample,
    inner,
    involution,
    norm,
    periodize,
    synthesis_apply,
    translate,
    zero,
)

S3 = np.sqrt(3.0)


def _random_signal(rng, period):
    return rng.standard_normal(period) + 1j * rng.standard_normal(period)


def _equal(a, b):
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _mercedes_bank(inner_period):
    # 3-channel, 2-downsampled constant bank with projection channels
    p = 2 * inner_period
    phi0 = delta(0, p)
    phi1 = 0.5 * (-delta(0, p) + S3 * delta(1, p))
    phi2 = 0.5 * (-delta(0, p) - S3 * delta(1, p))
    return FilterBank([phi0, phi1, phi2], 2)


def test_convolve_with_delta_is_identity():
    rng = np.random.default_rng(0)
    x = Signal(_random_signal(rng, 6))
    assert circ_convolve(x, Signal(delta(0, 6))) == x


def test_convolve_shifts_compose():
    assert circ_convolve(Signal(delta(1, 4)), Signal(delta(1, 4))) == Signal(delta(2, 4))


def test_convolution_theorem_oracle():
    rng = np.random.default_rng(1)
    x = _random_signal(rng, 8)
    h = _random_signal(rng, 8)
    lhs = np.fft.fft(circ_convolve(Signal(x), Signal(h)).samples)
    rhs = np.fft.fft(x) * np.fft.fft(h)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_convolve_period_mismatch():
    with pytest.raises(ValueError):
        circ_convolve(Signal(zero(4)), Signal(zero(6)))


def test_upsample_delta():
    assert _equal(upsample(delta(0, 3), 2), delta(0, 6))


def test_upsample_by_definition():
    assert _equal(upsample(np.array([1, 2]), 2), np.array([1, 0, 2, 0]))


def test_upsample_preserves_norm():
    rng = np.random.default_rng(2)
    y = _random_signal(rng, 5)
    assert norm(upsample(y, 3)) == pytest.approx(norm(y), abs=1e-12)


def test_downsample_inverts_upsample():
    rng = np.random.default_rng(3)
    y = _random_signal(rng, 5)
    assert _equal(downsample(upsample(y, 4), 4), y)


def test_downsample_by_definition():
    assert _equal(downsample(np.array([1, 2, 3, 4]), 2), np.array([1, 3]))


def test_downsample_matches_indexing_oracle():
    rng = np.random.default_rng(4)
    x = _random_signal(rng, 12)
    expected = np.array([x[3 * p] for p in range(4)])
    np.testing.assert_array_equal(downsample(x, 3), expected)


def test_downsample_requires_divisor():
    with pytest.raises(ValueError):
        downsample(zero(5), 2)


def test_translate_trivials():
    rng = np.random.default_rng(5)
    x = _random_signal(rng, 8)
    assert _equal(translate(x, 0), x)
    assert _equal(translate(delta(0, 8), 3), delta(3, 8))


def test_translate_group_law():
    rng = np.random.default_rng(6)
    x = _random_signal(rng, 9)
    assert _equal(translate(translate(x, 2), 5), translate(x, 7))


def test_modulate_trivials():
    # modulation by the character exp(2 pi j p q / P) is the twist of order P
    rng = np.random.default_rng(7)
    x = _random_signal(rng, 8)
    assert _equal(twist(x, 0, 8), x)
    np.testing.assert_allclose(twist(delta(0, 8), 3, 8), delta(0, 8))
    np.testing.assert_allclose(np.abs(twist(x, 5, 8)), np.abs(x), atol=1e-14)


def test_involution_involutive():
    rng = np.random.default_rng(8)
    x = _random_signal(rng, 7)
    assert _equal(involution(involution(x)), x)


def test_involution_of_delta():
    assert _equal(involution(delta(2, 5)), delta(-2, 5))


def test_involution_turns_convolution_into_correlation():
    # <x, T^k phi> equals (involution(phi) * x)[k]
    rng = np.random.default_rng(9)
    x = _random_signal(rng, 8)
    phi = _random_signal(rng, 8)
    conv = circ_convolve(Signal(involution(phi)), Signal(x))
    for k in range(8):
        direct = inner(x, translate(phi, k))
        assert conv.samples[k] == pytest.approx(direct, abs=1e-12)


def test_synthesis_zero_inputs():
    fb = _mercedes_bank(3)
    out = synthesis_apply(fb, [zero(3)] * 3)
    assert _equal(out, zero(6))


def test_synthesis_single_delta_channel_upsamples():
    fb = FilterBank([delta(0, 8)], 2)
    rng = np.random.default_rng(10)
    y = _random_signal(rng, 4)
    assert _equal(synthesis_apply(fb, [y]), upsample(y, 2))


def test_synthesis_analysis_adjoint_identity():
    rng = np.random.default_rng(11)
    fb = FilterBank([_random_signal(rng, 12) for _ in range(4)], 3)
    ys = [_random_signal(rng, 4) for _ in range(4)]
    x = _random_signal(rng, 12)
    lhs = inner(synthesis_apply(fb, ys), x)
    channels = analysis_apply(fb, x)
    rhs = sum(inner(y, c) for y, c in zip(ys, channels))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_analysis_zero():
    fb = _mercedes_bank(2)
    assert _equal(analysis_apply(fb, zero(4)), np.zeros((3, 2), dtype=complex))


def test_analysis_samples_are_frame_coefficients():
    rng = np.random.default_rng(12)
    fb = FilterBank([_random_signal(rng, 10) for _ in range(3)], 2)
    x = _random_signal(rng, 10)
    channels = analysis_apply(fb, x)
    for phi, c in zip(fb.samples, channels):
        for p in range(5):
            assert c[p] == pytest.approx(
                inner(x, translate(phi, 2 * p)), abs=1e-12
            )


def test_tight_bank_round_trip_scales_by_bound():
    fb = _mercedes_bank(4)
    rng = np.random.default_rng(13)
    x = _random_signal(rng, 8)
    back = synthesis_apply(fb, analysis_apply(fb, x))
    np.testing.assert_allclose(back, 1.5 * x, atol=1e-10)


def test_tight_bank_analysis_energy():
    fb = _mercedes_bank(4)
    rng = np.random.default_rng(14)
    x = _random_signal(rng, 8)
    energy = sum(norm(c) ** 2 for c in analysis_apply(fb, x))
    assert energy == pytest.approx(1.5 * norm(x) ** 2, rel=1e-9)


def test_upsample_convolution_commutation():
    # phi * up(psi * y) == (phi * up(psi)) * up(y)
    rng = np.random.default_rng(15)
    m = 2
    phi = _random_signal(rng, 12)
    psi = _random_signal(rng, 6)
    y = _random_signal(rng, 6)
    phi, psi, y = Signal(phi), Signal(psi), Signal(y)
    lhs = circ_convolve(phi, Signal(upsample(circ_convolve(psi, y).samples, m)))
    rhs = circ_convolve(
        circ_convolve(phi, Signal(upsample(psi.samples, m))), Signal(upsample(y.samples, m))
    )
    np.testing.assert_allclose(lhs.samples, rhs.samples, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_translate_matrix_operators_match_convolution_formulas(m):
    # the translate-matrix operators against the ring-product convolve-upsample
    # and correlate-downsample formulas, the ring-product equivalent filter
    # against one-channel synthesis, and the ring product against the O(P^2)
    # convolution sum; inner period P = 5, so m = 5 is the case M = P
    rng = np.random.default_rng(30 + m)
    p = 5
    fb = FilterBank([_random_signal(rng, m * p) for _ in range(3)], m)
    ys = [_random_signal(rng, p) for _ in range(3)]
    x = _random_signal(rng, m * p)

    def convolve(a, h):  # the ring product
        return circ_convolve(Signal(a), Signal(h)).samples

    def direct_convolve(a, h):
        n = len(a)
        return np.array([sum(a[j] * h[(k - j) % n] for j in range(n)) for k in range(n)])

    def close(got, want):
        err = np.linalg.norm(got - want)
        assert err <= 1e-12 * np.linalg.norm(want)

    terms = [convolve(phi, upsample(y, m)) for phi, y in zip(fb.samples, ys)]
    close(synthesis_apply(fb, ys), sum(terms, zero(m * p)))
    for phi, got in zip(fb.samples, analysis_apply(fb, x)):
        close(got, downsample(convolve(involution(phi), x), m))
    phi, psi = fb.samples[0], ys[0]
    eq = equivalent_filter(phi, psi, m)
    close(eq, synthesis_apply(FilterBank([phi], m), [psi]))
    close(convolve(x, fb.samples[1]), direct_convolve(x, fb.samples[1]))


@pytest.mark.parametrize("m", [4, 0, -2, 12])
def test_translate_matrix_requires_positive_divisor(m):
    # a 6-sample signal: no step coerced to a 6 x 1, 6 x 0 or 6 x 6 matrix
    with pytest.raises(ValueError, match="must divide period 6"):
        translate_matrix(delta(0, 6), m)


@given(
    p=st.integers(min_value=1, max_value=48),
    cols=st.sampled_from([None, 1, 3]),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_translate_matrix_is_a_read_only_view_of_rolls(p, cols, seed, data):
    # a 1-D array or a (P, c) array: slice [..., k] is the input
    # rolled by m k along axis 0 for every m | P, and nothing writes through
    # it; a step below 1 or not dividing P keeps its message
    m = data.draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]), label="m")
    rng = np.random.default_rng(seed)
    shape = (p,) if cols is None else (p, cols)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bad = [data.draw(st.integers(min_value=-4, max_value=0), label="m < 1")]
    bad += [d for d in range(2, p + 2) if p % d]
    t = translate_matrix(a, m)
    assert t.shape == shape + (p // m,)
    assert all(np.array_equal(t[..., k], np.roll(a, m * k, axis=0)) for k in range(p // m))
    assert not t.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 0
    for step in bad:
        with pytest.raises(ValueError, match=f"^translation step {step} must divide period {p}$"):
            translate_matrix(a, step)


def test_periodize_identity():
    rng = np.random.default_rng(16)
    x = _random_signal(rng, 8)
    assert _equal(periodize(x, 8), x)


def test_periodize_folds():
    x = delta(0, 8) + delta(4, 8)
    assert _equal(periodize(x, 4), np.array([2, 0, 0, 0], dtype=complex))


def test_periodize_requires_divisor():
    with pytest.raises(ValueError):
        periodize(zero(9), 4)


def test_filterbank_validation():
    # the one constructor takes a nonempty (N, M * P) stack; M must divide M * P
    for empty in ([], np.zeros((0, 4))):
        with pytest.raises(ValueError, match="^a filter bank needs at least one channel$"):
            FilterBank(empty, 0)  # the channel count is checked before the rate
    for shape in ((3, 0), (4,), (1, 2, 4), ()):
        message = re.escape(f"need an (N, M * P) sample stack, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            FilterBank(np.zeros(shape), 1)
    with pytest.raises(ValueError):  # rows of unequal periods do not stack
        FilterBank([zero(4), zero(6)], 2)
    with pytest.raises(ValueError, match="^downsampling rate 2 must divide filter period 5$"):
        FilterBank([zero(5)], 2)
    with pytest.raises(ValueError, match="^downsampling rate must be positive$"):
        FilterBank([zero(4)], 0)
    with pytest.raises(ValueError, match=r"M, N, P >= 1, got \(2, 0, 3\)"):
        FilterBank.from_coeffs(np.zeros((2, 0, 3)))
    with pytest.raises(ValueError):
        synthesis_apply(_mercedes_bank(2), [zero(2)] * 2)
    with pytest.raises(ValueError):
        analysis_apply(_mercedes_bank(2), zero(6))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2)])
def test_filterbank_samples_is_the_read_only_stack_under_coeffs(m, n):
    # built from a sample stack or from a polyphase array: one buffer, seen
    # twice, a copy of its input, which stays writeable and unchanged
    rng = np.random.default_rng(m * 10 + n)
    filters = rng.standard_normal((n, 6 * m)) + 1j * rng.standard_normal((n, 6 * m))
    coeffs = rng.standard_normal((m, n, 6)) + 1j * rng.standard_normal((m, n, 6))
    for fb, given in ((FilterBank(filters, m), filters), (FilterBank.from_coeffs(coeffs), coeffs)):
        assert fb.samples.shape == (n, 6 * m) and fb.samples.dtype == complex
        assert not fb.samples.flags.writeable and not fb.coeffs.flags.writeable
        assert np.shares_memory(fb.samples, fb.coeffs)
        assert not np.shares_memory(fb.samples, given) and given.flags.writeable
        for k in range(n):
            assert np.array_equal(fb.samples[k].reshape(6, m).T, fb.coeffs[:, k])
        with pytest.raises(ValueError):
            fb.samples[0, 0] = 1.0
    assert np.array_equal(FilterBank(filters, m).samples, filters)
    assert np.array_equal(FilterBank.from_coeffs(coeffs).coeffs, coeffs)


def test_signal_json_round_trip():
    rng = np.random.default_rng(17)
    x = _random_signal(rng, 6)
    (obj,) = signal_to_json(x[None])
    again = signal_from_json(json.loads(json.dumps(obj)))
    assert _equal(again, x)


_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308])


@given(
    st.lists(
        st.one_of(
            st.complex_numbers(allow_nan=False, allow_infinity=False),
            st.builds(complex, _EXTREMES, _EXTREMES),
        ),
        min_size=1,
        max_size=16,
    )
)
def test_signal_json_samples_match_the_per_sample_floats(values):
    x = np.array(values, dtype=complex)
    (obj,) = signal_to_json(x[None])
    expected = [[float(v.real), float(v.imag)] for v in x]
    # float.hex tells -0.0 from 0.0, which == does not
    assert [[(type(f), f.hex()) for f in pair] for pair in obj["samples"]] == [
        [(float, f.hex()) for f in pair] for pair in expected
    ]
    assert _equal(signal_from_json(json.loads(json.dumps(obj))), x)


def test_bank_json_round_trip():
    fb = _mercedes_bank(3)
    again = bank_from_json(json.loads(json.dumps(bank_to_json(fb))))
    assert again.downsample == fb.downsample
    assert _equal(again.samples, fb.samples)


def test_bank_json_validates_inner_period():
    obj = bank_to_json(_mercedes_bank(3))
    obj["inner_period"] = 5
    with pytest.raises(ValueError):
        bank_from_json(obj)


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=12),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_translate_group_property(samples, j, k):
    x = np.array(samples, dtype=complex)
    assert _equal(translate(translate(x, j), k), translate(x, j + k))


def test_bank_from_json_refuses_an_all_bool_signal_among_numbers():
    # a stack of all its signals is numeric; the bool signal alone is not
    filters = [
        {"period": 2, "samples": [[0.5, 0.0], [1, 0]]},
        {"period": 2, "samples": [[True, False], [False, True]]},
    ]
    with pytest.raises(ValueError, match="number pairs"):
        bank_from_json({"downsample": 1, "inner_period": 2, "filters": filters})
    filters[1]["samples"][0][1] = 0.25  # one number among bools makes them numbers
    assert bank_from_json({"downsample": 1, "inner_period": 2, "filters": filters}).samples[1, 0] == 1 + 0.25j
