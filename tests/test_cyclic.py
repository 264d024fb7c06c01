import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbff import analysis, cyclic
from fbff.cyclic import Signal, ring_product, twist
from refs import conj_reverse, delta, zero


def _random_poly(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def _direct_dft(coeffs):
    # independent O(P^2) evaluation at every root
    p = len(coeffs)
    out = []
    for k in range(p):
        acc = 0.0 + 0.0j
        for q in range(p):
            acc += coeffs[q] * np.exp(-2j * np.pi * k * q / p)
        out.append(acc)
    return np.array(out)


def test_add_coefficientwise():
    a = Signal([1, 1, 0, 0])  # 1 + z^-1
    b = Signal([0, 1, 0, 0])  # z^-1
    assert a + b == Signal([1, 2, 0, 0])


def test_add_identity():
    rng = np.random.default_rng(0)
    a = _random_poly(rng, 5)
    assert a + Signal(zero(5)) == a


def test_add_matches_elementwise_oracle():
    rng = np.random.default_rng(1)
    a = _random_poly(rng, 8)
    b = _random_poly(rng, 8)
    expected = np.array([a.samples[i] + b.samples[i] for i in range(8)])
    np.testing.assert_array_equal((a + b).samples, expected)


def test_mul_monomial_wraps_mod_period():
    p = 6
    z1 = Signal(delta(1, p))
    zrest = Signal(delta(p - 1, p))
    assert z1 * zrest == Signal(delta(0, p))


def test_mul_identity():
    rng = np.random.default_rng(2)
    a = _random_poly(rng, 7)
    assert a * Signal(delta(0, 7)) == a


def test_mul_is_evaluation_homomorphism():
    rng = np.random.default_rng(3)
    a = _random_poly(rng, 6)
    b = _random_poly(rng, 6)
    prod = a * b
    for p in range(6):
        assert prod.eval_at_root(p) == pytest.approx(
            a.eval_at_root(p) * b.eval_at_root(p), abs=1e-12
        )


def test_mul_period_mismatch():
    with pytest.raises(ValueError):
        Signal(zero(4)) * Signal(zero(5))
    with pytest.raises(ValueError):
        Signal(zero(4)) + Signal(zero(5))


def _folded_convolution(a, b):
    # reference ring product: linear convolution folded by z^P = 1
    full = np.convolve(a, b)
    out = full[: a.size].copy()
    out[: full.size - a.size] += full[a.size :]
    return out


def test_ring_product_matches_folded_convolution_either_way_round():
    rng = np.random.default_rng(21)
    period = 9
    dense = rng.standard_normal((2, 3, period)) + 1j * rng.standard_normal((2, 3, period))
    sparse = np.zeros((3, 4, period), dtype=complex)
    sparse[..., [0, 5]] = rng.standard_normal((3, 4, 2))
    expect = np.zeros((2, 4, period), dtype=complex)
    for m in range(2):
        for n in range(4):
            for k in range(3):
                expect[m, n] += _folded_convolution(dense[m, k], sparse[k, n])
    matmul = lambda a, b: np.einsum("mk...,kn...->mn...", a, b)
    np.testing.assert_allclose(ring_product(dense, sparse, matmul), expect, atol=1e-12)
    swapped = ring_product(sparse.transpose(1, 0, 2), dense.transpose(1, 0, 2), matmul)
    np.testing.assert_allclose(swapped, expect.transpose(1, 0, 2), atol=1e-12)


def test_scalar_multiplication():
    a = Signal([1, 2, 3])
    assert 2 * a == Signal([2, 4, 6])
    assert a * (1 + 1j) == Signal([1 + 1j, 2 + 2j, 3 + 3j])


def test_eval_constant():
    c = Signal(delta(0, 5, 2.5 - 1j))
    for p in range(5):
        assert c.eval_at_root(p) == pytest.approx(2.5 - 1j, abs=1e-14)


def test_eval_monomial():
    # z^-1 at p=1 with P=4 gives exp(-2 pi j / 4) = -j
    a = Signal(delta(1, 4))
    assert a.eval_at_root(1) == pytest.approx(-1j, abs=1e-14)


def test_eval_all_matches_direct_dft():
    rng = np.random.default_rng(4)
    a = _random_poly(rng, 8)
    expected = _direct_dft(a.samples)
    np.testing.assert_allclose(a.eval_all(), expected, atol=1e-12)
    for p in range(8):
        assert a.eval_at_root(p) == pytest.approx(expected[p], abs=1e-12)


def test_eval_at_root_reads_exact_exponents_of_the_cached_roots():
    # eval_at_root(p) is the FFT's entry p mod P for any integer p, and
    # exactly periodic in p: the roots are read at q p mod P, computed in
    # integers, so a huge p costs no phase accuracy.
    rng = np.random.default_rng(11)
    for period in range(1, 65):
        a = _random_poly(rng, period)
        values = a.eval_all()
        bound = 4 * period * np.finfo(float).eps * float(np.sum(np.abs(a.samples)))
        for p in (0, 1, period - 1, period, period + 2, -1, -period - 3, 10**18 + 3):
            assert abs(a.eval_at_root(p) - values[p % period]) <= bound
            assert a.eval_at_root(p) == a.eval_at_root(p + period)
    roots = cyclic._roots_of_unity(64)
    assert cyclic._roots_of_unity(64) is roots
    with pytest.raises(ValueError, match="read-only"):
        roots[1] = 1.0


def test_eval_at_root_is_the_integer_exponent_gather_bit_for_bit():
    # the cached row of root powers is the root table gathered at q p mod P,
    # so each value equals that gather written out here, exactly; a row
    # built from float phases 2 pi q p / P differs in the last bits
    rng = np.random.default_rng(12)
    for period in range(1, 65):
        a = _random_poly(rng, period)
        roots = cyclic._roots_of_unity(period)
        for p in (0, 1, period - 1, period, period + 2, -1, -period - 3, 10**18 + 3, np.int64(7)):
            expected = complex(a.samples @ roots[np.arange(period) * (p % period) % period])
            assert a.eval_at_root(p) == expected



@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1.0, 1e-310, 1e300]),
)
def test_eval_at_root_is_the_matmul_of_its_root_powers_bit_for_bit(period, p, seed, scale):
    # eval_at_root takes ndarray.dot, which gives the bits of samples @ row in
    # less time; scaled samples add subnormal and huge products
    a = Signal(scale * (np.random.default_rng(seed).standard_normal((period, 2)) @ [1, 1j]))
    got = np.array([a.eval_at_root(p)])
    want = np.array([complex(a.samples @ cyclic._root_powers(period, p % period))])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

def test_root_power_rows_are_bounded_and_read_only():
    rng = np.random.default_rng(13)
    analysis.gram_stack(rng.standard_normal((8, 12, 256, 2)) @ [1, 1j])
    for period in (64, 128):
        a = _random_poly(rng, period)
        for p in range(period):
            a.eval_at_root(p)
    info = cyclic._root_powers.cache_info()
    assert info.currsize <= info.maxsize <= 8
    row = cyclic._root_powers(64, 3)
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0


def test_twist_identity():
    rng = np.random.default_rng(5)
    a = _random_poly(rng, 6)
    np.testing.assert_allclose(twist(a.samples, 0, 3), a.samples, atol=0)


def test_twist_sign_flip():
    a = Signal(delta(1, 4))
    np.testing.assert_allclose(twist(a.samples, 1, 2), (-a).samples, atol=1e-15)


def test_twist_postcondition_at_all_roots():
    rng = np.random.default_rng(6)
    a = _random_poly(rng, 12)
    twisted = Signal(twist(a.samples, 1, 3))
    for p in range(12):
        # direct evaluation of a at exp(-2 pi j / 3) * exp(2 pi j p / 12)
        z = np.exp(-2j * np.pi / 3) * np.exp(2j * np.pi * p / 12)
        direct = sum(a.samples[q] * z ** (-q) for q in range(12))
        assert twisted.eval_at_root(p) == pytest.approx(direct, abs=1e-12)


def test_twist_requires_divisor():
    with pytest.raises(ValueError):
        twist(np.zeros(4), 1, 3)


def test_twist_composes_additively():
    rng = np.random.default_rng(7)
    a = _random_poly(rng, 8)
    lhs = twist(twist(a.samples, 1, 4), 2, 4)
    rhs = twist(a.samples, 3, 4)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_conj_reverse_real_constant():
    c = Signal(delta(0, 4, 3.0))
    assert Signal(conj_reverse(c.samples)) == c


def test_conj_reverse_monomial():
    # j z^-1 with P=4 becomes -j z^-3
    a = Signal(delta(1, 4, scale=1j))
    assert Signal(conj_reverse(a.samples)) == Signal(delta(3, 4, scale=-1j))


def test_conj_reverse_conjugates_evaluations():
    rng = np.random.default_rng(8)
    a = _random_poly(rng, 8)
    rev = Signal(conj_reverse(a.samples))
    for p in range(8):
        assert rev.eval_at_root(p) == pytest.approx(
            np.conj(a.eval_at_root(p)), abs=1e-12
        )


def test_conj_reverse_involution():
    rng = np.random.default_rng(9)
    a = _random_poly(rng, 11)
    assert Signal(conj_reverse(conj_reverse(a.samples))) == a


def test_power_of_shift_is_one():
    p = 5
    acc = Signal(delta(0, p))
    for _ in range(p):
        acc = acc * Signal(delta(1, p))
    np.testing.assert_allclose(acc.samples, Signal(delta(0, p)).samples, atol=1e-15)


@st.composite
def _poly_pair(draw):
    period = draw(st.integers(min_value=1, max_value=8))
    def coeff():
        return st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=period,
            max_size=period,
        )
    a = draw(coeff())
    b = draw(coeff())
    return Signal(a), Signal(b)


@given(_poly_pair())
def test_evaluation_homomorphism_property(pair):
    a, b = pair
    scale = max(1.0, float(np.max(np.abs(a.samples))) * float(np.max(np.abs(b.samples))))
    prod = a * b
    total = a + b
    for p in range(a.period):
        ea, eb = a.eval_at_root(p), b.eval_at_root(p)
        assert abs(prod.eval_at_root(p) - ea * eb) <= 1e-10 * a.period * scale
        assert abs(total.eval_at_root(p) - (ea + eb)) <= 1e-10 * a.period * max(1.0, scale)
