import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbff import multilevel
from fbff.analysis import (
    channel_defects,
    channel_is_projection,
    fusion_report,
    isometry_defect,
)
from fbff.constructions import (
    NAMED_MATRICES,
    daubechies4,
    elementary_paraunitary,
    mercedes_benz,
    modulated_daubechies_stack,
    named_matrix,
    paraunitary_chain,
    paraunitary_product,
    tensor,
)
from fbff.multilevel import (
    TreeNode,
    compose_tree,
    equivalent_filter,
    periodize_bank,
    tree_from_json,
    verify_tree,
    verify_weighted_parseval,
)
from fbff.polyphase import bank_of, decompose
from fbff.signals import FilterBank, circ_convolve, translate_matrix, upsample
from refs import (
    analysis_apply,
    delta,
    dwt_tree,
    inner,
    norm,
    packet_tree,
    periodize,
    synthesis_apply,
    zero,
)

AMBIENT = 16  # 4 * Q with Q = 4


def _random_signal(rng, period):
    return rng.standard_normal(period) + 1j * rng.standard_normal(period)


def _stacked_bank(ambient=AMBIENT):
    return bank_of(modulated_daubechies_stack(ambient // 2))


def test_channel_apply_delta_filter_upsamples():
    ch = FilterBank([delta(0, 8)], 2)
    rng = np.random.default_rng(0)
    y = _random_signal(rng, 4)
    assert np.array_equal(synthesis_apply(ch, [y]), upsample(y, 2))


def test_channel_adjoint_identity():
    rng = np.random.default_rng(1)
    ch = FilterBank([_random_signal(rng, 12)], 3)
    y = _random_signal(rng, 4)
    x = _random_signal(rng, 12)
    lhs = inner(synthesis_apply(ch, [y]), x)
    rhs = inner(y, analysis_apply(ch, x)[0])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_projection_channel_left_inverse():
    fb = _stacked_bank()
    rng = np.random.default_rng(2)
    ch = FilterBank([fb.samples[0]], 2)
    y = _random_signal(rng, 8)
    back = analysis_apply(ch, synthesis_apply(ch, [y]))[0]
    np.testing.assert_allclose(back, y, atol=1e-10)


def test_channel_shape_validation():
    ch = FilterBank([delta(0, 8)], 2)
    with pytest.raises(ValueError):
        synthesis_apply(ch, [zero(8)])
    with pytest.raises(ValueError):
        analysis_apply(ch, zero(4))[0]
    with pytest.raises(ValueError):
        FilterBank([zero(9)], 2)


def test_equivalent_filter_delta_inner():
    rng = np.random.default_rng(3)
    outer = _random_signal(rng, 8)
    assert np.array_equal(equivalent_filter(outer, delta(0, 4), 2), outer)


def test_equivalent_filter_composition_identity():
    rng = np.random.default_rng(4)
    outer = _random_signal(rng, 16)
    inner_f = _random_signal(rng, 8)
    y = _random_signal(rng, 4)
    composed = synthesis_apply(
        FilterBank([outer], 2), [synthesis_apply(FilterBank([inner_f], 2), [y])]
    )
    eq = equivalent_filter(outer, inner_f, 2)
    direct = circ_convolve(eq, upsample(upsample(y, 2), 2))
    np.testing.assert_allclose(composed, direct, atol=1e-10)


def test_equivalent_filter_squared_response_factorizes():
    fb = _stacked_bank()
    folded = periodize_bank(fb, 8)
    period = fb.filter_period
    k_out = np.arange(period)
    k_in = np.arange(8)
    omegas = 2 * np.pi * np.arange(period) / period
    for outer in fb.samples:
        for inner_f in folded.samples:
            eq = equivalent_filter(outer, inner_f, 2)
            for w in omegas:
                lhs = abs(np.sum(eq * np.exp(-1j * k_out * w))) ** 2
                rhs = (
                    abs(np.sum(outer * np.exp(-1j * k_out * w))) ** 2
                    * abs(np.sum(inner_f * np.exp(-1j * k_in * 2 * w))) ** 2
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_depth_one_tree():
    fb = _stacked_bank()
    filters, rates, weights = compose_tree(TreeNode(fb), AMBIENT)
    assert filters.shape == (4, AMBIENT) and filters.dtype == complex
    assert weights == [Fraction(1, 2)] * 4
    assert rates == [2] * 4  # rank 8 each
    ok, residual = verify_tree(filters, rates, weights)
    assert ok and residual <= 1e-9


def test_dwt_tree_leaves():
    fb = _stacked_bank()
    filters, rates, weights = compose_tree(dwt_tree(fb, 2), AMBIENT)
    assert filters.shape == (7, AMBIENT)
    assert sorted(str(w) for w in weights) == ["1/2", "1/2", "1/2", "1/4", "1/4", "1/4", "1/4"]
    assert sorted(AMBIENT // m for m in rates) == [4, 4, 4, 4, 8, 8, 8]
    ok, residual = verify_tree(filters, rates, weights)
    assert ok and residual <= 1e-9


def test_packet_tree_leaves():
    fb = _stacked_bank()
    filters, rates, weights = compose_tree(packet_tree(fb, 2), AMBIENT)
    assert filters.shape == (16, AMBIENT)
    assert weights == [Fraction(1, 4)] * 16
    assert rates == [4] * 16  # rank 4 each
    ok, residual = verify_tree(filters, rates, weights)
    assert ok and residual <= 1e-9


def _basis_isometry(phi, m):
    # the leaf's synthesis applied to each basis vector of its input space
    ch = FilterBank([phi], m)
    rank = ch.inner_period
    cols = [synthesis_apply(ch, [delta(k, rank)]) for k in range(rank)]
    return np.stack(cols, axis=1)


def _as_composed(filters, rates, weights):
    return filters, rates, weights


def _double_first_weight(filters, rates, weights):
    return filters, rates, [2 * weights[0], *weights[1:]]


def _scale_first_filter(filters, rates, weights):
    filters = filters.copy()
    filters[0] *= 2
    return filters, rates, weights


@pytest.mark.parametrize("tree", [dwt_tree, packet_tree], ids=["dwt", "packet"])
@pytest.mark.parametrize(
    "edit,expected",
    [(_as_composed, True), (_double_first_weight, False), (_scale_first_filter, False)],
    ids=["as-composed", "weight-doubled", "filter-scaled"],
)
def test_verify_tree_matches_basis_reference(tree, edit, expected):
    filters, rates, weights = edit(*compose_tree(tree(_stacked_bank(), 2), AMBIENT))
    ok, residual = verify_tree(filters, rates, weights)
    reference = [(_basis_isometry(phi, m), w) for phi, m, w in zip(filters, rates, weights)]
    ref_ok, ref_residual = verify_weighted_parseval(reference, AMBIENT)
    assert ok == ref_ok == expected
    assert abs(residual - ref_residual) <= 1e-12


def test_verify_tree_reads_the_leaf_channel_defect():
    # the first leaf scaled by 1 + delta: the tree's residual is that leaf's
    # polyphase channel defect, and its verdict flips where the leaf's does
    filters, rates, weights = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    m = rates[0]
    verdicts = set()
    for delta in np.geomspace(1e-11, 1e-8, 30):
        scaled = filters.copy()
        scaled[0] *= 1 + delta
        phi = scaled[0]
        ok, residual = verify_tree(scaled, rates, weights)
        defect = channel_defects(decompose(phi, m))[0]
        assert abs(residual - defect) <= 1e-12 * max(1.0, defect)
        assert ok == channel_is_projection(phi, m)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_verify_tree_reads_the_off_diagonal_leaf_defects():
    # two rows of a degree-one paraunitary factor are a tight frame whose
    # channels are not projections.  Each filter scaled to unit energy and
    # weighted by its energy keeps sum w T T^H = I and T^H T's diagonal at 1:
    # only T^H T's off-diagonal entries reject the leaves
    u = np.array([1.0, 2.0, 2.0j]) / 3
    samples = bank_of(elementary_paraunitary(u, 8)[:2]).samples
    weights = [float(np.vdot(f, f).real) for f in samples]
    filters = np.array([(1 / np.sqrt(energy)) * f for f, energy in zip(samples, weights)])
    ts = [(translate_matrix(phi, 2), w) for phi, w in zip(filters, weights)]
    frame_operator = sum(w * t @ t.conj().T for t, w in ts)
    assert np.max(np.abs(frame_operator - np.eye(16))) <= 1e-12
    ok, residual = verify_tree(filters, [2] * len(filters), weights)
    assert not ok
    assert abs(residual - max(isometry_defect(t) for t, _ in ts)) <= 1e-12
    assert residual == pytest.approx(0.5)


def test_verify_tree_reads_lcm_of_the_leaf_rates_columns():
    # leaf rates 4 and 6: the frame operator commutes with translation by
    # lcm = 12, not by the largest rate.  With two weights raised, columns
    # 6-11 of S - I hold entries larger than any of columns 0-5
    dirac3 = bank_of(np.eye(3)[:, :, None] * np.eye(4)[0])  # rate 3, period 12
    root = TreeNode(bank_of(daubechies4(12)), [TreeNode(bank_of(daubechies4(6))), TreeNode(dirac3)])
    filters, rates, weights = compose_tree(root, 24)
    assert rates == [4, 4, 6, 6, 6]
    assert verify_tree(filters, rates, weights)[0]
    raised = [w * k for w, k in zip(weights, [1, Fraction(3, 2), Fraction(3, 2), 1, 1])]
    ts = [(translate_matrix(phi, m), w) for phi, m, w in zip(filters, rates, raised)]
    defect = np.abs(sum(float(w) * t @ t.conj().T for t, w in ts) - np.eye(24))
    ok, residual = verify_tree(filters, rates, raised)
    assert not ok
    assert abs(residual - defect.max()) <= 1e-12
    assert defect[:, :6].max() < residual - 0.05


def test_verify_tree_rejects_a_non_finite_leaf():
    # one NaN sample in one leaf: the residual is NaN and the tree fails
    filters, rates, weights = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    filters[0, 3] = np.nan
    ok, residual = verify_tree(filters, rates, weights)
    assert not ok and np.isnan(residual)


def test_large_packet_tree_verifies():
    # 5 levels of Daubechies-4 at ambient 1024: 32 leaves of rank 32
    leaves = compose_tree(packet_tree(bank_of(daubechies4(512)), 5), 1024)
    assert leaves[0].shape == (32, 1024)
    ok, residual = verify_tree(*leaves)
    assert ok and residual <= 1e-12
    for edit in (_double_first_weight, _scale_first_filter):
        assert not verify_tree(*edit(*leaves))[0]


def test_deep_packet_tree_verifies_without_a_dim_squared_array():
    # 6 levels of Daubechies-4 at ambient 4096: 64 leaves of rank 64.  One
    # dim x dim complex array is dim**2 * 16 bytes; the check holds the first
    # lcm-of-rates columns of the sum and one leaf's dim x rank T at a time
    dim = 4096
    leaves = compose_tree(packet_tree(bank_of(daubechies4(dim // 2)), 6), dim)
    assert leaves[0].shape == (64, dim)
    tracemalloc.start()
    try:
        ok, residual = verify_tree(*leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and residual <= 1e-12
    assert peak < dim**2 * 16 / 8
    for edit in (_double_first_weight, _scale_first_filter):
        assert not verify_tree(*edit(*leaves))[0]


def test_deep_dwt_verifies_holding_one_translate_matrix():
    # 8 levels of Daubechies-4 at ambient 4096: the rate-2 leaf's dim x dim/2
    # complex T alone is dim**2 * 16 / 2 bytes.  The bound, 5/8 of one dim x dim
    # array, leaves room for that T's one contiguous copy and the first
    # lcm-of-rates columns of the sum, but not for an int64 index array
    # beside it or for the rate-4 leaf's T kept alive
    dim = 4096
    leaves = compose_tree(dwt_tree(bank_of(daubechies4(dim // 2)), 8), dim)
    assert leaves[1] == [256, 256, 128, 64, 32, 16, 8, 4, 2]
    tracemalloc.start()
    try:
        ok, residual = verify_tree(*leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and residual <= 1e-12
    assert peak < dim**2 * 16 * 5 / 8


_TREE_BANKS = ("daubechies4", "example7", "mercedes-benz")
_DELTAS = np.geomspace(1e-11, 1e-6, 11)


def _shaped_tree(bank, shape, depth, rng):
    """A ``depth``-level tree of one bank: DWT (channel 0 re-expanded),
    packet (every channel) or a path through one random channel per level."""
    n = bank.n_channels
    node = TreeNode(bank)
    for _ in range(depth - 1):
        if shape == "packet":
            children = [node] * n
        else:
            children = [TreeNode(None)] * n
            children[0 if shape == "dwt" else rng.integers(n)] = node
        node = TreeNode(bank, children)
    return node


def _edited(filters, rates, weights, edit, index, delta):
    index %= len(filters)
    if edit == "weight-doubled":
        weights[index] *= 2
    elif edit == "filter-scaled":
        filters[index] *= 1 + delta
    elif edit == "leaf-dropped":
        filters = np.delete(filters, index, axis=0)
        del rates[index], weights[index]
    return filters, rates, weights


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(_TREE_BANKS),
    shape=st.sampled_from(["dwt", "packet", "path"]),
    depth=st.integers(min_value=1, max_value=3),
    log_rank=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    edit=st.sampled_from(["as-composed", "weight-doubled", "filter-scaled", "leaf-dropped"]),
    index=st.integers(min_value=0, max_value=63),
    delta=st.sampled_from(list(_DELTAS)),
)
def test_verify_tree_agrees_with_the_dense_sum(name, shape, depth, log_rank, seed, edit, index, delta):
    # the first columns of the frame operator against the dense dim x dim sum
    # over the leaves' translate matrices: same verdict, same residual.  Every
    # named bank has rate 2, so the deepest leaves have rank 2**log_rank
    dim = 2 ** (depth + log_rank)  # at most 256
    tree = _shaped_tree(bank_of(named_matrix(name, dim)), shape, depth, np.random.default_rng(seed))
    filters, rates, weights = _edited(*compose_tree(tree, dim), edit, index, delta)
    ok, residual = verify_tree(filters, rates, weights)
    dense = [(translate_matrix(phi, m), w) for phi, m, w in zip(filters, rates, weights)]
    ref_ok, ref_residual = verify_weighted_parseval(dense, dim)
    assert ok == ref_ok
    assert abs(residual - ref_residual) <= 1e-12 * max(1.0, ref_residual)


def test_verify_tree_reads_the_dimension_from_its_leaves():
    filters, rates, weights = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    short = compose_tree(TreeNode(_stacked_bank(8)), 8)
    assert verify_tree(*short)[0] and short[0].shape == (4, 8)
    with pytest.raises(ValueError, match="at least one leaf"):
        verify_tree(filters[:0], [], [])
    # the rates, weights and filters are zipped strictly: one short is refused
    for leaves in ((filters[:-1], rates, weights), (filters, rates[:-1], weights), (filters, rates, weights[:-1])):
        with pytest.raises(ValueError, match="zip"):
            verify_tree(*leaves)
    with pytest.raises(ValueError, match=f"translation step 3 must divide period {AMBIENT}"):
        verify_tree(filters, [3, *rates[1:]], weights)
    # tol is keyword-only: it cannot be passed as a fourth positional
    with pytest.raises(TypeError):
        verify_tree(filters, rates, weights, 1e-9)


def _one_level_bank(name):
    """A named bank at P = 8, or one at (M, N, P) = (8, 12, 256), dimension
    2048: CI's verify-grid tensor bank mercedes-benz.daubechies4.daubechies4,
    the same with its largest coefficient scaled by 1 + 1e-6, or a random one."""
    if name in NAMED_MATRICES:
        return bank_of(named_matrix(name, 8))
    if name == "random-2048":
        rng = np.random.default_rng(2)
        return FilterBank(rng.standard_normal((12, 2048)) + 1j * rng.standard_normal((12, 2048)), 8)
    factors = [named_matrix(part, 256) for part in ("mercedes-benz", "daubechies4", "daubechies4")]
    samples = np.array(bank_of(functools.reduce(tensor, factors)).samples)
    if name == "tensor-2048-perturbed":
        samples.flat[np.argmax(np.abs(samples))] *= 1 + 1e-6
    return FilterBank(samples, 8)


_ONE_LEVEL_VERDICTS = {
    **dict.fromkeys(NAMED_MATRICES, True),
    "tensor-2048": True,
    "tensor-2048-perturbed": False,
    "random-2048": False,
}


@pytest.mark.parametrize("name", list(_ONE_LEVEL_VERDICTS))
def test_a_bank_is_a_one_level_tree(name):
    # N channels of rate M, each of weight M/N: the bank is a PUNTF exactly
    # when these leaves pass verify_tree, and the 1e-6 perturbation flips both
    fb = _one_level_bank(name)
    m, n = fb.downsample, fb.n_channels
    ok, _ = verify_tree(fb.samples, [m] * n, [Fraction(m, n)] * n)
    assert ok == fusion_report(fb).is_puntf == _ONE_LEVEL_VERDICTS[name]


def test_weight_accounting_exact():
    fb = _stacked_bank()
    for tree in (TreeNode(fb), dwt_tree(fb, 2), packet_tree(fb, 2)):
        _, rates, weights = compose_tree(tree, AMBIENT)
        assert sum(w * (AMBIENT // m) for m, w in zip(rates, weights)) == AMBIENT


def test_inner_banks_are_periodized():
    # the same full-period bank object drives every level; leaves at depth 2
    # must use its folding: channel 0 over each folded filter
    fb = _stacked_bank()
    filters, rates, _ = compose_tree(dwt_tree(fb, 2), AMBIENT)
    assert filters.shape == (7, AMBIENT)
    deep = [phi for phi, m in zip(filters, rates) if m == 4]
    folded = periodize_bank(fb, AMBIENT // 2).samples
    assert len(deep) == len(folded) == 4
    for phi, inner_f in zip(deep, folded):
        np.testing.assert_allclose(phi, equivalent_filter(fb.samples[0], inner_f, 2), rtol=0, atol=1e-14)


def test_periodized_bank_stays_tight_projection_frame():
    fb = _stacked_bank()
    rep = fusion_report(periodize_bank(fb, 8))
    assert rep.is_puntf


def test_periodized_orthonormal_pair_stays_tight():
    from fbff.constructions import daubechies4

    fb = bank_of(daubechies4(8))  # filters of period 16
    assert fusion_report(fb).is_puntf
    assert fusion_report(periodize_bank(fb, 8)).is_puntf


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 1)])
def test_periodize_bank_folds_each_filter_exactly(m, n):
    # the fold of the polyphase array is refs.periodize of every filter,
    # bit for bit, at every period t with M | t | MP; any other t is refused
    rng = np.random.default_rng(10 * m + n)
    period = 24 * m  # folds of up to 24 blocks
    filters = tuple(_random_signal(rng, period) for _ in range(n))
    coeffs = rng.standard_normal((m, n, 24)) + 1j * rng.standard_normal((m, n, 24))
    for fb in (FilterBank(filters, m), bank_of(coeffs)):
        for t in range(period + 2):
            if t < 1 or period % t:
                with pytest.raises(ValueError, match=f"target period {t} must divide period {period}"):
                    periodize_bank(fb, t)
            elif t % m:
                with pytest.raises(ValueError, match=f"rate {m} must divide filter period {t}"):
                    periodize_bank(fb, t)
            else:
                folded = periodize_bank(fb, t)
                assert folded.downsample == m and folded.filter_period == t
                assert np.array_equal(folded.samples, [periodize(f, t) for f in fb.samples])


def test_random_paraunitary_tree():
    # a tree over a product-of-elementary-factors bank keeps the identity
    chain = paraunitary_product(paraunitary_chain(2, 2, 8, seed=7), mercedes_benz(8))
    fb = bank_of(chain)
    assert fusion_report(fb).is_puntf
    filters, rates, weights = compose_tree(dwt_tree(fb, 2), 16)
    ok, residual = verify_tree(filters, rates, weights)
    assert ok and residual <= 1e-9
    assert sum(w * (16 // m) for m, w in zip(rates, weights)) == 16


def test_non_projection_bank_rejected():
    rng = np.random.default_rng(5)
    bad = FilterBank(tuple(_random_signal(rng, 8) for _ in range(3)), 2)
    with pytest.raises(ValueError):
        compose_tree(TreeNode(bad), 8)


def _reference_walk(node, dim, prefix=None, weight=Fraction(1)):
    # the flattening that folds and judges every node's bank on its own, one
    # channel_is_projection call per channel; a list of (filter, rate, weight)
    bank = periodize_bank(node.bank, dim)
    m, n = bank.downsample, bank.n_channels
    for idx, phi in enumerate(bank.samples):
        if not channel_is_projection(phi, m):
            raise ValueError(f"channel {idx} translates are not orthonormal")
    leaves = []
    for phi, child in zip(bank.samples, node.children):
        if prefix is None:
            eff, rate = phi, m
        else:
            outer, outer_rate = prefix
            eff, rate = equivalent_filter(outer, phi, outer_rate), outer_rate * m
        w = weight * Fraction(m, n)
        if child.bank is None:
            leaves.append((eff, rate, w))
        else:
            leaves += _reference_walk(child, dim // m, (eff, rate), w)
    return leaves


def test_compose_judges_each_bank_once_per_period(monkeypatch):
    # a 3-level packet tree visits 7 nodes and 14 channels, but holds one
    # bank at 3 periods: one channel_defects call (one FFT) for each
    calls = []

    def counting(mat):
        calls.append(mat.shape[2])
        return channel_defects(mat)

    monkeypatch.setattr(multilevel, "channel_defects", counting)
    leaves = compose_tree(packet_tree(bank_of(daubechies4(64)), 3), 128)
    assert len(leaves[0]) == 8 and calls == [64, 32, 16]
    assert verify_tree(*leaves)[0]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(_TREE_BANKS + ("example5",)),
    depth=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@pytest.mark.parametrize("shape", ["dwt", "packet", "path"])
def test_compose_matches_the_per_channel_reference_walk(shape, name, depth, seed):
    # one ring product per node for all its channels gives every leaf filter
    # bit for bit as one ring product per channel does
    n = bank_of(named_matrix(name, 4)).n_channels
    if shape == "packet":
        while n**depth > 100:  # at most about 100 leaves
            depth -= 1
    rate = 2**depth  # every named bank has rate 2
    bank = bank_of(named_matrix(name, 4 * rate))
    node = _shaped_tree(bank, shape, depth, np.random.default_rng(seed))
    assert node.max_leaf_rate == rate
    filters, rates, weights = compose_tree(node, 4 * rate)
    want = _reference_walk(node, 4 * rate)
    assert list(zip(rates, weights)) == [(m, w) for _, m, w in want]
    assert np.array_equal(filters, [phi for phi, _, _ in want])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compose_matches_the_reference_walk_on_a_dense_bank(seed):
    # dense filters may make the stacked ring product loop over the other
    # operand than the per-channel one, which reorders its sums: each leaf
    # is outer * upsampled inner to within 1e-15 |outer| |inner|
    bank = bank_of(paraunitary_chain(3, 4, 9, seed=seed))  # rate 3, 3 channels, period 27
    dim = bank.filter_period
    node = TreeNode(bank, [TreeNode(bank)] * 3)
    inner = periodize_bank(bank, dim // 3).samples
    filters, rates, weights = compose_tree(node, dim)
    want = _reference_walk(node, dim)
    assert len(filters) == len(want) == 9
    assert list(zip(rates, weights)) == [(m, w) for _, m, w in want]
    assert rates == [9] * 9
    for k, (phi, (ref, _, _)) in enumerate(zip(filters, want)):
        outer, inner_f = bank.samples[k // 3], inner[k % 3]
        err = np.max(np.abs(phi - ref))
        assert err <= 1e-15 * norm(outer) * norm(inner_f)


def _supports_differ(rng, n, p):
    """An (n, p) stack of random complex rows, row 0 with a zero tap where
    every other row has none, and a last tap that every row leaves zero."""
    stack = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    stack[0, 1] = 0
    stack[:, -1] = 0
    return stack


@pytest.mark.parametrize("outer_kind", ["dense", "monomial", "sparse"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_equivalent_filter_of_a_stack_is_its_rows_one_at_a_time(outer_kind, m):
    # the stack's ring product loops over the union of its rows' shifts, so
    # a row adds exact zeros at another row's taps and equals its own product
    rng = np.random.default_rng(m)
    stack = _supports_differ(rng, 4, 6)
    outer = _random_signal(rng, 6 * m)
    if outer_kind == "monomial":
        outer = delta(5, 6 * m, 2 - 1j)
    elif outer_kind == "sparse":  # 5 taps: more than row 0 has, as many as the union
        outer = np.where(np.arange(6 * m) < 5, outer, 0)
    got = equivalent_filter(outer, stack, m)
    assert isinstance(got, np.ndarray) and got.shape == (4, 6 * m)
    for k, row in enumerate(stack):
        one = equivalent_filter(outer, row, m)
        assert one.shape == (6 * m,)
        if outer_kind == "sparse":  # the loop operand may differ: same sum, reordered
            np.testing.assert_allclose(got[k], one, rtol=0, atol=1e-14)
        else:
            assert np.array_equal(got[k], one)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_upsample_of_a_stack_is_its_rows_one_at_a_time(m):
    stack = _supports_differ(np.random.default_rng(m), 3, 4)
    got = upsample(stack, m)
    assert isinstance(got, np.ndarray) and got.shape == (3, 4 * m)
    for k, row in enumerate(stack):
        assert np.array_equal(got[k], upsample(row, m))
    assert np.array_equal(upsample(stack[None], m)[0], got)  # any leading axes


def test_non_projection_channel_is_named_as_before():
    # channel 2 of a tight stack scaled by 2: rejected at the root, and one
    # level down under a good root, with the reference walk's message
    fb = _stacked_bank()
    filters = list(fb.samples)
    filters[2] = 2 * filters[2]
    bad = FilterBank(filters, fb.downsample)
    below = [TreeNode(bad)] + [TreeNode(None)] * (fb.n_channels - 1)
    trees = [
        (TreeNode(bad), AMBIENT),
        (TreeNode(_stacked_bank(2 * AMBIENT), below), 2 * AMBIENT),
    ]
    for node, dim in trees:
        with pytest.raises(ValueError) as ref:
            _reference_walk(node, dim)
        with pytest.raises(ValueError, match="channel 2 translates") as got:
            compose_tree(node, dim)
        assert str(got.value) == str(ref.value)


def test_incompatible_period_rejected():
    fb = _stacked_bank(8)  # filters of period 8
    with pytest.raises(ValueError):
        compose_tree(TreeNode(fb), 12)


def test_tree_node_validation():
    fb = _stacked_bank()
    with pytest.raises(ValueError):
        TreeNode(None, (TreeNode(None),))
    with pytest.raises(ValueError):
        TreeNode(fb, (TreeNode(None),))  # wrong child count
    with pytest.raises(ValueError):
        compose_tree(TreeNode(None), 8)


@pytest.mark.parametrize("name", _TREE_BANKS)
def test_identity_shorthand_is_stored_expanded(name):
    bank = bank_of(named_matrix(name, 8))
    assert TreeNode(bank) == TreeNode(bank, [TreeNode(None)] * bank.n_channels)
    assert TreeNode(bank).children == (TreeNode(None),) * bank.n_channels
    assert TreeNode(None).max_leaf_rate == 1 and TreeNode(bank).max_leaf_rate == 2


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(_TREE_BANKS),
    shape=st.sampled_from(["dwt", "packet", "path"]),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_max_leaf_rate_is_the_largest_composed_rate(name, shape, depth, seed):
    dim = 2**depth * 4
    tree = _shaped_tree(bank_of(named_matrix(name, dim)), shape, depth, np.random.default_rng(seed))
    assert tree.max_leaf_rate == max(compose_tree(tree, dim)[1])


def test_max_leaf_rate_of_mixed_rates():
    # a rate-3 bank of unit impulses under channel 0 of a rate-2 root: leaf
    # rates 6, 6, 6 and 2, so the ambient dimension is inner rank times 6
    impulses = FilterBank(tuple(delta(k, 12) for k in range(3)), 3)
    tree = TreeNode(bank_of(daubechies4(12)), [TreeNode(impulses), TreeNode(None)])
    assert tree.max_leaf_rate == 6
    filters, rates, weights = compose_tree(tree, 24)
    assert filters.shape == (4, 24) and rates == [6, 6, 6, 2]  # ranks 4, 4, 4, 12
    assert verify_tree(filters, rates, weights)[0]


def test_tree_from_json():
    def resolve(name):
        assert name == "stack"
        return _stacked_bank()

    spec = {
        "bank": "stack",
        "children": [{"bank": "stack"}, "identity", "identity", "identity"],
    }
    tree = tree_from_json(spec, resolve)
    filters, rates, weights = compose_tree(tree, AMBIENT)
    assert filters.shape == (7, AMBIENT) and len(rates) == len(weights) == 7
    with pytest.raises(ValueError):
        tree_from_json({"children": []}, resolve)
