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
    daubechies4,
    elementary_paraunitary,
    mercedes_benz,
    modulated_daubechies_stack,
    named_matrix,
    paraunitary_chain,
    paraunitary_product,
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
from fbff.cyclic import Signal
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
    eq = Signal(equivalent_filter(outer, inner_f, 2))
    direct = circ_convolve(eq, Signal(upsample(upsample(y, 2), 2)))
    np.testing.assert_allclose(composed, direct.samples, atol=1e-10)


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
    leaves = compose_tree(TreeNode(fb), AMBIENT)
    assert len(leaves) == 4
    assert all(w == Fraction(1, 2) for _, w in leaves)
    assert all(leaf.inner_period == 8 for leaf, _ in leaves)
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-9


def test_dwt_tree_leaves():
    fb = _stacked_bank()
    leaves = compose_tree(dwt_tree(fb, 2), AMBIENT)
    weights = sorted(str(w) for _, w in leaves)
    ranks = sorted(leaf.inner_period for leaf, _ in leaves)
    assert len(leaves) == 7
    assert weights == ["1/2", "1/2", "1/2", "1/4", "1/4", "1/4", "1/4"]
    assert ranks == [4, 4, 4, 4, 8, 8, 8]
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-9


def test_packet_tree_leaves():
    fb = _stacked_bank()
    leaves = compose_tree(packet_tree(fb, 2), AMBIENT)
    assert len(leaves) == 16
    assert all(w == Fraction(1, 4) for _, w in leaves)
    assert all(leaf.inner_period == 4 for leaf, _ in leaves)
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-9


def _basis_isometry(ch):
    # the leaf's synthesis applied to each basis vector of its input space
    rank = ch.inner_period
    cols = [synthesis_apply(ch, [delta(k, rank)]) for k in range(rank)]
    return np.stack(cols, axis=1)


def _double_first_weight(leaves):
    (ch, w), *rest = leaves
    return [(ch, 2 * w), *rest]


def _scale_first_filter(leaves):
    (ch, w), *rest = leaves
    return [(FilterBank([2 * ch.samples[0]], ch.downsample), w), *rest]


@pytest.mark.parametrize("tree", [dwt_tree, packet_tree], ids=["dwt", "packet"])
@pytest.mark.parametrize(
    "edit,expected",
    [(list, True), (_double_first_weight, False), (_scale_first_filter, False)],
    ids=["as-composed", "weight-doubled", "filter-scaled"],
)
def test_verify_tree_matches_basis_reference(tree, edit, expected):
    leaves = edit(compose_tree(tree(_stacked_bank(), 2), AMBIENT))
    ok, residual = verify_tree(leaves)
    reference = [(_basis_isometry(ch), w) for ch, w in leaves]
    ref_ok, ref_residual = verify_weighted_parseval(reference, AMBIENT)
    assert ok == ref_ok == expected
    assert abs(residual - ref_residual) <= 1e-12


def test_verify_tree_reads_the_leaf_channel_defect():
    # the first leaf scaled by 1 + delta: the tree's residual is that leaf's
    # polyphase channel defect, and its verdict flips where the leaf's does
    (ch, w), *rest = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    verdicts = set()
    for delta in np.geomspace(1e-11, 1e-8, 30):
        phi = (1 + delta) * ch.samples[0]
        scaled = [(FilterBank([phi], ch.downsample), w), *rest]
        ok, residual = verify_tree(scaled)
        defect = channel_defects(decompose(phi, ch.downsample))[0]
        assert abs(residual - defect) <= 1e-12 * max(1.0, defect)
        assert ok == channel_is_projection(phi, ch.downsample)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_verify_tree_reads_the_off_diagonal_leaf_defects():
    # two rows of a degree-one paraunitary factor are a tight frame whose
    # channels are not projections.  Each filter scaled to unit energy and
    # weighted by its energy keeps sum w T T^H = I and T^H T's diagonal at 1:
    # only T^H T's off-diagonal entries reject the leaves
    u = np.array([1.0, 2.0, 2.0j]) / 3
    leaves = []
    for f in bank_of(elementary_paraunitary(u, 8)[:2]).samples:
        energy = float(np.vdot(f, f).real)
        leaves.append((FilterBank([(1 / np.sqrt(energy)) * f], 2), energy))
    ts = [(translate_matrix(ch.samples[0], 2), w) for ch, w in leaves]
    frame_operator = sum(w * t @ t.conj().T for t, w in ts)
    assert np.max(np.abs(frame_operator - np.eye(16))) <= 1e-12
    ok, residual = verify_tree(leaves)
    assert not ok
    assert abs(residual - max(isometry_defect(t) for t, _ in ts)) <= 1e-12
    assert residual == pytest.approx(0.5)


def test_verify_tree_reads_lcm_of_the_leaf_rates_columns():
    # leaf rates 4 and 6: the frame operator commutes with translation by
    # lcm = 12, not by the largest rate.  With two weights raised, columns
    # 6-11 of S - I hold entries larger than any of columns 0-5
    dirac3 = bank_of(np.eye(3)[:, :, None] * np.eye(4)[0])  # rate 3, period 12
    root = TreeNode(bank_of(daubechies4(12)), [TreeNode(bank_of(daubechies4(6))), TreeNode(dirac3)])
    leaves = compose_tree(root, 24)
    assert [ch.downsample for ch, _ in leaves] == [4, 4, 6, 6, 6]
    assert verify_tree(leaves)[0]
    raised = [(ch, w * k) for (ch, w), k in zip(leaves, [1, Fraction(3, 2), Fraction(3, 2), 1, 1])]
    ts = [(translate_matrix(ch.samples[0], ch.downsample), w) for ch, w in raised]
    defect = np.abs(sum(float(w) * t @ t.conj().T for t, w in ts) - np.eye(24))
    ok, residual = verify_tree(raised)
    assert not ok
    assert abs(residual - defect.max()) <= 1e-12
    assert defect[:, :6].max() < residual - 0.05


def test_verify_tree_rejects_a_non_finite_leaf():
    # one NaN sample in one leaf: the residual is NaN and the tree fails
    (ch, w), *rest = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    samples = ch.samples[0].copy()
    samples[3] = np.nan
    ok, residual = verify_tree([(FilterBank([samples], ch.downsample), w), *rest])
    assert not ok and np.isnan(residual)


def test_large_packet_tree_verifies():
    # 5 levels of Daubechies-4 at ambient 1024: 32 leaves of rank 32
    leaves = compose_tree(packet_tree(bank_of(daubechies4(512)), 5), 1024)
    assert len(leaves) == 32
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-12
    for edit in (_double_first_weight, _scale_first_filter):
        assert not verify_tree(edit(leaves))[0]


def test_deep_packet_tree_verifies_without_a_dim_squared_array():
    # 6 levels of Daubechies-4 at ambient 4096: 64 leaves of rank 64.  One
    # dim x dim complex array is dim**2 * 16 bytes; the check holds the first
    # lcm-of-rates columns of the sum and one leaf's dim x rank T at a time
    dim = 4096
    leaves = compose_tree(packet_tree(bank_of(daubechies4(dim // 2)), 6), dim)
    assert len(leaves) == 64
    tracemalloc.start()
    try:
        ok, residual = verify_tree(leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and residual <= 1e-12
    assert peak < dim**2 * 16 / 8
    for edit in (_double_first_weight, _scale_first_filter):
        assert not verify_tree(edit(leaves))[0]


def test_deep_dwt_verifies_holding_one_translate_matrix():
    # 8 levels of Daubechies-4 at ambient 4096: the rate-2 leaf's dim x dim/2
    # complex T alone is dim**2 * 16 / 2 bytes.  The bound, 5/8 of one dim x dim
    # array, leaves room for that T's one contiguous copy and the first
    # lcm-of-rates columns of the sum, but not for an int64 index array
    # beside it or for the rate-4 leaf's T kept alive
    dim = 4096
    leaves = compose_tree(dwt_tree(bank_of(daubechies4(dim // 2)), 8), dim)
    assert [ch.downsample for ch, _ in leaves] == [256, 256, 128, 64, 32, 16, 8, 4, 2]
    tracemalloc.start()
    try:
        ok, residual = verify_tree(leaves)
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


def _edited(leaves, edit, index, delta):
    index %= len(leaves)
    ch, w = leaves[index]
    if edit == "weight-doubled":
        leaves[index] = (ch, 2 * w)
    elif edit == "filter-scaled":
        leaves[index] = (FilterBank([(1 + delta) * ch.samples[0]], ch.downsample), w)
    elif edit == "leaf-dropped":
        del leaves[index]
    return leaves


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
    leaves = _edited(compose_tree(tree, dim), edit, index, delta)
    ok, residual = verify_tree(leaves)
    dense = [(translate_matrix(ch.samples[0], ch.downsample), w) for ch, w in leaves]
    ref_ok, ref_residual = verify_weighted_parseval(dense, dim)
    assert ok == ref_ok
    assert abs(residual - ref_residual) <= 1e-12 * max(1.0, ref_residual)


def test_verify_tree_reads_the_dimension_from_its_leaves():
    dwt = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    short = compose_tree(TreeNode(_stacked_bank(8)), 8)
    with pytest.raises(ValueError, match="isometry has shape"):
        verify_tree(dwt + short)  # filter periods 16 and 8
    with pytest.raises(ValueError, match="at least one leaf"):
        verify_tree([])
    # tol is keyword-only: a stale (leaves, dim) call cannot read dim as tol
    with pytest.raises(TypeError):
        verify_tree(dwt, AMBIENT)


def test_weight_accounting_exact():
    fb = _stacked_bank()
    for tree in (TreeNode(fb), dwt_tree(fb, 2), packet_tree(fb, 2)):
        leaves = compose_tree(tree, AMBIENT)
        assert sum(w * leaf.inner_period for leaf, w in leaves) == AMBIENT


def test_inner_banks_are_periodized():
    # the same full-period bank object drives every level; leaves at depth 2
    # must use its folding, which the rank bookkeeping reflects
    fb = _stacked_bank()
    leaves = compose_tree(dwt_tree(fb, 2), AMBIENT)
    deep = [ch for ch, _ in leaves if ch.inner_period == 4]
    assert all(ch.downsample == 4 and ch.samples.shape == (1, AMBIENT) for ch in deep)


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
    leaves = compose_tree(dwt_tree(fb, 2), 16)
    ok, residual = verify_tree(leaves)
    assert ok and residual <= 1e-9
    assert sum(w * leaf.inner_period for leaf, w in leaves) == 16


def test_non_projection_bank_rejected():
    rng = np.random.default_rng(5)
    bad = FilterBank(tuple(_random_signal(rng, 8) for _ in range(3)), 2)
    with pytest.raises(ValueError):
        compose_tree(TreeNode(bad), 8)


def _reference_walk(node, dim, prefix=None, weight=Fraction(1)):
    # the flattening that folds and judges every node's bank on its own, one
    # channel_is_projection call per channel
    bank = periodize_bank(node.bank, dim)
    m, n = bank.downsample, bank.n_channels
    for idx, phi in enumerate(bank.samples):
        if not channel_is_projection(phi, m):
            raise ValueError(f"channel {idx} translates are not orthonormal")
    leaves = []
    for phi, child in zip(bank.samples, node.children or (TreeNode(None),) * n):
        if prefix is None:
            eff = FilterBank([phi], m)
        else:
            outer, rate = prefix.samples[0], prefix.downsample
            eff = FilterBank([equivalent_filter(outer, phi, rate)], rate * m)
        w = weight * Fraction(m, n)
        if child.bank is None:
            leaves.append((eff, w))
        else:
            leaves += _reference_walk(child, dim // m, eff, w)
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
    assert len(leaves) == 8 and calls == [64, 32, 16]
    assert verify_tree(leaves)[0]


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
    got = compose_tree(node, 4 * rate)
    want = _reference_walk(node, 4 * rate)
    assert len(got) == len(want)
    for (leaf, w), (ref, ref_w) in zip(got, want):
        assert w == ref_w and leaf.downsample == ref.downsample
        assert np.array_equal(leaf.samples, ref.samples)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compose_matches_the_reference_walk_on_a_dense_bank(seed):
    # dense filters may make the stacked ring product loop over the other
    # operand than the per-channel one, which reorders its sums: each leaf
    # is outer * upsampled inner to within 1e-15 |outer| |inner|
    bank = bank_of(paraunitary_chain(3, 4, 9, seed=seed))  # rate 3, 3 channels, period 27
    dim = bank.filter_period
    node = TreeNode(bank, [TreeNode(bank)] * 3)
    inner = periodize_bank(bank, dim // 3).samples
    got = compose_tree(node, dim)
    want = _reference_walk(node, dim)
    assert len(got) == len(want) == 9
    for k, ((leaf, w), (ref, ref_w)) in enumerate(zip(got, want)):
        outer, inner_f = bank.samples[k // 3], inner[k % 3]
        assert w == ref_w and leaf.downsample == ref.downsample == 9
        err = np.max(np.abs(leaf.samples[0] - ref.samples[0]))
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
    assert tree.max_leaf_rate == max(leaf.downsample for leaf, _ in compose_tree(tree, dim))


def test_max_leaf_rate_of_mixed_rates():
    # a rate-3 bank of unit impulses under channel 0 of a rate-2 root: leaf
    # rates 6, 6, 6 and 2, so the ambient dimension is inner rank times 6
    impulses = FilterBank(tuple(delta(k, 12) for k in range(3)), 3)
    tree = TreeNode(bank_of(daubechies4(12)), [TreeNode(impulses), TreeNode(None)])
    assert tree.max_leaf_rate == 6
    leaves = compose_tree(tree, 24)
    assert [(leaf.downsample, leaf.inner_period) for leaf, _ in leaves] == [(6, 4)] * 3 + [(2, 12)]
    assert verify_tree(leaves)[0]


def test_tree_from_json():
    def resolve(name):
        assert name == "stack"
        return _stacked_bank()

    spec = {
        "bank": "stack",
        "children": [{"bank": "stack"}, "identity", "identity", "identity"],
    }
    tree = tree_from_json(spec, resolve)
    leaves = compose_tree(tree, AMBIENT)
    assert len(leaves) == 7
    with pytest.raises(ValueError):
        tree_from_json({"children": []}, resolve)
