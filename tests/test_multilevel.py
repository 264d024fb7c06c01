from fractions import Fraction

import numpy as np
import pytest

from fbff.analysis import (
    channel_defect,
    channel_is_projection,
    fusion_report,
    verify_weighted_parseval,
)
from fbff.constructions import (
    daubechies4,
    mercedes_benz,
    modulated_daubechies_stack,
    paraunitary_chain,
    paraunitary_product,
)
from fbff.multilevel import (
    TreeNode,
    bank_node,
    compose_tree,
    dwt_tree,
    equivalent_filter,
    identity_leaf,
    packet_tree,
    periodize_bank,
    tree_from_json,
    verify_tree,
)
from fbff.polyphase import bank_of
from fbff.signals import (
    FilterBank,
    Signal,
    analysis_apply,
    circ_convolve,
    inner,
    synthesis_apply,
    upsample,
)

AMBIENT = 16  # 4 * Q with Q = 4


def _random_signal(rng, period):
    return Signal(rng.standard_normal(period) + 1j * rng.standard_normal(period))


def _stacked_bank(ambient=AMBIENT):
    return bank_of(modulated_daubechies_stack(ambient // 2))


def test_channel_apply_delta_filter_upsamples():
    ch = FilterBank((Signal.delta(0, 8),), 2)
    rng = np.random.default_rng(0)
    y = _random_signal(rng, 4)
    assert synthesis_apply(ch, [y]) == upsample(y, 2)


def test_channel_adjoint_identity():
    rng = np.random.default_rng(1)
    ch = FilterBank((_random_signal(rng, 12),), 3)
    y = _random_signal(rng, 4)
    x = _random_signal(rng, 12)
    lhs = inner(synthesis_apply(ch, [y]), x)
    rhs = inner(y, analysis_apply(ch, x)[0])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_projection_channel_left_inverse():
    fb = _stacked_bank()
    rng = np.random.default_rng(2)
    ch = FilterBank((fb.filters[0],), 2)
    y = _random_signal(rng, 8)
    back = analysis_apply(ch, synthesis_apply(ch, [y]))[0]
    np.testing.assert_allclose(back.samples, y.samples, atol=1e-10)


def test_channel_shape_validation():
    ch = FilterBank((Signal.delta(0, 8),), 2)
    with pytest.raises(ValueError):
        synthesis_apply(ch, [Signal.zero(8)])
    with pytest.raises(ValueError):
        analysis_apply(ch, Signal.zero(4))[0]
    with pytest.raises(ValueError):
        FilterBank((Signal.zero(9),), 2)


def test_equivalent_filter_delta_inner():
    rng = np.random.default_rng(3)
    outer = _random_signal(rng, 8)
    assert equivalent_filter(outer, Signal.delta(0, 4), 2) == outer


def test_equivalent_filter_composition_identity():
    rng = np.random.default_rng(4)
    outer = _random_signal(rng, 16)
    inner_f = _random_signal(rng, 8)
    y = _random_signal(rng, 4)
    composed = synthesis_apply(
        FilterBank((outer,), 2), [synthesis_apply(FilterBank((inner_f,), 2), [y])]
    )
    eq = equivalent_filter(outer, inner_f, 2)
    direct = circ_convolve(eq, upsample(upsample(y, 2), 2))
    np.testing.assert_allclose(composed.samples, direct.samples, atol=1e-10)


def test_equivalent_filter_squared_response_factorizes():
    fb = _stacked_bank()
    folded = periodize_bank(fb, 8)
    period = fb.filter_period
    k_out = np.arange(period)
    k_in = np.arange(8)
    omegas = 2 * np.pi * np.arange(period) / period
    for outer in fb.filters:
        for inner_f in folded.filters:
            eq = equivalent_filter(outer, inner_f, 2)
            for w in omegas:
                lhs = abs(np.sum(eq.samples * np.exp(-1j * k_out * w))) ** 2
                rhs = (
                    abs(np.sum(outer.samples * np.exp(-1j * k_out * w))) ** 2
                    * abs(np.sum(inner_f.samples * np.exp(-1j * k_in * 2 * w))) ** 2
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_depth_one_tree():
    fb = _stacked_bank()
    leaves = compose_tree(bank_node(fb), AMBIENT)
    assert len(leaves) == 4
    assert all(w == Fraction(1, 2) for _, w, _ in leaves)
    assert all(rank == 8 for _, _, rank in leaves)
    ok, residual = verify_tree(leaves, AMBIENT)
    assert ok and residual <= 1e-9


def test_dwt_tree_leaves():
    fb = _stacked_bank()
    leaves = compose_tree(dwt_tree(fb, 2), AMBIENT)
    weights = sorted(str(w) for _, w, _ in leaves)
    ranks = sorted(rank for _, _, rank in leaves)
    assert len(leaves) == 7
    assert weights == ["1/2", "1/2", "1/2", "1/4", "1/4", "1/4", "1/4"]
    assert ranks == [4, 4, 4, 4, 8, 8, 8]
    ok, residual = verify_tree(leaves, AMBIENT)
    assert ok and residual <= 1e-9


def test_packet_tree_leaves():
    fb = _stacked_bank()
    leaves = compose_tree(packet_tree(fb, 2), AMBIENT)
    assert len(leaves) == 16
    assert all(w == Fraction(1, 4) for _, w, _ in leaves)
    assert all(rank == 4 for _, _, rank in leaves)
    ok, residual = verify_tree(leaves, AMBIENT)
    assert ok and residual <= 1e-9


def _basis_isometry(ch, rank):
    # the leaf's synthesis applied to each basis vector of its input space
    cols = [synthesis_apply(ch, [Signal.delta(k, rank)]).samples for k in range(rank)]
    return np.stack(cols, axis=1)


def _double_first_weight(leaves):
    (ch, w, rank), *rest = leaves
    return [(ch, 2 * w, rank), *rest]


def _scale_first_filter(leaves):
    (ch, w, rank), *rest = leaves
    return [(FilterBank((2 * ch.filters[0],), ch.downsample), w, rank), *rest]


@pytest.mark.parametrize("tree", [dwt_tree, packet_tree], ids=["dwt", "packet"])
@pytest.mark.parametrize(
    "edit,expected",
    [(list, True), (_double_first_weight, False), (_scale_first_filter, False)],
    ids=["as-composed", "weight-doubled", "filter-scaled"],
)
def test_verify_tree_matches_basis_reference(tree, edit, expected):
    leaves = edit(compose_tree(tree(_stacked_bank(), 2), AMBIENT))
    ok, residual = verify_tree(leaves, AMBIENT)
    reference = [(_basis_isometry(ch, r), w) for ch, w, r in leaves]
    ref_ok, ref_residual = verify_weighted_parseval(reference, AMBIENT)
    assert ok == ref_ok == expected
    assert abs(residual - ref_residual) <= 1e-12


def test_verify_tree_reads_the_leaf_channel_defect():
    # the first leaf scaled by 1 + delta: the tree's residual is that leaf's
    # polyphase channel defect, and its verdict flips where the leaf's does
    (ch, w, rank), *rest = compose_tree(dwt_tree(_stacked_bank(), 2), AMBIENT)
    verdicts = set()
    for delta in np.geomspace(1e-11, 1e-8, 30):
        phi = (1 + delta) * ch.filters[0]
        scaled = [(FilterBank((phi,), ch.downsample), w, rank), *rest]
        ok, residual = verify_tree(scaled, AMBIENT)
        defect = channel_defect(phi, ch.downsample)
        assert abs(residual - defect) <= 1e-12 * max(1.0, defect)
        assert ok == channel_is_projection(phi, ch.downsample)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_large_packet_tree_verifies():
    # 5 levels of Daubechies-4 at ambient 1024: 32 leaves of rank 32
    leaves = compose_tree(packet_tree(bank_of(daubechies4(512)), 5), 1024)
    assert len(leaves) == 32
    ok, residual = verify_tree(leaves, 1024)
    assert ok and residual <= 1e-12
    for edit in (_double_first_weight, _scale_first_filter):
        assert not verify_tree(edit(leaves), 1024)[0]


def test_weight_accounting_exact():
    fb = _stacked_bank()
    for tree in (bank_node(fb), dwt_tree(fb, 2), packet_tree(fb, 2)):
        leaves = compose_tree(tree, AMBIENT)
        assert sum(w * r for _, w, r in leaves) == AMBIENT


def test_inner_banks_are_periodized():
    # the same full-period bank object drives every level; leaves at depth 2
    # must use its folding, which the rank bookkeeping reflects
    fb = _stacked_bank()
    leaves = compose_tree(dwt_tree(fb, 2), AMBIENT)
    deep = [ch for ch, _, rank in leaves if rank == 4]
    assert all(ch.downsample == 4 and ch.filters[0].period == AMBIENT for ch in deep)


def test_periodized_bank_stays_tight_projection_frame():
    fb = _stacked_bank()
    rep = fusion_report(periodize_bank(fb, 8))
    assert rep.is_puntf


def test_periodized_orthonormal_pair_stays_tight():
    from fbff.constructions import daubechies4

    fb = bank_of(daubechies4(8))  # filters of period 16
    assert fusion_report(fb).is_puntf
    assert fusion_report(periodize_bank(fb, 8)).is_puntf


def test_random_paraunitary_tree():
    # a tree over a product-of-elementary-factors bank keeps the identity
    chain = paraunitary_product(paraunitary_chain(2, 2, 8, seed=7), mercedes_benz(8))
    fb = bank_of(chain)
    assert fusion_report(fb).is_puntf
    leaves = compose_tree(dwt_tree(fb, 2), 16)
    ok, residual = verify_tree(leaves, 16)
    assert ok and residual <= 1e-9
    assert sum(w * r for _, w, r in leaves) == 16


def test_non_projection_bank_rejected():
    rng = np.random.default_rng(5)
    bad = FilterBank(tuple(_random_signal(rng, 8) for _ in range(3)), 2)
    with pytest.raises(ValueError):
        compose_tree(bank_node(bad), 8)


def test_incompatible_period_rejected():
    fb = _stacked_bank(8)  # filters of period 8
    with pytest.raises(ValueError):
        compose_tree(bank_node(fb), 12)


def test_tree_node_validation():
    fb = _stacked_bank()
    with pytest.raises(ValueError):
        TreeNode(None, (identity_leaf(),))
    with pytest.raises(ValueError):
        TreeNode(fb, (identity_leaf(),))  # wrong child count
    with pytest.raises(ValueError):
        compose_tree(identity_leaf(), 8)


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
