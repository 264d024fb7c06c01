"""Multi-level composition of projection channels into Parseval fusion frames.

A channel of a tight bank with orthonormal translates is an isometry from
the coarse space into the fine one; composing channels level by level and
multiplying their weights yields a weighted Parseval fusion frame on the
ambient space.  Trees describe which channels are re-expanded: an identity
child leaves a channel as a leaf, a bank child splits it again.

A chain of channels is one channel at the product rate (the noble
identities): its filter is the ring product of the outer filter with the
upsampled inner one, and each flattened leaf is a one-channel bank of that
filter.  Compose judges each level's channels, and verify each leaf, by the
one projection rule: the largest entry of T^H T - I, from polyphase norms
or from the leaf's T.

Filters at inner levels are never reused verbatim; they are folded to the
level's period with :func:`fbff.signals.periodize`, which preserves the
tight fusion-frame structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import channel_is_projection, verify_weighted_parseval
from .signals import FilterBank, Signal, periodize, translate_matrix, upsample

__all__ = [
    "equivalent_filter",
    "TreeNode",
    "dwt_tree",
    "packet_tree",
    "periodize_bank",
    "compose_tree",
    "verify_tree",
    "tree_from_json",
]


def equivalent_filter(phi_outer: Signal, phi_inner: Signal, m: int) -> Signal:
    """Single filter realizing two chained channels.

    By the noble identities, applying the outer channel (rate m) after the
    inner one equals one channel at the product rate whose filter is the
    ring product of the outer filter with the inner one upsampled by m,
    sum_k inner[k] T^{mk} outer.
    """
    return phi_outer * upsample(phi_inner, m)


@dataclass(frozen=True)
class TreeNode:
    """A node of a composition tree.

    ``bank is None`` marks an identity leaf.  For a bank node, ``children``
    carries one node per channel; an empty tuple is shorthand for all-identity
    children (a depth-one expansion).
    """

    bank: FilterBank | None
    children: tuple["TreeNode", ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if self.bank is None and self.children:
            raise ValueError("identity leaves cannot have children")
        if self.bank is not None and self.children:
            if len(self.children) != self.bank.n_channels:
                raise ValueError(
                    f"need one child per channel: {len(self.children)} for "
                    f"{self.bank.n_channels} channels"
                )


def dwt_tree(bank: FilterBank, levels: int) -> TreeNode:
    """Classic tree: only channel 0 is re-expanded, ``levels`` times."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    node = TreeNode(bank)
    for _ in range(levels - 1):
        node = TreeNode(bank, [node] + [TreeNode(None)] * (bank.n_channels - 1))
    return node


def packet_tree(bank: FilterBank, levels: int) -> TreeNode:
    """Full tree: every channel is re-expanded, ``levels`` times."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    node = TreeNode(bank)
    for _ in range(levels - 1):
        node = TreeNode(bank, [node] * bank.n_channels)
    return node


def periodize_bank(fb: FilterBank, filter_period: int) -> FilterBank:
    """Fold every filter of a bank onto a shorter period."""
    if filter_period == fb.filter_period:
        return fb
    return FilterBank(
        tuple(periodize(f, filter_period) for f in fb.filters), fb.downsample
    )


def compose_tree(tree: TreeNode, dim: int, tol: float = 1e-9):
    """Flatten a tree over an ambient dimension into weighted leaf channels.

    Returns a list of (FilterBank, weight) pairs: the one-channel bank of
    each leaf path, whose inner period is the leaf's rank, and the product of
    the per-level channel weights M/N as an exact fraction.  Banks are folded
    to each level's period; every channel at every level must have
    orthonormal translates, otherwise ValueError is raised.
    """
    if tree.bank is None:
        raise ValueError("tree root must carry a bank")
    leaves: list[tuple[FilterBank, Fraction]] = []
    _walk(tree, dim, None, Fraction(1), leaves, tol)
    return leaves


def _walk(
    node: TreeNode,
    dim_here: int,
    prefix: FilterBank | None,
    weight: Fraction,
    leaves: list,
    tol: float,
) -> None:
    bank = periodize_bank(node.bank, dim_here)  # ValueError unless it folds
    m, n = bank.downsample, bank.n_channels
    for idx, phi in enumerate(bank.filters):
        if not channel_is_projection(phi, m, tol):
            raise ValueError(f"channel {idx} translates are not orthonormal")
    channel_weight = Fraction(m, n)
    children = node.children or (TreeNode(None),) * n
    for phi, child in zip(bank.filters, children):
        if prefix is None:
            eff = FilterBank((phi,), m)
        else:
            outer, rate = prefix.filters[0], prefix.downsample
            eff = FilterBank((equivalent_filter(outer, phi, rate),), rate * m)
        w = weight * channel_weight
        if child.bank is None:
            leaves.append((eff, w))
        else:
            _walk(child, dim_here // m, eff, w, leaves, tol)


def verify_tree(leaves, *, tol: float = 1e-9):
    """Check the flattened leaves against the weighted Parseval identity on
    their common filter period: each leaf's translate matrix T, formed when
    the check reaches it, by the one rule max|T^H T - I| <= tol, and
    sum w T T^H against I.  ValueError when there are no leaves or their
    periods differ."""
    if not leaves:
        raise ValueError("verify_tree needs at least one leaf")
    dim = leaves[0][0].filter_period
    ts = ((translate_matrix(leaf.filters[0], leaf.downsample), w) for leaf, w in leaves)
    return verify_weighted_parseval(ts, dim, tol)


def tree_from_json(obj, resolve_bank) -> TreeNode:
    """Build a tree from its JSON form.

    The format is ``{"bank": <name or inline bank>, "children": [...]}``
    where each child is either the string ``"identity"`` or another tree
    object, and ``children`` may be omitted for a depth-one node.
    ``resolve_bank`` maps a bank name to a FilterBank; inline banks use the
    shared filter-bank JSON format.
    """
    # imported per call, so a patched fbff.signals.bank_from_json is seen
    from .signals import bank_from_json

    if not isinstance(obj, dict) or "bank" not in obj:
        raise ValueError("tree node must be an object with a 'bank' key")
    spec = obj["bank"]
    bank = resolve_bank(spec) if isinstance(spec, str) else bank_from_json(spec)
    specs = obj.get("children", [])
    if not isinstance(specs, list):
        raise ValueError("tree children must be a list")
    children = []
    for child in specs:
        if child == "identity":
            children.append(TreeNode(None))
        else:
            children.append(tree_from_json(child, resolve_bank))
    return TreeNode(bank, children)
