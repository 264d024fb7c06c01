"""Multi-level composition of projection channels into Parseval fusion frames.

A channel of a tight bank with orthonormal translates is an isometry from
the coarse space into the fine one; composing channels level by level and
multiplying their weights yields a weighted Parseval fusion frame on the
ambient space.  Trees describe which channels are re-expanded: an identity
child leaves a channel as a leaf, a bank child splits it again.

A chain of channels is one channel at the product rate (the noble
identities): its filter is the ring product of the outer filter with the
upsampled inner one (:func:`equivalent_filter`, on sample arrays), and a
flattened leaf is that filter's sample row with its rate and weight.  Every
channel of a node shares the node's one prefix filter, so compose forms all
of a node's equivalent filters from one ring product of the prefix with the
folded bank's sample stack, and stacks the leaf rows once into one (L, dim)
array.  Compose judges each level's channels, and verify each leaf, by the
one projection rule: the largest entry of T^H T - I, from polyphase norms or
from the leaf's T.  Compose judges each distinct (bank, level period) once
per call: a packet tree that repeats one bank at one period reads all its
channels' defects from one FFT of that bank's polyphase matrix.

Verify stays in the time domain and forms no dim x dim array.  A leaf of
rate m has translate columns spaced by m, so its T T^H commutes with
translation by m, and the frame operator S = sum w T T^H commutes with
translation by the lcm of the leaf rates, span: max|S - I| is reached in
S's first span columns, each leaf adds the ``translate_matrix`` rolls by m of its
dim x m block w T T[:m]^H into them, and each leaf's T^H T is circulant,
so its first row holds every entry of T^H T - I: O(dim^2) work per leaf.
:func:`verify_weighted_parseval`, the dense dim x dim sum over explicit
(T, weight) pairs, is the reference it is tested against.

Filters at inner levels are never reused verbatim; they are folded to the
level's period (:func:`periodize_bank`), which preserves the tight
fusion-frame structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analysis import channel_defects, isometry_defect
from .cyclic import ring_product
from .signals import FilterBank, translate_matrix, upsample

__all__ = [
    "equivalent_filter",
    "TreeNode",
    "periodize_bank",
    "compose_tree",
    "verify_tree",
    "verify_weighted_parseval",
    "tree_from_json",
]


def equivalent_filter(phi_outer: np.ndarray, phi_inner: np.ndarray, m: int) -> np.ndarray:
    """Single filter realizing two chained channels.

    By the noble identities, applying the outer channel (rate m) after the
    inner one equals one channel at the product rate whose filter is the
    ring product of the outer filter with the inner one upsampled by m,
    sum_k inner[k] T^{mk} outer.  Both filters are arrays along their last
    axis: an (N, P) stack of inner filters gives the (N, m P) stack of their
    equivalent filters from one ring product.
    """
    return ring_product(phi_outer, upsample(phi_inner, m))


@dataclass(frozen=True)
class TreeNode:
    """A node of a composition tree.

    ``bank is None`` marks an identity leaf.  For a bank node, ``children``
    carries one node per channel; an empty one is shorthand for all-identity
    children (a depth-one expansion), which the node stores expanded.
    """

    bank: FilterBank | None
    children: tuple["TreeNode", ...] = field(default=())

    def __post_init__(self) -> None:
        children = tuple(self.children)
        if self.bank is None and children:
            raise ValueError("identity leaves cannot have children")
        if self.bank is not None:
            children = children or (TreeNode(None),) * self.bank.n_channels
            if len(children) != self.bank.n_channels:
                raise ValueError(
                    f"need one child per channel: {len(children)} for "
                    f"{self.bank.n_channels} channels"
                )
        object.__setattr__(self, "children", children)

    @property
    def max_leaf_rate(self) -> int:
        """Largest product of the rates along a root-to-leaf path (1 at a leaf)."""
        if self.bank is None:
            return 1
        return self.bank.downsample * max(child.max_leaf_rate for child in self.children)


def periodize_bank(fb: FilterBank, filter_period: int) -> FilterBank:
    """Fold every filter of a bank onto a shorter period, the sum of its blocks
    of length filter_period; ValueError unless M | filter_period | M P."""
    n, period = fb.samples.shape
    if filter_period == period:
        return fb
    if filter_period < 1 or period % filter_period:
        raise ValueError(f"target period {filter_period} must divide period {period}")
    return FilterBank(fb.samples.reshape(n, -1, filter_period).sum(axis=1), fb.downsample)


def compose_tree(tree: TreeNode, dim: int, tol: float = 1e-9):
    """Flatten a tree over an ambient dimension into weighted leaf channels.

    Returns (filters, rates, weights): the (L, dim) complex stack of the
    leaf filters, leaf l of rank dim // rates[l]; the L products of the rates
    along each leaf path; and the L products of the per-level channel weights
    M/N as exact fractions.  Banks are folded to each level's period; every
    channel at every level must have orthonormal translates, otherwise
    ValueError names the first that does not.  Each (bank object, period)
    pair is folded and judged once per call.
    """
    if tree.bank is None:
        raise ValueError("tree root must carry a bank")
    leaves: list[tuple[np.ndarray, int, Fraction]] = []  # (filter row, rate, weight)
    judged = {}  # (bank object, period) -> folded bank; the tree keeps each bank alive

    def walk(node: TreeNode, dim_here: int, prefix: tuple[np.ndarray, int] | None, weight: Fraction):
        key = (id(node.bank), dim_here)
        if key not in judged:
            bank = periodize_bank(node.bank, dim_here)  # ValueError unless it folds
            for idx, defect in enumerate(channel_defects(bank.coeffs)):
                if not defect <= tol:
                    raise ValueError(f"channel {idx} translates are not orthonormal")
            judged[key] = bank
        bank = judged[key]
        m = bank.downsample
        weight *= Fraction(m, bank.n_channels)
        rows, rate = bank.samples, m
        if prefix is not None:  # every channel of the node under its one prefix
            outer, outer_rate = prefix
            rows, rate = equivalent_filter(outer, rows, outer_rate), outer_rate * m
        for row, child in zip(rows, node.children):
            if child.bank is None:
                leaves.append((row, rate, weight))
            else:
                walk(child, dim_here // m, (row, rate), weight)

    walk(tree, dim, None, Fraction(1))
    filters, rates, weights = zip(*leaves)
    return np.array(filters), list(rates), list(weights)


def verify_tree(filters: np.ndarray, rates, weights, *, tol: float = 1e-9):
    """Check leaves, their (L, dim) filter stack with their L rates and
    weights, against the weighted Parseval identity.  Returns (ok,
    max_residual): the largest of every leaf's max|T^H T - I|, read from the
    first row of that circulant, and of max|sum w T T^H - I|, read from the
    sum's first ``span`` columns, the lcm of the leaf rates; ok is whether it
    is at most ``tol`` (never for a non-finite sample, whose residual is
    NaN).  One contiguous copy of one leaf's translate matrix T is held at a
    time.  ValueError when there are no leaves or the three lengths differ."""
    if not len(filters):
        raise ValueError("verify_tree needs at least one leaf")
    dim = filters.shape[-1]
    span = math.lcm(*rates)
    head = np.zeros((dim, span), dtype=complex)  # sum w T T^H, columns :span
    defects = []
    for phi, m, w in zip(filters, rates, weights, strict=True):
        t = np.ascontiguousarray(translate_matrix(phi, m))
        row = t[:, 0].conj() @ t  # first row of T^H T
        row[0] -= 1.0
        defects.append(np.max(np.abs(row)))
        block = float(w) * (t @ t[:m].conj().T)  # columns :m of w T T^H
        del t  # one leaf's T at a time
        # column q m + j of w T T^H is its column j rolled by q m
        cols = head.reshape(dim, span // m, m)
        cols += translate_matrix(block, m)[:, :, : span // m].transpose(0, 2, 1)
    head[np.arange(span), np.arange(span)] -= 1.0
    defects.append(np.max(np.abs(head)))
    worst = float(np.max(defects))  # NaN from a non-finite sample stays NaN
    return bool(worst <= tol), worst


def verify_weighted_parseval(isometries, dim: int, tol: float = 1e-9):
    """Check that weighted projections form a Parseval fusion frame.

    ``isometries`` yields (T, weight) pairs, T a dim x r matrix, one at a
    time, so a generator forms each T only when it is reached.  Returns
    (ok, max_residual): the largest of every :func:`isometry_defect` and of
    |sum w T T^H - I|, and whether it is at most ``tol``.
    """
    total = np.zeros((dim, dim), dtype=complex)
    defects = []
    for t, weight in isometries:
        t = np.asarray(t, dtype=complex)
        if t.ndim != 2 or t.shape[0] != dim:
            raise ValueError(f"isometry has shape {t.shape}, expected ({dim}, r)")
        defects.append(isometry_defect(t))
        total += (float(weight) * t) @ t.conj().T
    worst = float(np.max([*defects, np.max(np.abs(total - np.eye(dim)))]))  # NaN stays NaN
    return bool(worst <= tol), worst


def tree_from_json(obj, resolve_bank) -> TreeNode:
    """Build a tree from its JSON form.

    The format is ``{"bank": <name or inline bank>, "children": [...]}``
    where each child is either the string ``"identity"`` or another tree
    object, and ``children`` may be omitted for a depth-one node.
    ``resolve_bank`` maps each bank spec, a name or an inline bank in the
    shared filter-bank JSON format, to a FilterBank.
    """
    if not isinstance(obj, dict) or "bank" not in obj:
        raise ValueError("tree node must be an object with a 'bank' key")
    bank = resolve_bank(obj["bank"])
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
