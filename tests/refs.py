"""Reference implementations that only the tests call.

Each is the plain form of a claim the tests check, or the reference a
library function is tested against: signal constructors and the norm, the
time-domain multirate operators, the polyphase round trip and inner product,
and the classic and packet trees.  The library keeps only what its CLI,
scripts or benchmark call; these stay here so that a test can state an
identity without the library exporting it.
"""

from __future__ import annotations

import numpy as np

from fbff.cyclic import Signal, _require_equal_periods
from fbff.multilevel import TreeNode
from fbff.polyphase import bank_of, eval_all_roots
from fbff.signals import FilterBank, translate_matrix

# -- signals and cyclic polynomials -------------------------------------------


def zero(period: int) -> Signal:
    return Signal(np.zeros(period, dtype=complex))


def delta(k: int, period: int, scale: complex = 1.0) -> Signal:
    """``scale`` at sample k mod P: the monomial ``scale * z^{-k}``."""
    s = np.zeros(period, dtype=complex)
    s[k % period] = scale
    return Signal(s)


def norm(x: Signal) -> float:
    return float(np.sqrt(np.sum(np.abs(x.samples) ** 2)))


def conj_reverse(coeffs) -> np.ndarray:
    """Conjugate coefficients and negate exponents along the last axis.

    Evaluations of the result are pointwise conjugates of the original,
    which makes this the entrywise building block of matrix adjoints.
    """
    return np.conj(np.roll(np.asarray(coeffs)[..., ::-1], 1, axis=-1))


# -- time-domain multirate operators ------------------------------------------


def inner(x: Signal, y: Signal) -> complex:
    """Inner product <x, y> = sum_k x[k] conj(y[k])."""
    _require_equal_periods(x, y)
    return complex(np.sum(x.samples * np.conj(y.samples)))


def downsample(x: Signal, m: int) -> Signal:
    """Keep every m-th sample; requires m to divide the period."""
    if m < 1 or x.period % m != 0:
        raise ValueError(f"downsampling factor {m} must divide period {x.period}")
    return Signal(x.samples[::m])


def translate(x: Signal, k: int) -> Signal:
    """Circular shift: result[i] = x[i - k]."""
    return Signal(np.roll(x.samples, k))


def involution(x: Signal) -> Signal:
    """Conjugate time-reversal; turns convolution into correlation."""
    return Signal(conj_reverse(x.samples))


def periodize(x: Signal, target_period: int) -> Signal:
    """Fold a signal onto a divisor period by summing translated copies."""
    if target_period < 1 or x.period % target_period != 0:
        raise ValueError(f"target period {target_period} must divide period {x.period}")
    return Signal(x.samples.reshape(-1, target_period).sum(axis=0))


def synthesis_apply(fb: FilterBank, inputs) -> Signal:
    """Synthesize: sum_n T_n y_n, T_n the M-translate matrix of filter n."""
    inputs = list(inputs)
    if len(inputs) != fb.n_channels:
        raise ValueError(f"expected {fb.n_channels} inputs, got {len(inputs)}")
    p = fb.inner_period
    if any(y.period != p for y in inputs):
        raise ValueError(f"inputs must have period {p}")
    t = translate_matrix(fb.samples.T, fb.downsample)  # [:, n] is T_n
    return Signal(np.einsum("ink,nk->i", t, [y.samples for y in inputs]))


def analysis_apply(fb: FilterBank, x: Signal) -> list[Signal]:
    """Analyze: channel n output is T_n^H x, T_n as in :func:`synthesis_apply`.

    Sample p of channel n equals the frame coefficient <x, T^{Mp} filter_n>;
    this map is the adjoint of :func:`synthesis_apply`.
    """
    if x.period != fb.filter_period:
        raise ValueError(f"input period {x.period} != filter period {fb.filter_period}")
    t = translate_matrix(fb.samples.T, fb.downsample)
    return [Signal(c) for c in np.einsum("ink,i->nk", t.conj(), x.samples)]


# -- polyphase ----------------------------------------------------------------


def reconstruct(v: np.ndarray) -> Signal:
    """Interleave the components of an M x 1 matrix back into a signal;
    exact inverse of :func:`decompose`."""
    if v.shape[1] != 1:
        raise ValueError(f"expected one column, got {v.shape[1]}")
    return bank_of(v).filters[0]


def pp_inner(phi: Signal, psi: Signal, m: int) -> complex:
    """Inner product of two filters computed in the polyphase domain.

    Averages the C^M inner products of the evaluated polyphase vectors of
    the two-channel bank (phi, psi) over all roots; the polyphase map is
    unitary, so this equals the time-domain inner product.
    """
    ev = eval_all_roots(FilterBank((phi, psi), m).coeffs)
    return complex(np.sum(ev[:, 0] * np.conj(ev[:, 1])) / (phi.period // m))


# -- trees --------------------------------------------------------------------


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
