"""Reference implementations that only the tests call.

Each is the plain form of a claim the tests check, or the reference a
library function is tested against: signal constructors and the norm, the
time-domain multirate operators, the polyphase round trip and inner
product, and the classic and packet trees.  A signal is its sample array.  The library keeps only what its CLI,
scripts or benchmark call; these stay here so that a test can state an
identity without the library exporting it.
"""

from __future__ import annotations

import numpy as np

from fbff.multilevel import TreeNode
from fbff.polyphase import bank_of, eval_all_roots
from fbff.signals import FilterBank, translate_matrix

# -- signals: one period of samples, a 1-D complex array ------------------------


def zero(period: int) -> np.ndarray:
    return np.zeros(period, dtype=complex)


def delta(k: int, period: int, scale: complex = 1.0) -> np.ndarray:
    """``scale`` at sample k mod P: the monomial ``scale * z^{-k}``."""
    s = np.zeros(period, dtype=complex)
    s[k % period] = scale
    return s


def norm(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(x) ** 2)))


def conj_reverse(coeffs) -> np.ndarray:
    """Conjugate coefficients and negate exponents along the last axis.

    Evaluations of the result are pointwise conjugates of the original,
    which makes this the entrywise building block of matrix adjoints.
    """
    return np.conj(np.roll(np.asarray(coeffs)[..., ::-1], 1, axis=-1))


# -- time-domain multirate operators ------------------------------------------


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product <x, y> = sum_k x[k] conj(y[k])."""
    if x.size != y.size:
        raise ValueError(f"period mismatch: {x.size} vs {y.size}")
    return complex(np.sum(x * np.conj(y)))


def downsample(x: np.ndarray, m: int) -> np.ndarray:
    """Keep every m-th sample; requires m to divide the period."""
    if m < 1 or x.size % m != 0:
        raise ValueError(f"downsampling factor {m} must divide period {x.size}")
    return x[::m]


def translate(x: np.ndarray, k: int) -> np.ndarray:
    """Circular shift: result[i] = x[i - k]."""
    return np.roll(x, k)


def involution(x: np.ndarray) -> np.ndarray:
    """Conjugate time-reversal; turns convolution into correlation."""
    return conj_reverse(x)


def periodize(x: np.ndarray, target_period: int) -> np.ndarray:
    """Fold a signal onto a divisor period by summing translated copies."""
    if target_period < 1 or x.size % target_period != 0:
        raise ValueError(f"target period {target_period} must divide period {x.size}")
    return x.reshape(-1, target_period).sum(axis=0)


def synthesis_apply(fb: FilterBank, inputs) -> np.ndarray:
    """Synthesize: sum_n T_n y_n, T_n the M-translate matrix of filter n."""
    inputs = np.asarray(inputs, dtype=complex)
    if len(inputs) != fb.n_channels:
        raise ValueError(f"expected {fb.n_channels} inputs, got {len(inputs)}")
    p = fb.inner_period
    if inputs.shape != (fb.n_channels, p):
        raise ValueError(f"inputs must have period {p}")
    t = translate_matrix(fb.samples.T, fb.downsample)  # [:, n] is T_n
    return np.einsum("ink,nk->i", t, inputs)


def analysis_apply(fb: FilterBank, x: np.ndarray) -> np.ndarray:
    """Analyze: row n of the (N, P) output is T_n^H x, T_n as in :func:`synthesis_apply`.

    Sample p of channel n equals the frame coefficient <x, T^{Mp} filter_n>;
    this map is the adjoint of :func:`synthesis_apply`.
    """
    if x.size != fb.filter_period:
        raise ValueError(f"input period {x.size} != filter period {fb.filter_period}")
    t = translate_matrix(fb.samples.T, fb.downsample)
    return np.einsum("ink,i->nk", t.conj(), x)


# -- polyphase ----------------------------------------------------------------


def reconstruct(v: np.ndarray) -> np.ndarray:
    """Interleave the components of an M x 1 matrix back into a filter's
    samples; exact inverse of :func:`decompose`."""
    if v.shape[1] != 1:
        raise ValueError(f"expected one column, got {v.shape[1]}")
    return bank_of(v).samples[0]


def pp_inner(phi: np.ndarray, psi: np.ndarray, m: int) -> complex:
    """Inner product of two filters computed in the polyphase domain.

    Averages the C^M inner products of the evaluated polyphase vectors of
    the two-channel bank (phi, psi) over all roots; the polyphase map is
    unitary, so this equals the time-domain inner product.
    """
    ev = eval_all_roots(FilterBank([phi, psi], m).coeffs)
    return complex(np.sum(ev[:, 0] * np.conj(ev[:, 1])) / (len(phi) // m))


def channel_trace(dense: np.ndarray, n: int) -> float:
    """Trace of channel n's dense translate Gram T^H T, T = ``dense[:, n, :]``:
    the trace, so for a projection channel the rank, of T T^H."""
    cols = dense[:, n, :]
    return float(np.trace(cols.conj().T @ cols).real)


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
