"""Named polyphase building blocks and tightness-preserving combinators.

The combinators construct and never verify; run :func:`fbff.analysis.fusion_report`
on the result to confirm what was built.  That split keeps the closure
properties (union, tensor, unitary product preserve the tight fusion-frame
structure) testable as facts rather than assumptions baked into the code.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cyclic import ring_product, twist

__all__ = [
    "mercedes_benz",
    "daubechies4",
    "union",
    "tensor",
    "paraunitary_product",
    "elementary_paraunitary",
    "daubechies_mercedes",
    "modulated_daubechies_stack",
    "paraunitary_chain",
    "named_matrix",
    "NAMED_MATRICES",
]

# 4-tap orthonormal taps: a, d = 2^(-5/2) (1 +/- sqrt 3); b, c = 2^(-5/2) (3 -/+ sqrt 3)
_S3 = math.sqrt(3.0)
DAUB_A = 2.0 ** -2.5 * (1.0 + _S3)
DAUB_B = 2.0 ** -2.5 * (3.0 - _S3)
DAUB_C = 2.0 ** -2.5 * (3.0 + _S3)
DAUB_D = 2.0 ** -2.5 * (1.0 - _S3)


def _laurent(terms: dict, period: int) -> np.ndarray:
    """The matrix sum_k C_k z^{-k} of ``terms`` {k: C_k}.

    Exponents fold modulo the period, so at period 1 every term lands on
    the constant (z = 1 in the ring).
    """
    if period < 1:
        raise ValueError("period must be positive")
    shape = np.shape(next(iter(terms.values())))
    coeffs = np.zeros(shape + (period,), dtype=complex)
    for k, c in terms.items():
        coeffs[..., k % period] += c
    return coeffs


def mercedes_benz(period: int) -> np.ndarray:
    """The 2x3 constant tight frame (1/2) [[2, -1, -1], [0, r3, -r3]].

    Columns have unit norm and rows squared norm 3/2, so the corresponding
    3-channel, 2-downsampled bank is the smallest nontrivial tight fusion
    frame with projection channels.
    """
    values = np.array(
        [
            [1.0, -0.5, -0.5],
            [0.0, _S3 / 2.0, -_S3 / 2.0],
        ]
    )
    return _laurent({0: values}, period)


def daubechies4(period: int) -> np.ndarray:
    """Paraunitary 2x2 matrix of the 4-tap, 2-downsampled orthonormal pair.

    The low-pass filter is (a, c, b, d) in time order and the high-pass
    (d, -b, c, -a); the matrix is unitary at every root of unity.  Period 1
    folds the degree-1 entries onto constants, which is the orthonormal
    2-point basis.
    """
    return _laurent(
        {
            0: [[DAUB_A, DAUB_D], [DAUB_C, -DAUB_B]],
            1: [[DAUB_B, DAUB_C], [DAUB_D, -DAUB_A]],
        },
        period,
    )


def union(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Column concatenation; stacks the channels of two equal-rate banks
    (mismatched row counts or periods raise ValueError)."""
    return np.concatenate([m0, m1], axis=1)


def tensor(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Kronecker product with ring multiplication of entries.

    Row (i0, i1) and column (j0, j1) are flattened row-major, so evaluating
    the result at any root equals the Kronecker product of the factors'
    evaluations.
    """
    (r0, c0, p), (r1, c1, _) = m0.shape, m1.shape
    out = ring_product(m0, m1, lambda a, b: a[:, None, :, None] * b[None, :, None, :])
    return out.reshape(r0 * r1, c0 * c1, p)


def paraunitary_product(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Matrix product over the cyclic ring; ``psi`` must be square."""
    if psi.shape[0] != psi.shape[1]:
        raise ValueError("left factor must be square")
    if psi.shape[1] != phi.shape[0]:
        raise ValueError(f"shape mismatch: {psi.shape[1]} vs {phi.shape[0]} rows")
    matmul = functools.partial(np.einsum, "mk...,kn...->mn...")
    return ring_product(psi, phi, matmul)


def elementary_paraunitary(u: np.ndarray, period: int) -> np.ndarray:
    """The degree-one paraunitary factor (I - u u*) + z u u*.

    ``u`` must be a unit vector; the positive power z is stored as
    z^{-(P-1)} under the ring relation z^P = 1.  Products of such factors
    generate paraunitary matrices of arbitrary degree.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a nonempty vector")
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("u must have unit norm")
    proj = np.outer(u, np.conj(u))
    return _laurent({0: np.eye(u.size) - proj, -1: proj}, period)


def daubechies_mercedes(period: int) -> np.ndarray:
    """3-channel product bank: the paraunitary 4-tap pair times the
    Mercedes-Benz frame.  Column 0 equals the low-pass column of the pair."""
    return paraunitary_product(daubechies4(period), mercedes_benz(period))


def modulated_daubechies_stack(period: int) -> np.ndarray:
    """4-channel stack of the 4-tap pair and its quarter-band modulates.

    The extra filters are j^k psi_n[k], a frequency shift by pi/2; in the
    polyphase domain that is diag(1, j) applied to the z -> -z twist of the
    pair's matrix.  Channels 0,1 come from one orthonormal basis and
    channels 2,3 from another, so the stacked bank is 2-tight.
    """
    if period % 2 != 0:
        raise ValueError("quarter-band modulation needs an even period")
    base = daubechies4(period)
    return union(base, np.array([1.0, 1j])[:, None, None] * twist(base, 1, 2))


def paraunitary_chain(
    dim: int, count: int, period: int, seed: int = 0
) -> np.ndarray:
    """Product of ``count`` elementary factors from seeded random unit vectors."""
    if dim < 1 or count < 0:
        raise ValueError("dim must be positive and count nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    out = _laurent({0: np.eye(dim)}, period)
    for _ in range(count):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        out = paraunitary_product(out, elementary_paraunitary(u, period))
    return out


# CLI-facing registry of parameter-free named builders (period -> matrix).
NAMED_MATRICES = {
    "mercedes-benz": mercedes_benz,
    "daubechies4": daubechies4,
    "example5": daubechies_mercedes,
    "example7": modulated_daubechies_stack,
}


def named_matrix(name: str, period: int) -> np.ndarray:
    try:
        builder = NAMED_MATRICES[name]
    except KeyError:
        raise ValueError(f"unknown bank name: {name!r}") from None
    return builder(period)

