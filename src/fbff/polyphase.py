"""Polyphase decomposition, polyphase matrices, and their evaluation.

A filter of period M * P splits into M cyclic polynomials of period P, one
per residue class of the sample index mod M.  Stacking the components of N
filters column by column gives the M x N polyphase matrix, held as one
complex (M, N, P) coefficient array; a single filter is an M x 1 matrix.
Evaluating it at the P-th roots of unity reduces every frame-theoretic
question about the bank to finite-dimensional linear algebra, one root at a
time; a filter's Zak row sums are its squared polyphase norms folded over R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import FilterBank, Signal

__all__ = [
    "PolyphaseMatrix",
    "decompose",
    "reconstruct",
    "matrix_of",
    "bank_of",
    "eval_matrix",
    "eval_all_roots",
    "gram",
    "zak_power_rows",
    "pp_inner",
]


@dataclass(frozen=True, eq=False)
class PolyphaseMatrix:
    """An M x N matrix of cyclic polynomials of one shared period P.

    ``coeffs[m, n, q]`` multiplies z^{-q} in entry (m, n).  Rows are indexed
    by phase, columns by channel.  N = 0 is allowed (the empty operand of
    column concatenation).
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[2] < 1:
            raise ValueError(f"need an (M, N, P) array with M, P >= 1, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_cols(self) -> int:
        return self.coeffs.shape[1]

    @property
    def period(self) -> int:
        return self.coeffs.shape[2]

    def entry(self, m: int, n: int) -> Signal:
        return Signal(self.coeffs[m, n])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyphaseMatrix)
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )


def decompose(phi: Signal, m: int) -> PolyphaseMatrix:
    """Split a period-(m*P) signal into its m polyphase components (m x 1)."""
    if m < 1 or phi.period % m != 0:
        raise ValueError(f"rate {m} must divide period {phi.period}")
    return PolyphaseMatrix(phi.samples.reshape(-1, m).T[:, None, :])


def reconstruct(v: PolyphaseMatrix) -> Signal:
    """Interleave the components of an M x 1 matrix back into a signal;
    exact inverse of :func:`decompose`."""
    if v.n_cols != 1:
        raise ValueError(f"expected one column, got {v.n_cols}")
    return Signal(v.coeffs[:, 0, :].T.reshape(-1))


def matrix_of(fb: FilterBank) -> PolyphaseMatrix:
    """Polyphase matrix of a bank: column n holds filter n's components."""
    samples = np.stack([phi.samples for phi in fb.filters])
    return PolyphaseMatrix(
        samples.reshape(fb.n_channels, fb.inner_period, fb.downsample).transpose(2, 0, 1)
    )


def bank_of(mat: PolyphaseMatrix) -> FilterBank:
    """Filter bank whose polyphase matrix is ``mat`` (rate = row count)."""
    if mat.n_cols < 1:
        raise ValueError("cannot build a bank from an empty matrix")
    samples = mat.coeffs.transpose(1, 2, 0).reshape(mat.n_cols, -1)
    return FilterBank(tuple(Signal(s) for s in samples), mat.n_rows)


def eval_matrix(mat: PolyphaseMatrix, p: int) -> np.ndarray:
    """Entrywise evaluation at the p-th root of unity; returns M x N complex."""
    out = np.empty((mat.n_rows, mat.n_cols), dtype=complex)
    for m in range(mat.n_rows):
        for n in range(mat.n_cols):
            out[m, n] = mat.entry(m, n).eval_at_root(p)
    return out


def eval_all_roots(mat: PolyphaseMatrix) -> np.ndarray:
    """Values at every root at once: an (M, N, P) array whose [..., p]
    slice is ``eval_matrix(mat, p)``, by one FFT along the period."""
    return np.fft.fft(mat.coeffs, axis=-1)


def gram(mat: PolyphaseMatrix, p: int) -> np.ndarray:
    """The M x M matrix E E^H with E the evaluation at root p; Hermitian by
    construction, and its extreme eigenvalues are the per-root frame bounds."""
    e = eval_matrix(mat, p)
    return e @ e.conj().T


def zak_power_rows(vec: PolyphaseMatrix, r_count: int) -> np.ndarray:
    """Row sums of squared moduli across the Zak columns of the filter whose
    M x 1 polyphase vector is ``vec``, by one FFT of ``vec``.

    Zak column r evaluates to column 0's values shifted by rQ roots (P = QR),
    so entry (m, p) of the real (M, Q) grid is the folded sum_r
    |E_m(z_{p + rQ})|^2; the row sums repeat with period Q.
    """
    if r_count < 1 or vec.period % r_count != 0:
        raise ValueError(f"redundancy {r_count} must divide inner period {vec.period}")
    power = np.abs(eval_all_roots(vec)) ** 2
    return power.reshape(vec.n_rows, -1, r_count, vec.period // r_count).sum(axis=(1, 2))


def pp_inner(phi: Signal, psi: Signal, m: int) -> complex:
    """Inner product of two filters computed in the polyphase domain.

    Averages the C^M inner products of the evaluated polyphase vectors over
    all roots; the polyphase map is unitary, so this equals the time-domain
    inner product.
    """
    if phi.period != psi.period:
        raise ValueError(f"period mismatch: {phi.period} vs {psi.period}")
    ev_phi = eval_all_roots(decompose(phi, m))
    ev_psi = eval_all_roots(decompose(psi, m))
    return complex(np.sum(ev_phi * np.conj(ev_psi)) / (phi.period // m))
