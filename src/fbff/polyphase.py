"""Polyphase decomposition, polyphase matrices, and their evaluation.

A filter of period M * P splits into M cyclic polynomials of period P, one
per residue class of the sample index mod M.  Stacking the components of N
filters column by column gives the M x N polyphase matrix, one complex
(M, N, P) coefficient array, which a :class:`~fbff.signals.FilterBank` holds
as its only data; a single filter is an M x 1 matrix (a one-channel bank's).
Evaluating it at the P-th roots of unity reduces every frame-theoretic
question about the bank to finite-dimensional linear algebra, one root at a
time (:func:`eval_matrix`, entry by entry, each a dot product with the root's
cached, read-only row of powers; the per-root Grams build each entry's Signal
once per bank and evaluate the entries root by root, all of them at root p
before any at p + 1) or at every root by one FFT along P
(:func:`eval_all_roots`); a filter's Zak row sums are its squared polyphase
norms folded over R.
"""

from __future__ import annotations

import numpy as np

from .signals import FilterBank, Signal

__all__ = [
    "decompose",
    "matrix_of",
    "bank_of",
    "eval_matrix",
    "eval_all_roots",
    "gram",
    "zak_power_rows",
]


def decompose(phi: Signal, m: int) -> np.ndarray:
    """Split a period-(m*P) signal into its m polyphase components (m x 1)."""
    return FilterBank((phi,), m).coeffs


def matrix_of(fb: FilterBank) -> np.ndarray:
    """Polyphase matrix of a bank: column n holds filter n's components."""
    return fb.coeffs


def bank_of(coeffs) -> FilterBank:
    """Filter bank whose polyphase matrix is ``coeffs``: see :meth:`FilterBank.from_coeffs`."""
    return FilterBank.from_coeffs(coeffs)


def eval_matrix(mat: np.ndarray | list[list[Signal]], p: int) -> np.ndarray:
    """Entrywise evaluation at the p-th root of unity; returns M x N complex.

    ``mat`` is an (M, N, P) array or its M rows of N entry Signals, built once
    and evaluated at many roots: each entry goes through ``Signal.eval_at_root``,
    so both forms give the same bits."""
    return np.array(
        [[(e if isinstance(e, Signal) else Signal(e)).eval_at_root(p) for e in row] for row in mat],
        dtype=complex,
    )


def eval_all_roots(mat: np.ndarray) -> np.ndarray:
    """Values at every root by one FFT along P: slice [..., p] is ``eval_matrix(mat, p)``,
    in C order whatever ``mat``'s strides, so sums over it add in one order."""
    return np.fft.fft(np.ascontiguousarray(mat), axis=-1)


def gram(mat: np.ndarray | list[list[Signal]], p: int) -> np.ndarray:
    """The M x M matrix E E^H with E the evaluation at root p, ``mat`` an array
    or its rows of entry Signals as in :func:`eval_matrix`; Hermitian by
    construction, and its extreme eigenvalues are the per-root frame bounds."""
    e = eval_matrix(mat, p)
    return e @ e.conj().T


def zak_power_rows(vec: np.ndarray, r_count: int) -> np.ndarray:
    """Row sums of squared moduli across the Zak columns of the filter whose
    M x 1 polyphase vector is ``vec``, by one FFT of ``vec``.

    Zak column r evaluates to column 0's values shifted by rQ roots (P = QR),
    so entry (m, p) of the real (M, Q) grid is the folded sum_r
    |E_m(z_{p + rQ})|^2; the row sums repeat with period Q.
    """
    rows, _, period = vec.shape
    if r_count < 1 or period % r_count != 0:
        raise ValueError(f"redundancy {r_count} must divide inner period {period}")
    power = np.abs(eval_all_roots(vec)) ** 2
    return power.reshape(rows, -1, r_count, period // r_count).sum(axis=(1, 2))
