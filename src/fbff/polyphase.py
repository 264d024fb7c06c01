"""Polyphase decomposition, polyphase matrices, and their evaluation.

A filter of period M * P, a 1-D sample array, splits into M cyclic
polynomials of period P, one per residue class of the sample index mod M.
The components of N filters, column by column, are the M x N polyphase
matrix, the complex (M, N, P) array a :class:`~fbff.signals.FilterBank`
holds; a single filter is M x 1 (:func:`decompose`).  Evaluated at the P-th
roots of unity it reduces every frame question about the bank to linear
algebra: root by root (:func:`gram`, on the entries as
:class:`~fbff.cyclic.Signal` objects that the per-root Grams build once), or
at every root by one FFT along P (:func:`eval_all_roots`).  A filter's
Zak row sums are its squared polyphase norms folded over R.
"""

from __future__ import annotations

import numpy as np

from .cyclic import Signal
from .signals import FilterBank

__all__ = [
    "decompose",
    "matrix_of",
    "bank_of",
    "eval_all_roots",
    "gram",
    "zak_power_rows",
]


def decompose(phi: np.ndarray, m: int) -> np.ndarray:
    """Split the samples of a period-(m*P) filter into its m polyphase components (m x 1)."""
    return FilterBank([phi], m).coeffs


def matrix_of(fb: FilterBank) -> np.ndarray:
    """Polyphase matrix of a bank: column n holds filter n's components."""
    return fb.coeffs


def bank_of(coeffs) -> FilterBank:
    """Filter bank whose polyphase matrix is ``coeffs``: see :meth:`FilterBank.from_coeffs`."""
    return FilterBank.from_coeffs(coeffs)


def eval_all_roots(mat: np.ndarray) -> np.ndarray:
    """Values at every root by one FFT along P, in C order whatever ``mat``'s
    strides, so sums over it add in one order."""
    return np.fft.fft(np.ascontiguousarray(mat), axis=-1)


def gram(entries: list[list[Signal]], p: int) -> np.ndarray:
    """The M x M matrix E E^H with E the evaluation at root p of ``entries``,
    a polyphase matrix's M rows of N entry Signals, each through
    ``Signal.eval_at_root``; Hermitian by construction, and its extreme
    eigenvalues are the per-root frame bounds."""
    e = np.array([[x.eval_at_root(p) for x in row] for row in entries], dtype=complex)
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
