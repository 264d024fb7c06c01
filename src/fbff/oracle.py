"""Dense brute-force ground truth for filter banks.

The synthesis operator is materialized as an explicit matrix of translated
filters, and every frame quantity is read off it directly, with no
polyphase machinery anywhere on this path.  Channels are judged by the
polyphase route's defect, the largest entry of T^H T - I, read from the
channels' P x P translate Grams, formed by batched products over chunks of
channels (``analysis.isometry_defect``); spectra match to tol * max(1, B).
Deliberately naive: O((MP)^3) eigenvalue solves (no eigenvectors) by
LAPACK's general eigensolver ``zgeev`` (``hermitian_eigs``), which the
polyphase route never uses, gated to dense dimension 256, where one solve
of a random bank takes about 60 ms of CPU on one thread.
"""

from __future__ import annotations

import numpy as np

from .analysis import FusionReport, frame_bounds, hermitian_eigs, isometry_defect
from .polyphase import matrix_of
from .signals import FilterBank, translate_matrix

__all__ = [
    "densify",
    "dense_frame_spectrum",
    "dense_channel_gram",
    "spectrum_union_check",
    "cross_check",
]

_MAX_DIM = 256
_CHUNK_BYTES = 1 << 22  # one chunk up to 21 channels at dense dimension 128 and P = 64


def densify(fb: FilterBank) -> np.ndarray:
    """Materialize a bank's synthesis operator as one read-only (MP, N, P)
    array: slice ``[:, n, k]`` is T^{Mk} filter_n."""
    if fb.filter_period > _MAX_DIM:
        raise ValueError(f"dense oracle gated to dimension {_MAX_DIM}, got {fb.filter_period}")
    d = np.ascontiguousarray(translate_matrix(fb.samples.T, fb.downsample))
    d.setflags(write=False)
    return d


def dense_frame_spectrum(d: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the dense frame operator D D^H, D the
    (MP, NP) matrix of channel-major columns."""
    mat = d.reshape(len(d), -1)
    return hermitian_eigs(mat @ mat.conj().T)


def dense_channel_gram(d: np.ndarray) -> np.ndarray:
    """The (N,) defects of the channels of the densified array ``d``: each
    channel's largest entry of T^H T - I, T its translates ``d[:, n, :]``,
    from batched products over chunks of channels whose conjugated translates
    and P x P Grams take at most ``_CHUNK_BYTES``, the same products bit for
    bit; channel n is a projection iff its defect is <= the tolerance."""
    t = np.moveaxis(d, 1, 0)  # (N, MP, P)
    step = max(1, _CHUNK_BYTES // ((len(d) + t.shape[2]) * t.shape[2] * d.itemsize))
    return np.concatenate([isometry_defect(t[k : k + step]) for k in range(0, len(t), step)])


def _union_matches(dense: np.ndarray, spectra: np.ndarray, tol: float) -> bool:
    # the synthesis operator block-diagonalizes by root: spectra are a union
    gap = np.max(np.abs(dense - np.sort(spectra, axis=None)))
    return bool(gap <= tol * max(1.0, float(dense[-1])))


def spectrum_union_check(fb: FilterBank, tol: float = 1e-8) -> bool:
    """Dense spectrum equals the union of per-root polyphase Gram spectra."""
    spectra = frame_bounds(matrix_of(fb)).spectra
    return _union_matches(dense_frame_spectrum(densify(fb)), spectra, tol)


def cross_check(fb: FilterBank, rep: FusionReport, tol: float = 1e-8) -> dict:
    """Hold a fusion report of ``fb`` against one dense solve of the bank:
    its bounds, its channel verdicts, and the per-root spectra its bounds
    were read from, whose union must be the dense spectrum, all to
    ``tol * max(1, B_dense)``."""
    dense = densify(fb)
    spectrum = dense_frame_spectrum(dense)
    a_dense = max(float(spectrum[0]), 0.0)
    b_dense = float(spectrum[-1])
    bound_gap = max(abs(rep.bounds.A - a_dense), abs(rep.bounds.B - b_dense))
    defects = dense_channel_gram(dense)
    channel_match = bool(np.all((defects <= rep.tolerance) == rep.channel_projection))
    union_ok = _union_matches(spectrum, rep.bounds.spectra, tol)
    return {
        "A_dense": a_dense,
        "B_dense": b_dense,
        "bound_gap": bound_gap,
        "channel_match": channel_match,
        "spectrum_union_ok": union_ok,
        "agrees": bool(bound_gap <= tol * max(1.0, b_dense) and channel_match and union_ok),
    }
