"""Frame and fusion-frame verification.

Everything here turns a structural claim ("this bank is a tight fusion
frame", "this channel is an orthogonal projection") into a numeric verdict
with an explicit tolerance.  Each bank's evaluated Grams are
built once, as a (P, M, M) stack from the per-root polyphase Gram, and one
batched LAPACK ``eigvalsh`` call gives every root's spectrum; bounds and
row checks both read from that stack, and the bounds keep the spectra so
that the dense oracle checks the very numbers they were read from.

The Hermitian eigenvalue solver kept here serves only the dense oracle.  It
takes eigenvalues only, from LAPACK's general eigensolver ``zgeev``
(Hessenberg reduction, then shifted QR), which shares no reduction and no
iteration with the per-root route's ``eigvalsh`` (``zheevd``: tridiagonal
reduction, then divide and conquer), so the polyphase route and the oracle
share no eigensolver; the tests hold it to an independent
characteristic-polynomial root finder and to the trace and Frobenius norm.
Every channel verdict, the Gabor one included, reads T^H T - I from squared
polyphase norms (:func:`autocorrelation_defect`), and a report, like each
level of a composition tree, takes all of a bank's channel norms from one
FFT (:func:`channel_defects`).  Evaluated Grams and polyphase norms that
are not finite are rejected with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyphase import decompose, eval_all_roots, gram, matrix_of
from .signals import FilterBank, Signal

__all__ = [
    "hermitian_eigs",
    "FrameBounds",
    "gram_stack",
    "frame_bounds",
    "autocorrelation_defect",
    "channel_defects",
    "channel_is_projection",
    "FusionReport",
    "fusion_report",
    "report_to_json",
    "isometry_defect",
]

_HERMITIAN_TOL = 1e-10
_OFF_TOL = 1e-13


def hermitian_eigs(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; no eigenvectors.

    LAPACK's general eigensolver ``zgeev`` (``np.linalg.eigvals``: Hessenberg
    reduction, then shifted QR) on the symmetrized matrix; the real parts of
    its eigenvalues are the spectrum.  When the off-diagonal Frobenius norm
    is at most 1e-13 times the matrix norm, the sorted diagonal is the
    spectrum.  Raises ValueError for non-square, non-finite or non-Hermitian
    input (relative to the largest entry), and ``np.linalg.LinAlgError`` (a
    ValueError) when LAPACK does not converge.
    """
    a = np.array(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    # work on a / 2**e, an exact rescaling with entries below 1, so the
    # Frobenius norms of the diagonal test neither overflow nor underflow
    e = int(np.frexp(float(np.max(np.abs(a), initial=0.0)))[1])
    a = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    top = float(np.max(np.abs(a), initial=0.0))
    if float(np.max(np.abs(a - a.conj().T), initial=0.0)) > _HERMITIAN_TOL * top:
        raise ValueError("matrix is not Hermitian within tolerance")
    a = (a + a.conj().T) / 2.0
    w = np.diag(a).real
    if np.linalg.norm(a - np.diag(w)) > _OFF_TOL * np.linalg.norm(a):
        w = np.linalg.eigvals(a).real
    return np.sort(np.ldexp(w, e), kind="stable")


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal frame bounds and the per-root spectra they are read from.

    ``spectra`` is the (P, M) array of evaluated Gram eigenvalues, one
    ascending row per root, clipped at zero.  A is the smallest and B the
    largest of them; ``per_root[p]`` holds root p's own [min, max] pair.
    """

    spectra: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectra", np.array(self.spectra, dtype=float))
        self.spectra.setflags(write=False)

    @property
    def A(self) -> float:
        return float(np.min(self.spectra[:, 0]))

    @property
    def B(self) -> float:
        return float(np.max(self.spectra[:, -1]))

    @property
    def per_root(self) -> list[list[float]]:
        return self.spectra[:, [0, -1]].tolist()

    def is_tight(self, tol: float) -> bool:
        """Whether B > 0 and B - A <= tol * B: the zero bank is not tight."""
        return bool(self.B > 0 and self.B - self.A <= tol * self.B)


def gram_stack(mat: np.ndarray) -> np.ndarray:
    """The (P, M, M) stack of evaluated Grams of the polyphase matrix ``mat``;
    slice p is :func:`~fbff.polyphase.gram` at root p.

    Each entry's Signal is built once per bank, then every entry is evaluated
    root by root, so all of root p's entries read its one cached row of powers.
    Raises ValueError when a Gram is not finite: finite samples whose
    squares overflow have no meaningful bounds.
    """
    entries = [[Signal(e) for e in row] for row in mat]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        grams = np.stack([gram(entries, p) for p in range(mat.shape[-1])])
    if not np.all(np.isfinite(grams)):
        raise ValueError("evaluated Grams are not finite (samples too large)")
    return grams


def _gram_bounds(grams: np.ndarray) -> FrameBounds:
    # Grams are positive semidefinite: tiny negative eigenvalues clip to zero
    return FrameBounds(np.maximum(np.linalg.eigvalsh(grams), 0.0))


def frame_bounds(mat: np.ndarray) -> FrameBounds:
    """Optimal bounds of the bank with polyphase matrix ``mat``.

    At each root the extreme Gram eigenvalues bound that root's frame; the
    global bounds are their min and max.
    """
    return _gram_bounds(gram_stack(mat))


def autocorrelation_defect(norms2: np.ndarray) -> np.ndarray:
    """Largest entry of T^H T - I for each row of squared polyphase norms
    (last axis), which are the DFT of T^H T's first column <phi, T^{Mj} phi>.
    Raises ValueError when the norms are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        corr = np.fft.ifft(norms2, axis=-1)
        corr[..., 0] -= 1.0
        defect = np.max(np.abs(corr), axis=-1)
    if not np.all(np.isfinite(defect)):
        raise ValueError("polyphase norms are not finite (samples too large)")
    return defect


def channel_defects(mat: np.ndarray) -> np.ndarray:
    """:func:`autocorrelation_defect` of every column of ``mat``, i.e. the
    defect of every channel of the bank whose polyphase matrix it is, from
    one FFT."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported there
        return autocorrelation_defect(np.sum(np.abs(eval_all_roots(mat)) ** 2, axis=0))


def channel_is_projection(phi: np.ndarray, m: int, tol: float = 1e-9) -> bool:
    """Whether the m-translates of ``phi`` are orthonormal, i.e. whether the
    largest entry of T^H T - I, max_j |<phi, T^{mj} phi> - delta_j|, read by
    :func:`channel_defects` from one FFT of ``phi``'s polyphase components,
    is at most ``tol``; then the channel's synthesis-analysis composite is an
    orthogonal projection.  (1 + d) times an orthonormal channel reads 2d + d^2."""
    return bool(channel_defects(decompose(phi, m))[0] <= tol)


@dataclass(frozen=True)
class FusionReport:
    """Verdicts for one filter bank at one tolerance.

    ``is_puntf`` asserts the strongest structure: unit-norm columns and
    orthogonal rows of constant squared norm N/M at every root, i.e. a
    tight fusion frame in which every channel is a projection of rank
    ``projection_rank`` (the number of translates per channel).
    """

    bounds: FrameBounds
    channel_projection: tuple[bool, ...]
    is_tight: bool
    is_puntf: bool
    redundancy: Fraction
    tolerance: float
    projection_rank: int


def fusion_report(fb: FilterBank, tol: float = 1e-9) -> FusionReport:
    mat = matrix_of(fb)
    grams = gram_stack(mat)
    bounds = _gram_bounds(grams)
    channels = tuple(bool(d <= tol) for d in channel_defects(mat))
    target = fb.n_channels / fb.downsample
    defect = np.max(np.abs(grams - target * np.eye(fb.downsample)))
    rows_ok = defect <= tol * max(1.0, target)
    return FusionReport(
        bounds=bounds,
        channel_projection=channels,
        is_tight=bounds.is_tight(tol),
        is_puntf=bool(all(channels) and rows_ok),
        redundancy=Fraction(fb.n_channels, fb.downsample),
        tolerance=tol,
        projection_rank=fb.inner_period,
    )


def report_to_json(rep: FusionReport) -> dict:
    return {
        "A": rep.bounds.A,
        "B": rep.bounds.B,
        "per_root": rep.bounds.per_root,
        "channel_projection": list(rep.channel_projection),
        "is_tight": rep.is_tight,
        "is_puntf": rep.is_puntf,
        "redundancy": {
            "num": rep.redundancy.numerator,
            "den": rep.redundancy.denominator,
        },
        "tolerance": rep.tolerance,
        "projection_rank": rep.projection_rank,
    }


def isometry_defect(t: np.ndarray) -> float | np.ndarray:
    """Largest entry of T^H T - I for each dense T of a (..., dim, r) stack,
    from one batched product: 0 exactly when T T^H is the orthogonal
    projection of rank r onto T's span.  A 2-D ``t`` gives one float."""
    gram = np.swapaxes(t.conj(), -1, -2) @ t
    diag = np.arange(t.shape[-1])
    gram[..., diag, diag] -= 1.0
    defect = np.max(np.abs(gram), axis=(-2, -1), initial=0.0)
    return float(defect) if t.ndim == 2 else defect
