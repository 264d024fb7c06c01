"""Frame and fusion-frame verification.

Everything here turns a structural claim ("this bank is a tight fusion
frame", "this channel is an orthogonal projection") into a numeric verdict
with an explicit tolerance.  Each bank's evaluated Grams are
built once, as a (P, M, M) stack from the per-root polyphase Gram, and one
batched LAPACK ``eigvalsh`` call gives every root's spectrum; bounds and
row checks both read from that stack, and the bounds keep the spectra so
that the dense oracle checks the very numbers they were read from.

The Hermitian eigenvalue solver kept here (Householder tridiagonalization
in numpy, then implicit QL on Python floats, tested against an independent
characteristic-polynomial root finder) computes eigenvalues only and
serves only the dense oracle, so the polyphase route and the oracle share
no eigensolver.  Every channel verdict, the Gabor one included, reads
T^H T - I from squared polyphase norms (:func:`autocorrelation_defect`), and
a report, like each level of a composition tree, takes all of a bank's
channel norms from one FFT (:func:`channel_defects`).  Evaluated Grams and
polyphase norms that are not finite are rejected with ValueError.
"""

from __future__ import annotations

import math
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
    "channel_defect",
    "channel_is_projection",
    "FusionReport",
    "fusion_report",
    "report_to_json",
    "isometry_defect",
]

_HERMITIAN_TOL = 1e-10
_OFF_TOL = 1e-13
_MAX_SWEEPS = 30


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and |subdiagonal| of a Householder tridiagonal form of the
    Hermitian ``a``, which is overwritten (Golub & Van Loan, Alg. 8.3.1):
    step k reflects x = a[k+1:, k] by v = x + phase(x_0) |x| e_1 and updates
    the trailing block by one matvec and one rank-2 update."""
    for k in range(len(a) - 2):
        x = a[k + 1 :, k]
        tail = np.vdot(x[1:], x[1:]).real
        if tail == 0.0:
            continue
        r = abs(x[0])
        v = x.copy()
        x[0] = np.sqrt(r * r + tail)
        v[0] += x[0] * (v[0] / r if r > 0 else 1.0)
        beta = 2.0 / np.vdot(v, v).real
        s = a[k + 1 :, k + 1 :]
        p = beta * (s @ v)
        w = p - (beta * np.vdot(v, p).real / 2.0) * v
        s -= np.stack([v, w], axis=1) @ np.stack([w, v]).conj()
    return np.diag(a).real, np.abs(np.diag(a, -1))


def _tridiagonal_eigs(d: np.ndarray, sub: np.ndarray) -> list[float]:
    """Unsorted eigenvalues of the real symmetric tridiagonal matrix with
    diagonal ``d`` and subdiagonal ``sub``, by implicit QL with Wilkinson
    shifts (Golub & Van Loan §8.3.5; EISPACK ``tql1``) on Python floats.
    A subdiagonal entry at most eps times the largest |d_i| + |sub_i| splits
    the matrix: a test against its diagonal neighbours alone never passes
    inside a cluster of eigenvalues at rounding level, like a singular Gram's zeros.
    """
    tol = float(np.finfo(float).eps * np.max(np.abs(d) + np.append(sub, 0.0)))
    d, e, n = d.tolist(), sub.tolist() + [0.0], len(d)
    for l in range(n):
        for _ in range(_MAX_SWEEPS):
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            # shift by the eigenvalue of the leading 2 x 2 nearer d_l, then
            # chase the bulge from row m up to row l
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                s, c = (f / r, g / r) if r else (0.0, 1.0)  # as LAPACK's dlartg
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[l] -= p
            e[l], e[m] = g, 0.0
        else:
            raise RuntimeError("implicit QL did not converge")
    return d


def hermitian_eigs(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; no eigenvectors.

    Householder reduction to real symmetric tridiagonal form, then implicit
    QL.  When the off-diagonal Frobenius norm is at most 1e-13 times the
    matrix norm, the sorted diagonal is the spectrum.  Raises ValueError for
    non-square, non-finite or non-Hermitian input (relative to the largest
    entry), and RuntimeError past 30 QL sweeps for one eigenvalue.
    """
    a = np.array(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    # work on a / 2**e, an exact rescaling with entries below 1, so neither
    # the norms nor the Householder vectors' squared lengths overflow or underflow
    e = int(np.frexp(float(np.max(np.abs(a), initial=0.0)))[1])
    a = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    top = float(np.max(np.abs(a), initial=0.0))
    if float(np.max(np.abs(a - a.conj().T), initial=0.0)) > _HERMITIAN_TOL * top:
        raise ValueError("matrix is not Hermitian within tolerance")
    a = (a + a.conj().T) / 2.0
    w = np.diag(a).real
    if np.linalg.norm(a - np.diag(w)) > _OFF_TOL * np.linalg.norm(a):
        w = _tridiagonal_eigs(*_tridiagonalize(a))
    return np.sort(np.ldexp(w, e), kind="stable")


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal frame bounds and the per-root spectra they are read from.

    ``spectra`` is the (P, M) array of evaluated Gram eigenvalues, one
    ascending row per root, clipped at zero.  A is the smallest and B the
    largest of them; ``per_root[p]`` holds root p's own (min, max) pair.
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
    def per_root(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(a), float(b)) for a, b in self.spectra[:, [0, -1]])

    def is_tight(self, tol: float) -> bool:
        """Whether B > 0 and B - A <= tol * B: the zero bank is not tight."""
        return bool(self.B > 0 and self.B - self.A <= tol * self.B)


def gram_stack(mat: np.ndarray) -> np.ndarray:
    """The (P, M, M) stack of evaluated Grams; slice p is ``gram(mat, p)``.

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


def channel_defect(phi: Signal, m: int) -> float:
    """Largest entry of T^H T - I for T the m-translates of ``phi``, i.e.
    max_j |<phi, T^{mj} phi> - delta_j|, by one inverse FFT of the squared
    polyphase norms; (1 + d) times an orthonormal channel reads 2d + d^2."""
    return float(channel_defects(decompose(phi, m))[0])


def channel_is_projection(phi: Signal, m: int, tol: float = 1e-9) -> bool:
    """Whether the m-translates of ``phi`` are orthonormal, i.e. whether
    :func:`channel_defect` is at most ``tol``; then the channel's
    synthesis-analysis composite is an orthogonal projection."""
    return channel_defect(phi, m) <= tol


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
        "per_root": [[a, b] for a, b in rep.bounds.per_root],
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


def isometry_defect(t: np.ndarray) -> float:
    """Largest entry of T^H T - I for a dense T: 0 exactly when T T^H is
    the orthogonal projection of rank ``T.shape[1]`` onto T's span."""
    return float(np.max(np.abs(t.conj().T @ t - np.eye(t.shape[1])), initial=0.0))
