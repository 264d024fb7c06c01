"""Frame and fusion-frame verification.

Everything here turns a structural claim ("this bank is a tight fusion
frame", "these weighted projections resolve the identity") into a numeric
verdict with an explicit tolerance.  Each bank's evaluated Grams are
built once, as a (P, M, M) stack from the per-root polyphase Gram, and one
batched LAPACK ``eigvalsh`` call gives every root's spectrum; bounds and
row checks both read from that stack, and the bounds keep the spectra so
that the dense oracle checks the very numbers they were read from.

The cyclic Jacobi eigensolver kept here (tested against an independent
characteristic-polynomial root finder) serves only the dense oracle, so
the polyphase route and the oracle share no eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gabor import GaborSystem, zak_row_sums
from .polyphase import PolyphaseMatrix, decompose, eval_all_roots, gram, matrix_of
from .signals import FilterBank, Signal

__all__ = [
    "jacobi_eigh",
    "hermitian_eigs",
    "FrameBounds",
    "gram_stack",
    "frame_bounds",
    "channel_is_projection",
    "FusionReport",
    "fusion_report",
    "report_to_json",
    "verify_weighted_parseval",
    "gabor_frame_bounds",
    "gabor_channel_orthonormal",
    "gabor_tightness",
]

# Relative gap guard for the tightness verdict; keeps the zero bank from
# reporting a vacuous "tight".
_TIGHT_EPS = 1e-300

_HERMITIAN_TOL = 1e-10
_JACOBI_OFF_TOL = 1e-13
_MAX_SWEEPS = 100


def _frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def _rotation_2x2(app: float, aqq: float, apq: complex) -> np.ndarray:
    """Unitary 2x2 diagonalizing [[app, apq], [conj(apq), aqq]]."""
    d = (app - aqq) / 2.0
    h = np.hypot(d, abs(apq))
    # lambda_max - app, computed without cancellation
    mu = abs(apq) ** 2 / (d + h) if d >= 0 else h - d
    nv = np.sqrt(abs(apq) ** 2 + mu * mu)
    u0 = apq / nv
    u1 = mu / nv
    return np.array([[u0, -np.conj(u1)], [u1, np.conj(u0)]])


def jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, unitary eigenvector matrix).  Sweeps
    stop when the off-diagonal Frobenius norm falls below 1e-13 times the
    matrix norm.  Raises ValueError for non-Hermitian input.
    """
    a = np.array(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.conj().T))) > _HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    a = (a + a.conj().T) / 2.0

    v = np.eye(n, dtype=complex)
    norm = _frobenius(a)
    for _ in range(_MAX_SWEEPS):
        off = _frobenius(a - np.diag(np.diag(a)))
        if off <= _JACOBI_OFF_TOL * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0:
                    continue
                u = _rotation_2x2(a[p, p].real, a[q, q].real, apq)
                a[:, [p, q]] = a[:, [p, q]] @ u
                a[[p, q], :] = u.conj().T @ a[[p, q], :]
                a[p, q] = 0.0
                a[q, p] = 0.0
                v[:, [p, q]] = v[:, [p, q]] @ u
    else:
        raise RuntimeError("Jacobi sweeps did not converge")

    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def hermitian_eigs(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    w, _ = jacobi_eigh(h)
    return w


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


def gram_stack(mat: PolyphaseMatrix) -> np.ndarray:
    """The (P, M, M) stack of evaluated Grams; slice p is ``gram(mat, p)``."""
    return np.stack([gram(mat, p) for p in range(mat.period)])


def _gram_bounds(grams: np.ndarray) -> FrameBounds:
    # Grams are positive semidefinite: tiny negative eigenvalues clip to zero
    return FrameBounds(np.maximum(np.linalg.eigvalsh(grams), 0.0))


def frame_bounds(mat: PolyphaseMatrix) -> FrameBounds:
    """Optimal bounds of the bank with polyphase matrix ``mat``.

    At each root the extreme Gram eigenvalues bound that root's frame; the
    global bounds are their min and max.
    """
    return _gram_bounds(gram_stack(mat))


def channel_is_projection(phi: Signal, m: int, tol: float = 1e-9) -> bool:
    """Whether the m-translates of ``phi`` are orthonormal.

    Holds iff the evaluated polyphase vector has unit norm at every root,
    which makes the channel's synthesis-analysis composite an orthogonal
    projection.
    """
    norms = np.sqrt(np.sum(np.abs(eval_all_roots(decompose(phi, m))) ** 2, axis=0))
    return bool(np.max(np.abs(norms - 1.0)) <= tol)


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
    grams = gram_stack(matrix_of(fb))
    bounds = _gram_bounds(grams)
    channels = tuple(
        channel_is_projection(phi, fb.downsample, tol) for phi in fb.filters
    )
    is_tight = bounds.B > 0 and (bounds.B - bounds.A) <= tol * max(
        bounds.B, _TIGHT_EPS
    )
    target = fb.n_channels / fb.downsample
    defect = np.max(np.abs(grams - target * np.eye(fb.downsample)))
    rows_ok = defect <= tol * max(1.0, target)
    return FusionReport(
        bounds=bounds,
        channel_projection=channels,
        is_tight=is_tight,
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


def verify_weighted_parseval(projections, dim: int, tol: float = 1e-9):
    """Check that weighted operators form a Parseval fusion frame.

    ``projections`` is an iterable of (matrix, weight, rank) triples with
    dim x dim matrices, consumed one triple at a time, so a generator can
    form each matrix only when it is checked.  Each operator must be an
    orthogonal projection of the stated rank (self-adjoint, idempotent,
    trace = rank), and the weighted sum must resolve the identity.

    Returns (ok, max_residual) where the residual is the largest defect
    observed across all checks.
    """
    total = np.zeros((dim, dim), dtype=complex)
    worst = 0.0
    ok = True
    for mat, weight, rank in projections:
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"operator has shape {mat.shape}, expected ({dim}, {dim})")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        idem = float(np.max(np.abs(mat @ mat - mat)))
        rank_defect = abs(float(np.trace(mat).real) - float(rank))
        worst = max(worst, herm, idem)
        if herm > tol or idem > tol or rank_defect > tol * max(1.0, float(dim)):
            ok = False
        total += float(weight) * mat
    sum_defect = float(np.max(np.abs(total - np.eye(dim))))
    worst = max(worst, sum_defect)
    if sum_defect > tol:
        ok = False
    return ok, worst


def gabor_frame_bounds(phi: Signal, m: int, q: int, r: int) -> FrameBounds:
    """Optimal bounds of the translate-and-modulate bank built on ``phi``.

    The evaluated Gram of such a bank is diagonal, with entry m equal to
    M times the squared-modulus row sum of the Zak matrix; the bounds are
    the extreme values of that grid over all rows and roots.
    """
    return FrameBounds(np.sort(zak_row_sums(GaborSystem(phi, m, q, r)).T, axis=1))


def gabor_channel_orthonormal(
    phi: Signal, m: int, q: int, r: int, tol: float = 1e-9
) -> bool:
    """Whether every modulated channel has orthonormal M-translates.

    Modulation does not change polyphase norms, so this reduces to the
    unit-norm condition on the prototype's polyphase vector at all roots.
    """
    GaborSystem(phi, m, q, r)  # validates the lattice shape
    return channel_is_projection(phi, m, tol)


def gabor_tightness(phi: Signal, m: int, q: int, r: int, tol: float = 1e-9) -> bool:
    """Whether the translate-and-modulate bank on ``phi`` is a tight frame.

    Two equivalent criteria are evaluated: the Zak row sums of
    :func:`fbff.gabor.zak_row_sums` must equal R at every root, and, in the
    time domain, the R-translates of each subsequence sqrt(M) * phi[m + M k]
    must be orthonormal.  A verdict
    mismatch between the two forms signals an implementation bug and
    raises RuntimeError.
    """
    rows = zak_row_sums(GaborSystem(phi, m, q, r))
    freq_ok = bool(np.max(np.abs(rows - r)) <= tol * max(m, r))

    time_defect = 0.0
    for k in range(m):
        s = np.sqrt(m) * phi.samples[k::m]  # period q*r subsequence
        for shift in range(q):
            ip = np.sum(s * np.conj(np.roll(s, r * shift)))
            want = 1.0 if shift == 0 else 0.0
            time_defect = max(time_defect, abs(ip - want))
    time_ok = bool(time_defect <= tol)

    if freq_ok != time_ok:
        raise RuntimeError(
            "tightness criteria disagree: Zak row sums say "
            f"{freq_ok}, translate orthonormality says {time_ok}"
        )
    return freq_ok
