"""Frame and fusion-frame verification.

Everything here turns a structural claim ("this bank is a tight fusion
frame", "these weighted projections resolve the identity") into a numeric
verdict with an explicit tolerance.  Each bank's evaluated Grams are
built once, as a (P, M, M) stack from the per-root polyphase Gram, and one
batched LAPACK ``eigvalsh`` call gives every root's spectrum; bounds and
row checks both read from that stack, and the bounds keep the spectra so
that the dense oracle checks the very numbers they were read from.

The round-robin parallel Jacobi eigensolver kept here (Brent & Luk's
ordering in pure numpy, tested against an independent characteristic-
polynomial root finder) serves only the dense oracle, so the polyphase
route and the oracle share no eigensolver.  Evaluated Grams and polyphase
norms that are not finite are rejected with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gabor import GaborSystem, zak_row_sums
from .polyphase import PolyphaseMatrix, decompose, eval_all_roots, gram, matrix_of
from .signals import FilterBank, Signal, translate_matrix

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
_ROUNDING = 1e-12  # relative gap between two computations of one defect

_HERMITIAN_TOL = 1e-10
_JACOBI_OFF_TOL = 1e-13
_MAX_SWEEPS = 100


def _frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def _round_robin_perm(m: int) -> np.ndarray:
    """Gather index taking one Brent-Luk round's layout to the next.

    Round k pairs storage positions (2i, 2i + 1).  In tournament order
    L (position 2i holds L[i], position 2i + 1 holds L[m - 1 - i]) the next
    round keeps L[0] and rotates the rest by one, so in m - 1 rounds every
    pair of indices meets exactly once and the layout returns to the start.
    """
    slot = np.empty(m, dtype=int)  # tournament index held at each position
    slot[0::2] = np.arange(m // 2)
    slot[1::2] = m - 1 - np.arange(m // 2)
    rotated = np.concatenate([[0, m - 1], np.arange(1, m - 1)])[:m]
    return np.argsort(slot)[rotated[slot]]


def _rotate(xp: np.ndarray, xq: np.ndarray, c, s) -> None:
    """In place: [xp, xq] <- [c xp + s xq, c xq - conj(s) xp]."""
    new_p = c * xp + s * xq
    xq *= c
    xq -= s.conj() * xp
    xp[...] = new_p


def jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix by round-robin parallel
    Jacobi rotations (Brent & Luk, 1985).

    Each sweep runs n - 1 rounds, and a round applies n/2 disjoint 2x2
    rotations as one array update of the columns, then of the rows.  Odd n
    is padded by a zero row and column, which only ever meets the identity
    rotation.  Returns (eigenvalues ascending, unitary eigenvector matrix).
    Sweeps stop when the off-diagonal Frobenius norm falls below 1e-13
    times the matrix norm.  Raises ValueError for non-finite or
    non-Hermitian input.
    """
    a = np.array(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    n = a.shape[0]
    top = float(np.max(np.abs(a), initial=0.0))
    if float(np.max(np.abs(a - a.conj().T), initial=0.0)) > _HERMITIAN_TOL * max(1.0, top):
        raise ValueError("matrix is not Hermitian within tolerance")
    # rotate a / 2**e, an exact rescaling with entries below 1, so the
    # Frobenius norms of the stopping rule neither overflow nor underflow
    e = int(np.frexp(top)[1])
    a = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)

    # x stacks the working matrix (rows :m) on the eigenvectors (rows m:),
    # stored so that the current round pairs positions (2i, 2i + 1)
    m = n + n % 2
    x = np.zeros((2 * m, m), dtype=complex)
    x[:n, :n] = (a + a.conj().T) / 2.0
    x[m:] = np.eye(m)
    perm = _round_robin_perm(m)
    gather = np.concatenate([perm, m + np.arange(m)])[:, None] * m + perm
    p = np.arange(0, m, 2) * (m + 1)  # flat index of each pair's a_pp
    block = np.stack([p, p + m + 1, p + 1])
    off_pairs = np.concatenate([p + 1, p + m])

    norm = _frobenius(x[:m])
    for _ in range(_MAX_SWEEPS):
        a = x[:m]
        if _frobenius(a - np.diag(np.diag(a))) <= _JACOBI_OFF_TOL * norm:
            break
        for _ in range(m - 1):
            # [[c, -s], [conj(s), c]] zeroes each pair's a_pq, with
            # t = tan(theta) = sign(d) |a_pq| / (|d| + hypot(d, |a_pq|)),
            # so |theta| <= pi/4, and s = c t a_pq / |a_pq|
            app, aqq, apq = x.take(block)
            d = (app.real - aqq.real) / 2.0
            r = np.abs(apq)
            den = np.abs(d) + np.hypot(d, r)
            den = np.where(den > 0, den, 1.0)  # 0 only where a_pq = 0 = d
            sign = np.copysign(1.0, d)
            c = 1.0 / np.sqrt(1.0 + (r / den) ** 2)
            s = c * sign * apq / den
            _rotate(x[:, 0::2], x[:, 1::2], c, s.conj())
            _rotate(x[0:m:2], x[1:m:2], c[:, None], s[:, None])
            np.put(x, off_pairs, 0.0)
            x = x.take(gather)
    else:
        raise RuntimeError("Jacobi sweeps did not converge")

    w = np.ldexp(np.diag(x[:n, :n]).real, e)
    order = np.argsort(w, kind="stable")
    return w[order], x[m : m + n, :n][:, order]


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

    def is_tight(self, tol: float) -> bool:
        """Whether B > 0 and B - A <= tol * B: the zero bank is not tight."""
        return bool(self.B > 0 and self.B - self.A <= tol * max(self.B, _TIGHT_EPS))


def gram_stack(mat: PolyphaseMatrix) -> np.ndarray:
    """The (P, M, M) stack of evaluated Grams; slice p is ``gram(mat, p)``.

    Raises ValueError when a Gram is not finite: finite samples whose
    squares overflow have no meaningful bounds.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        grams = np.stack([gram(mat, p) for p in range(mat.period)])
    if not np.all(np.isfinite(grams)):
        raise ValueError("evaluated Grams are not finite (samples too large)")
    return grams


def _gram_bounds(grams: np.ndarray) -> FrameBounds:
    # Grams are positive semidefinite: tiny negative eigenvalues clip to zero
    return FrameBounds(np.maximum(np.linalg.eigvalsh(grams), 0.0))


def frame_bounds(mat: PolyphaseMatrix) -> FrameBounds:
    """Optimal bounds of the bank with polyphase matrix ``mat``.

    At each root the extreme Gram eigenvalues bound that root's frame; the
    global bounds are their min and max.
    """
    return _gram_bounds(gram_stack(mat))


def _autocorrelation_defect(norms2: np.ndarray) -> float:
    """Largest entry of T^H T - I, over all leading axes: squared polyphase
    norms (last axis) are the DFT of T^H T's first column <phi, T^{Mj} phi>."""
    corr = np.fft.ifft(norms2, axis=-1)
    corr[..., 0] -= 1.0
    return float(np.max(np.abs(corr)))


def channel_defect(phi: Signal, m: int) -> float:
    """Largest entry of T^H T - I for T the m-translates of ``phi``, i.e.
    max_j |<phi, T^{mj} phi> - delta_j|, by one inverse FFT of the squared
    polyphase norms; (1 + d) times an orthonormal channel reads 2d + d^2.
    Raises ValueError when the norms are not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        norms2 = np.sum(np.abs(eval_all_roots(decompose(phi, m))) ** 2, axis=(0, 1))
        defect = _autocorrelation_defect(norms2)
    if not np.isfinite(defect):
        raise ValueError("polyphase norms are not finite (samples too large)")
    return defect


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
    grams = gram_stack(matrix_of(fb))
    bounds = _gram_bounds(grams)
    channels = tuple(
        channel_is_projection(phi, fb.downsample, tol) for phi in fb.filters
    )
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


def verify_weighted_parseval(isometries, dim: int, tol: float = 1e-9):
    """Check that weighted projections form a Parseval fusion frame.

    ``isometries`` yields (T, weight) pairs, T a dim x r matrix, one at a
    time, so a generator forms each T only when it is reached.  Returns
    (ok, max_residual): the largest of every :func:`isometry_defect` and of
    |sum w T T^H - I|, and whether it is at most ``tol``.
    """
    total = np.zeros((dim, dim), dtype=complex)
    worst = 0.0
    for t, weight in isometries:
        t = np.asarray(t, dtype=complex)
        if t.ndim != 2 or t.shape[0] != dim:
            raise ValueError(f"isometry has shape {t.shape}, expected ({dim}, r)")
        worst = max(worst, isometry_defect(t))
        total += (float(weight) * t) @ t.conj().T
    worst = max(worst, float(np.max(np.abs(total - np.eye(dim)))))
    return bool(worst <= tol), worst


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
    prototype's own verdict, :func:`channel_defect` <= tol.
    """
    GaborSystem(phi, m, q, r)  # validates the lattice shape
    return channel_is_projection(phi, m, tol)


def gabor_tightness(phi: Signal, m: int, q: int, r: int, tol: float = 1e-9) -> bool:
    """Whether the translate-and-modulate bank on ``phi`` is a tight frame.

    It is iff each component s_k = sqrt(M) * phi[k::M] has orthonormal
    R-translates.  Their :func:`channel_defect` is read from the Zak row
    sums, whose first Q columns over R are the components' squared
    polyphase norms, and from the dense translate Grams.  The verdict is
    Zak defect <= tol; defects differing beyond rounding raise RuntimeError.
    """
    rows = zak_row_sums(GaborSystem(phi, m, q, r))
    zak_defect = _autocorrelation_defect(rows[:, :q] / r)
    comps = (Signal(np.sqrt(m) * phi.samples[k::m]) for k in range(m))
    time_defect = max(isometry_defect(translate_matrix(c, r)) for c in comps)
    if abs(zak_defect - time_defect) > _ROUNDING * max(1.0, zak_defect):
        raise RuntimeError(
            f"tightness defects disagree: Zak {zak_defect:.3e}, Gram {time_defect:.3e}"
        )
    return zak_defect <= tol
