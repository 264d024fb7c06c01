"""Translate-and-modulate (Gabor) banks and the max-flat prototype design.

A Gabor bank takes M*R regular modulates of one prototype of period M*Q*R
and downsamples by M, so a system is (prototype, M, R) and its block Q is
period / (M*R).  Its bounds and tightness verdict read the Zak row
sums: the prototype's squared polyphase norms folded over R, an (M, Q) grid.

The designed prototype has 2T taps.  Its odd-indexed taps are a linear
function of the even-indexed ones (chosen so the first T derivatives of the
tap polynomial vanish at 1: a maximally flat response there), and the even
taps are then solved numerically so that both the even and odd subsequences
have squared norm 1/2 and are orthogonal to their own even translates,
which are the tightness conditions of the rate-2, redundancy-2 system.

The even-to-odd map is exact: the flatness conditions say that the odd taps,
placed at the odd nodes 1, 3, .., 2T-1, reproduce (with a minus sign) every
moment of degree < T of the even taps placed at 0, 2, .., 2T-2, so the map's
entries are Lagrange basis polynomials of the odd nodes evaluated at the even
ones.  They are formed in integers once per T and rounded once to floats.

The tightness residual is quadratic in the even taps, one symmetric form per
entry, so the search evaluates it and its exact Jacobian from one product
with a cached stack of forms and never forms odd taps; the checked odd-tap
solve runs on each restart's start and end point.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import polyphase
from .analysis import FrameBounds, autocorrelation_defect, isometry_defect
from .signals import FilterBank, Signal, modulate, translate_matrix

__all__ = [
    "gabor_bank",
    "zak_row_sums",
    "gabor_frame_bounds",
    "gabor_tightness",
    "flatness_solve_odd",
    "tightness_residual",
    "interleave_taps",
    "embed_taps",
    "levenberg_marquardt",
    "LMResult",
    "MaxFlatResult",
    "design_maxflat",
]


def gabor_bank(phi: Signal, m: int, r: int) -> FilterBank:
    """The M*R modulates of ``phi`` by Q*n, Q = period / (M*R), downsampled
    by M over the inner period Q*R, as a plain filter bank."""
    if m < 1 or r < 1 or phi.period % (m * r):
        raise ValueError(f"M*R = {m}*{r} must divide the prototype period {phi.period}")
    q = phi.period // (m * r)
    return FilterBank(tuple(modulate(phi, q * n) for n in range(m * r)), m)


def zak_row_sums(phi: Signal, m: int, r: int) -> np.ndarray:
    """M x Q grid: M * sum_r |Zak(m, r)|^2 at roots 0 .. Q-1 (then it repeats).

    The extreme entries are the optimal frame bounds of the bank; a tight
    design makes every entry equal to the redundancy R.  Raises ValueError
    when M or R does not fit the prototype's period, or when the sums are
    not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rows = m * polyphase.zak_power_rows(polyphase.decompose(phi, m), r)
    if not np.all(np.isfinite(rows)):
        raise ValueError("Zak row sums are not finite (samples too large)")
    return rows


def gabor_frame_bounds(phi: Signal, m: int, r: int) -> FrameBounds:
    """Optimal bounds of the translate-and-modulate bank built on ``phi``.

    The evaluated Gram of such a bank is diagonal, with entry m equal to
    M times the squared-modulus row sum of the Zak matrix; the bounds are
    the extreme values of that grid, whose Q roots are its ``per_root``.
    """
    return FrameBounds(np.sort(zak_row_sums(phi, m, r).T, axis=1))


def gabor_tightness(phi: Signal, m: int, r: int, *, tol: float = 1e-9) -> bool:
    """Whether the translate-and-modulate bank on ``phi`` is a tight frame.

    It is iff each component s_k = sqrt(M) * phi[k::M] has orthonormal
    R-translates.  Their defect is read from the Zak row sums over R, which
    are the components' squared polyphase norms, and from their stacked
    dense translate Grams.  The verdict is Zak defect <= tol; defects
    differing beyond rounding, 1e-12 of max(1, defect), raise RuntimeError.
    """
    rows = zak_row_sums(phi, m, r)
    zak_defect = float(np.max(autocorrelation_defect(rows / r)))
    comps = translate_matrix(np.sqrt(m) * phi.samples.reshape(-1, m), r)  # [:, k] is T of s_k
    time_defect = float(np.max(isometry_defect(np.moveaxis(comps, 1, 0))))
    if abs(zak_defect - time_defect) > 1e-12 * max(1.0, zak_defect):
        raise RuntimeError(
            f"tightness defects disagree: Zak {zak_defect:.3e}, Gram {time_defect:.3e}"
        )
    return zak_defect <= tol


# -- max-flat design ----------------------------------------------------------


# The first T (136) whose derivative table's largest entry, (2T-1)!/T!,
# overflows a float.
_TABLE_T_LIMIT = next(
    t
    for t in itertools.count(1)
    if math.lgamma(2 * t) - math.lgamma(t + 1) > math.log(sys.float_info.max)
)


@functools.cache
def _derivative_table(t: int) -> np.ndarray:
    """T x 2T table F[k, m] = m!/(m-k)!: row k of F @ taps is the k-th
    derivative of the tap polynomial at 1.  Cached per T, read-only;
    ValueError, before any entry is built, when T >= ``_TABLE_T_LIMIT``."""
    if t >= _TABLE_T_LIMIT:
        raise ValueError(f"derivative table for T = {t} does not fit in floats")
    table = np.array([[float(math.perm(m, k)) for m in range(2 * t)] for k in range(t)])
    table.flags.writeable = False
    return table


@functools.cache
def _odd_map(t: int) -> np.ndarray:
    """The T x T matrix K with odd = K @ even, i.e. A K = -C for A and C the
    odd and even columns of :func:`_derivative_table`.  Cached per T, read-only.

    The falling factorials of degree < T span all polynomials f of degree
    < T, so the system says sum_q odd_q f(2q+1) = -sum_p even_p f(2p), and
    Lagrange interpolation at the odd nodes gives K[q, p] = -L_q(2p).  Each
    entry is a ratio of integer products, rounded once to the nearest float.
    """
    nodes = range(1, 2 * t, 2)
    rows = []
    for q in nodes:
        row = []
        for x in range(0, 2 * t, 2):
            num = den = 1
            for r in nodes:
                if r != q:
                    num *= x - r
                    den *= q - r
            row.append(-num / den)  # int / int rounds correctly
        rows.append(row)
    odd_map = np.array(rows)
    odd_map.flags.writeable = False
    return odd_map


def _even_taps(even) -> np.ndarray:
    even = np.asarray(even, dtype=float)
    if even.ndim != 1 or even.size < 1:
        raise ValueError("even coefficients must be a nonempty vector")
    return even


def flatness_solve_odd(even) -> np.ndarray:
    """Odd taps completing ``even`` to a maximally flat 2T-tap filter.

    Applies the exact even-to-odd map of :func:`_odd_map`, then checks the
    derivatives D = F @ taps at 1 (F = ``_derivative_table``) two ways:
    against 1e-10 of the even side's scale max(1, |C @ even|), and, as a
    forward error, each |D_k| against 1e-12 of (F @ |taps|)_k.  Raises
    ValueError when either check fails, or when F @ |taps|, which bounds
    every other quantity here, overflows.
    """
    even = _even_taps(even)
    table = _derivative_table(even.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        odd = _odd_map(even.size) @ even
        taps = interleave_taps(even, odd)
        bound = table @ np.abs(taps)
        deriv = np.abs(table @ taps)
    if not np.isfinite(bound).all():
        raise ValueError("flatness derivatives overflow floats")
    scale = max(1.0, float(np.max(np.abs(table[:, 0::2] @ even))))
    if float(np.max(deriv)) > 1e-10 * scale:
        raise ValueError(
            f"flatness solve residual too large at T = {even.size}: a float limit "
            "of the exact odd-tap map on this draw, not malformed input"
        )
    if np.any(deriv > 1e-12 * bound):
        raise ValueError("flatness forward error too large")
    return odd


@functools.cache
def _tightness_forms(t: int) -> np.ndarray:
    """(2H, T, T) stack of symmetric B_j, H = ceil(T/2): entry j of the
    tightness residual is x^T B_j x - c_j.  The even block is the lag-2q
    shift A_q = (S^2q + S^-2q) / 2, with x^T A_q x = sum_i x_i x_{i+2q}, and
    the odd block K^T A_q K, K = :func:`_odd_map`.  Cached per T, read-only.
    """
    lags = range(0, t, 2)
    shifts = np.array([np.eye(t, k=lag) + np.eye(t, k=-lag) for lag in lags]) / 2.0
    odd_map = _odd_map(t)
    forms = np.concatenate([shifts, odd_map.T @ shifts @ odd_map])
    forms = (forms + forms.transpose(0, 2, 1)) / 2.0  # exactly symmetric
    forms.flags.writeable = False
    return forms


def tightness_residual(even) -> tuple[np.ndarray, np.ndarray]:
    """Defects of the two tightness conditions, as a flat residual vector,
    and their exact Jacobian in the even taps.

    For the even taps s and then for the odd taps K s of the flatness map,
    the entries are the aperiodic correlations <s, s shifted by 2q> minus
    delta_q / 2 for q = 0 .. ceil(T/2) - 1; the zero vector is equivalent to
    tightness of the rate-2, redundancy-2 system at any even embedding
    period.  Entry j is x^T B_j x - c_j for the symmetric forms B_j of
    :func:`_tightness_forms`, so one product B x gives the residual
    (B x) x - c and the Jacobian 2 B x.  No odd taps are formed (and none
    checked: :func:`flatness_solve_odd` does that).
    """
    even = _even_taps(even)
    bx = _tightness_forms(even.size) @ even
    res = bx @ even
    res[[0, res.size // 2]] -= 0.5
    return res, 2.0 * bx


def interleave_taps(even, odd) -> np.ndarray:
    even = np.asarray(even, dtype=float)
    odd = np.asarray(odd, dtype=float)
    taps = np.empty(even.size + odd.size)
    taps[0::2] = even
    taps[1::2] = odd
    return taps


def embed_taps(taps, q: int) -> Signal:
    """Zero-extend a tap vector into the period-4Q signal space (M = R = 2)."""
    taps = np.asarray(taps, dtype=complex)
    period = 4 * q
    if taps.size > period:
        raise ValueError(f"{taps.size} taps do not fit in period {period}")
    samples = np.zeros(period, dtype=complex)
    samples[: taps.size] = taps
    return Signal(samples)


# -- small dense Levenberg-Marquardt ------------------------------------------


@dataclass(frozen=True)
class LMResult:
    x: np.ndarray
    residual: np.ndarray
    iterations: int
    converged: bool


_LM_MAX_ITER = 500


def levenberg_marquardt(fn, x0, tol: float = 1e-10) -> LMResult:
    """Damped least squares on a residual function.

    ``fn(x)`` returns the residual vector at x and its Jacobian there, as
    a pair of float arrays, so each point is evaluated once: the Jacobian
    of an accepted step is kept for the next iteration.  Iteration stops
    when the residual infinity norm drops below ``tol`` or after
    ``_LM_MAX_ITER`` iterations.
    """
    x = np.array(x0, dtype=float)
    r, jx = fn(x)
    lam = 1e-3
    iterations = 0
    for iterations in range(1, _LM_MAX_ITER + 1):
        if float(np.max(np.abs(r))) <= tol:
            break
        jtj = jx.T @ jx
        grad = jx.T @ r
        damping_scale = np.maximum(np.diag(jtj), 1e-12)
        r_norm = np.linalg.norm(r)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damping_scale), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x - step
            r_new, j_new = fn(x_new)
            if np.linalg.norm(r_new) < r_norm:
                x, r, jx = x_new, r_new, j_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 3.0
            if lam > 1e12:
                break
        if not accepted:
            break
    converged = bool(float(np.max(np.abs(r))) <= tol)
    return LMResult(x=x, residual=r, iterations=iterations, converged=converged)


# -- solver-driven design ------------------------------------------------------


@dataclass(frozen=True)
class MaxFlatResult:
    """Outcome of a design run; ``converged`` False is an outcome, not an error.

    ``trace`` holds one (residual_inf, iterations) pair per restart
    attempted, in order, and (None, 0) for a restart whose draw failed the
    flatness checks; ``restart`` indexes the winning one, or else the first
    with the smallest residual among those that ran, and ``residual_inf``
    and ``iterations`` are read from its entry.
    """

    taps: np.ndarray | None
    signal: Signal | None
    restart: int
    block: int  # Q used for the embedding
    trace: tuple[tuple[float | None, int], ...]

    @property
    def converged(self) -> bool:
        return self.signal is not None

    @property
    def residual_inf(self) -> float:
        return self.trace[self.restart][0]

    @property
    def iterations(self) -> int:
        return self.trace[self.restart][1]


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    # counter-based stream: restarts are independent and reproducible
    return np.random.Generator(np.random.Philox(key=seed, counter=restart))


def design_maxflat(t: int, seed: int = 0, restarts: int = 100, tol: float = 1e-8) -> MaxFlatResult:
    """Search for a unit-norm 2T-tap maximally flat tight prototype, embedded
    in period 4Q with Q = max(5, ceil(T/2)), so the 2T taps always fit.

    Each restart draws Gaussian even taps (normalized to squared norm 1/2),
    checks that the flatness map completes them (:func:`flatness_solve_odd`),
    runs damped least squares on the tightness residual with its exact
    Jacobian, and derives the odd taps of the end point through the same
    check.  A restart whose start or end point fails that check, a float
    limit of the exact map on its draw, is traced as (None, 0) and skipped;
    when every restart fails, the last failure's ValueError is raised.  The
    first restart whose residual infinity norm and returned design's
    :func:`gabor_tightness` both pass ``tol`` wins; running out of restarts
    reports the smallest residual among those that ran, with
    ``converged=False``.  The residual's targets are 1/2 and the Zak
    defect's are 1, so the verdict reads about twice the residual: a
    restart whose residual lies in (tol/2, tol] can pass the first gate and
    fail the second, and a run that did not converge can show a residual
    <= tol in its trace (T=14 seed 4, T=15 seed 2).
    Odd T gives T + 1 residual equations in T unknowns, yet solutions exist
    as for even T: with seed 1, every odd T up to 11 converges at restart 0.
    """
    if t < 1:
        raise ValueError("half-length must be >= 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    q = max(5, (t + 1) // 2)

    _derivative_table(t)  # a T too large for floats raises before any draw
    trace = []  # entry k is restart k: a Gaussian draw is never all zeros
    failure = None
    for restart in range(restarts):
        x0 = _restart_rng(seed, restart).standard_normal(t)
        x0 *= 2.0**-0.5 / np.linalg.norm(x0)
        try:
            flatness_solve_odd(x0)  # before the forms are built: taps that overflow raise here
            run = levenberg_marquardt(tightness_residual, x0)  # catches its own LinAlgError
            odd = flatness_solve_odd(run.x)
        except ValueError as exc:  # the flatness checks: a float limit of this draw
            failure = exc
            trace.append((None, 0))
            continue
        res_inf = float(np.max(np.abs(run.residual)))
        trace.append((res_inf, run.iterations))
        if res_inf <= tol:
            taps = interleave_taps(run.x, odd)
            # no-op within tolerance: the 1/2-targets force unit norm
            taps = taps / np.linalg.norm(taps)
            signal = embed_taps(taps, q)
            if gabor_tightness(signal, 2, 2, tol=tol):
                break
    else:
        ran = [k for k, (res, _) in enumerate(trace) if res is not None]
        if not ran:
            raise failure
        taps = signal = None
        restart = min(ran, key=lambda k: trace[k][0])
    return MaxFlatResult(taps=taps, signal=signal, restart=restart, block=q, trace=tuple(trace))
