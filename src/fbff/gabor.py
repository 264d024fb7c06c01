"""Translate-and-modulate (Gabor) banks and the max-flat prototype design.

A Gabor bank takes M*R regular modulates of one prototype of period M*Q*R
and downsamples by M; tightness and per-channel orthonormality reduce to
norm conditions on the prototype's Zak matrix.

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
ones.  They are formed in integers once per T and rounded once to floats, and
the search runs on an exact Jacobian of the tightness residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signals import FilterBank, Signal, modulate

__all__ = [
    "GaborSystem",
    "gabor_bank",
    "zak_row_sums",
    "flatness_matrix",
    "flatness_solve_odd",
    "tightness_residual",
    "tightness_jacobian",
    "interleave_taps",
    "embed_taps",
    "levenberg_marquardt",
    "LMResult",
    "MaxFlatResult",
    "design_maxflat",
]


@dataclass(frozen=True)
class GaborSystem:
    """Prototype plus lattice parameters: rate M, block Q, redundancy R.

    The bank has M*R channels, channel n being the prototype modulated by
    Q*n, all downsampled by M over the inner period Q*R.
    """

    prototype: Signal
    rate: int
    block: int
    redundancy: int

    def __post_init__(self) -> None:
        m, q, r = self.rate, self.block, self.redundancy
        if m < 1 or q < 1 or r < 1:
            raise ValueError("rate, block and redundancy must be positive")
        if self.prototype.period != m * q * r:
            raise ValueError(
                f"prototype period {self.prototype.period} != {m}*{q}*{r}"
            )

    @property
    def n_channels(self) -> int:
        return self.rate * self.redundancy


def gabor_bank(sys: GaborSystem) -> FilterBank:
    """Materialize the modulated filters as a plain filter bank."""
    filters = tuple(
        modulate(sys.prototype, sys.block * n) for n in range(sys.n_channels)
    )
    return FilterBank(filters, sys.rate)


def zak_row_sums(sys: GaborSystem) -> np.ndarray:
    """M x (Q*R) grid: M * sum_r |Zak(m, r)|^2 at every root.

    The extreme entries are the optimal frame bounds of the bank; a tight
    design makes every entry equal to the redundancy R.  Raises ValueError
    when the sums are not finite.
    """
    from .polyphase import zak_of, zak_power_rows

    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rows = sys.rate * zak_power_rows(zak_of(sys.prototype, sys.rate, sys.redundancy))
    if not np.all(np.isfinite(rows)):
        raise ValueError("Zak row sums are not finite (samples too large)")
    return rows


# -- max-flat design ----------------------------------------------------------


@functools.cache
def _derivative_table(t: int) -> np.ndarray:
    """T x 2T table F[k, m] = m!/(m-k)!: row k of F @ taps is the k-th
    derivative of the tap polynomial at 1.  Cached per T, read-only;
    ValueError when an entry does not fit in a float (T >= 136)."""
    try:
        table = np.array([[float(math.perm(m, k)) for m in range(2 * t)] for k in range(t)])
    except OverflowError:
        raise ValueError(f"derivative table for T = {t} does not fit in floats") from None
    table.flags.writeable = False
    return table


def flatness_matrix(t: int) -> np.ndarray:
    """T x T system matrix tying odd taps to even taps.

    Row k states that the k-th derivative of the tap polynomial vanishes
    at 1: sum_p (2p+1)!/(2p+1-k)! phi[2p+1] = -sum_p (2p)!/(2p-k)! phi[2p].
    """
    if t < 1:
        raise ValueError("half-length must be >= 1")
    return _derivative_table(t)[:, 1::2].copy()


@functools.cache
def _odd_map(t: int) -> np.ndarray:
    """The T x T matrix K with odd = K @ even, i.e. A K = -C for A the
    :func:`flatness_matrix` and C the same falling factorials at the even
    taps.  Cached per T, read-only.

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


def flatness_solve_odd(even) -> np.ndarray:
    """Odd taps completing ``even`` to a maximally flat 2T-tap filter.

    Applies the exact even-to-odd map of :func:`_odd_map`, then checks the
    derivatives D = F @ taps at 1 (F = ``_derivative_table``) two ways:
    against 1e-10 of the even side's scale max(1, |C @ even|), and, as a
    forward error, each |D_k| against 1e-12 of (F @ |taps|)_k.  Raises
    ValueError when either check fails, or when F @ |taps|, which bounds
    every other quantity here, overflows.
    """
    even = np.asarray(even, dtype=float)
    if even.ndim != 1 or even.size < 1:
        raise ValueError("even coefficients must be a nonempty vector")
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
        raise ValueError("flatness solve residual too large")
    if np.any(deriv > 1e-12 * bound):
        raise ValueError("flatness forward error too large")
    return odd


def tightness_residual(even, odd=None) -> np.ndarray:
    """Defects of the two tightness conditions, as a flat residual vector.

    For each of the even and odd tap subsequences s the entries are the
    aperiodic correlations <s, s shifted by 2q> minus delta_q / 2 for
    q = 0 .. ceil(T/2) - 1; the zero vector is equivalent to tightness of
    the rate-2, redundancy-2 system at any even embedding period.  When
    ``odd`` is omitted it is derived through :func:`flatness_solve_odd`.
    """
    even = np.asarray(even, dtype=float)
    if odd is None:
        odd = flatness_solve_odd(even)
    odd = np.asarray(odd, dtype=float)
    t = even.size
    k = (t + 1) // 2
    res = []
    for s in (even, odd):
        for q in range(k):
            lag = 2 * q
            corr = float(np.dot(s[: t - lag], s[lag:])) if lag < t else 0.0
            res.append(corr - (0.5 if q == 0 else 0.0))
    return np.array(res)


def tightness_jacobian(even) -> np.ndarray:
    """Exact Jacobian of ``tightness_residual(even)`` in the even taps.

    d/ds_j of sum_i s_i s_{i+2q} is s_{j+2q} + s_{j-2q} (zero outside the
    taps); the odd block is chained through the even-to-odd map.
    """
    even = np.asarray(even, dtype=float)
    t = even.size
    odd_map = _odd_map(t)
    blocks = []
    for s in (even, odd_map @ even):
        block = np.zeros(((t + 1) // 2, t))
        for q in range(block.shape[0]):
            lag = 2 * q
            block[q, : t - lag] += s[lag:]
            block[q, lag:] += s[: t - lag]
        blocks.append(block)
    return np.vstack([blocks[0], blocks[1] @ odd_map])


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


def _jacobian_cd(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences with step ``step * max(1, |x_j|)``."""
    cols = []
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h))
    return np.stack(cols, axis=1)


def levenberg_marquardt(
    fn,
    x0,
    tol: float = 1e-10,
    max_iter: int = 500,
    jac=None,
) -> LMResult:
    """Damped least squares on a residual function.

    ``jac(x)`` gives the Jacobian of ``fn`` at x; without it, central
    differences with step 1e-6 * max(1, |x_j|) stand in (2 * x.size extra
    residual evaluations per iteration).  Iteration stops when the residual
    infinity norm drops below ``tol`` or after ``max_iter`` iterations.
    """
    if jac is None:
        jac = functools.partial(_jacobian_cd, fn)
    x = np.array(x0, dtype=float)
    r = np.asarray(fn(x), dtype=float)
    lam = 1e-3
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.max(np.abs(r))) <= tol:
            break
        jx = jac(x)
        jtj = jx.T @ jx
        grad = jx.T @ r
        damping_scale = np.maximum(np.diag(jtj), 1e-12)
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damping_scale), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x - step
            r_new = np.asarray(fn(x_new), dtype=float)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                x, r = x_new, r_new
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
    attempted, in order; ``restart`` indexes the winning or best one.
    """

    converged: bool
    taps: np.ndarray | None
    signal: Signal | None
    residual_inf: float
    restart: int
    iterations: int
    half_taps: int
    block: int  # Q used for the embedding
    trace: tuple[tuple[float, int], ...]


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    # counter-based stream: restarts are independent and reproducible
    return np.random.Generator(np.random.Philox(key=seed, counter=restart))


def design_maxflat(
    t: int,
    seed: int = 0,
    restarts: int = 100,
    q: int | None = None,
    tol: float = 1e-8,
) -> MaxFlatResult:
    """Search for a unit-norm 2T-tap maximally flat tight prototype.

    Each restart draws Gaussian even taps (normalized to squared norm 1/2),
    derives the odd taps from the flatness system, and runs damped least
    squares on the tightness residual with its exact Jacobian.  The first
    restart whose residual infinity norm reaches ``tol`` wins; running out
    of restarts reports the best attempt with ``converged=False``.
    Solutions are known to exist for even T; odd T generally leaves the
    residual system overdetermined.
    """
    if t < 1:
        raise ValueError("half-length must be >= 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if q is None:
        q = max(5, (t + 1) // 2)
    if 2 * t > 4 * q:
        raise ValueError(f"2T = {2 * t} taps do not fit in period {4 * q}")

    best = (np.inf, -1, 0, None)  # residual, restart, iterations, even taps
    trace = []
    for restart in range(restarts):
        rng = _restart_rng(seed, restart)
        x0 = rng.standard_normal(t)
        nrm = np.linalg.norm(x0)
        if nrm == 0.0:
            continue
        x0 *= 2.0**-0.5 / nrm
        run = levenberg_marquardt(
            tightness_residual, x0, tol=1e-10, max_iter=500, jac=tightness_jacobian
        )
        res_inf = float(np.max(np.abs(run.residual)))
        trace.append((res_inf, run.iterations))
        if res_inf < best[0]:
            best = (res_inf, restart, run.iterations, run.x)
        if res_inf <= tol:
            break
    res_inf, restart, iterations, even = best
    converged = res_inf <= tol
    taps = signal = None
    if converged:
        taps = interleave_taps(even, flatness_solve_odd(even))
        # no-op within tolerance: the 1/2-targets force unit norm
        taps = taps / np.linalg.norm(taps)
        signal = embed_taps(taps, q)
    return MaxFlatResult(
        converged=converged,
        taps=taps,
        signal=signal,
        residual_inf=res_inf,
        restart=restart,
        iterations=iterations,
        half_taps=t,
        block=q,
        trace=tuple(trace),
    )
