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
"""

from __future__ import annotations

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
    design makes every entry equal to the redundancy R.
    """
    from .polyphase import zak_of, zak_power_rows

    return sys.rate * zak_power_rows(
        zak_of(sys.prototype, sys.rate, sys.redundancy)
    )


# -- max-flat design ----------------------------------------------------------


def _falling_table(t: int, offset: int) -> np.ndarray:
    """T x T table of falling factorials: row k, column p holds
    (2p + offset)!/(2p + offset - k)!, zero when k > 2p + offset."""
    return np.array(
        [[float(math.perm(2 * p + offset, k)) for p in range(t)] for k in range(t)]
    )


def flatness_matrix(t: int) -> np.ndarray:
    """T x T system matrix tying odd taps to even taps.

    Row k states that the k-th derivative of the tap polynomial vanishes
    at 1: sum_p (2p+1)!/(2p+1-k)! phi[2p+1] = -sum_p (2p)!/(2p-k)! phi[2p].
    """
    if t < 1:
        raise ValueError("half-length must be >= 1")
    return _falling_table(t, 1)


def flatness_solve_odd(even) -> np.ndarray:
    """Odd taps completing ``even`` to a maximally flat 2T-tap filter.

    Solved with partially pivoted elimination; raises if the factorial
    system is singular and checks the residual against 1e-10 of the scale.
    """
    even = np.asarray(even, dtype=float)
    if even.ndim != 1 or even.size < 1:
        raise ValueError("even coefficients must be a nonempty vector")
    a = flatness_matrix(even.size)
    b = -_falling_table(even.size, 0) @ even
    try:
        odd = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("flatness system is singular") from exc
    scale = max(1.0, float(np.max(np.abs(b))))
    if float(np.max(np.abs(a @ odd - b))) > 1e-10 * scale:
        raise ValueError("flatness solve residual too large")
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


def _jacobian_cd(fn, x: np.ndarray, step: float) -> np.ndarray:
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
    fd_step: float = 1e-6,
) -> LMResult:
    """Damped least squares on a residual function with a numeric Jacobian.

    The Jacobian uses central differences with step 1e-6 * max(1, |x_j|);
    iteration stops when the residual infinity norm drops below ``tol`` or
    after ``max_iter`` iterations.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(fn(x), dtype=float)
    lam = 1e-3
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.max(np.abs(r))) <= tol:
            break
        jac = _jacobian_cd(fn, x, fd_step)
        jtj = jac.T @ jac
        grad = jac.T @ r
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
    """Outcome of a design run; ``converged`` False is an outcome, not an error."""

    converged: bool
    taps: np.ndarray | None
    signal: Signal | None
    residual_inf: float
    restart: int
    iterations: int
    half_taps: int
    block: int  # Q used for the embedding


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
    squares on the tightness residual.  The first restart whose residual
    infinity norm reaches ``tol`` wins; running out of restarts reports the
    best attempt with ``converged=False``.  Solutions are known to exist
    for even T; odd T generally leaves the residual system overdetermined.
    """
    if t < 1:
        raise ValueError("half-length must be >= 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if q is None:
        q = max(5, (t + 1) // 2)
    if 2 * t > 4 * q:
        raise ValueError(f"2T = {2 * t} taps do not fit in period {4 * q}")

    best = (np.inf, -1, 0)  # residual, restart, iterations
    for restart in range(restarts):
        rng = _restart_rng(seed, restart)
        x0 = rng.standard_normal(t)
        nrm = np.linalg.norm(x0)
        if nrm == 0.0:
            continue
        x0 *= 2.0**-0.5 / nrm
        run = levenberg_marquardt(tightness_residual, x0, tol=1e-10, max_iter=500)
        res_inf = float(np.max(np.abs(run.residual)))
        if res_inf <= tol:
            even = run.x
            taps = interleave_taps(even, flatness_solve_odd(even))
            nrm = np.linalg.norm(taps)
            taps = taps / nrm  # no-op within tolerance: the 1/2-targets force unit norm
            return MaxFlatResult(
                converged=True,
                taps=taps,
                signal=embed_taps(taps, q),
                residual_inf=res_inf,
                restart=restart,
                iterations=run.iterations,
                half_taps=t,
                block=q,
            )
        if res_inf < best[0]:
            best = (res_inf, restart, run.iterations)
    return MaxFlatResult(
        converged=False,
        taps=None,
        signal=None,
        residual_inf=best[0],
        restart=best[1],
        iterations=best[2],
        half_taps=t,
        block=q,
    )
