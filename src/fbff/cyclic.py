"""P-periodic signals as the ring of cyclic polynomials C[z] / <z^P - 1>.

One period of samples is a coefficient vector stored against *negative*
powers: ``samples[p]`` multiplies z^{-p}.  Positive powers fold through the
ring relation z^P = 1, so z itself is the delta at index P - 1, and circular
convolution is the ring product.  Exponent arithmetic is everywhere modulo
the period P.

Evaluating a cyclic polynomial at the P-th roots of unity
z = exp(2 pi j p / P) is a length-P DFT of the coefficient vector; that
evaluation map is the workhorse of every numeric check downstream.  All roots
are one FFT; one root reads a cached, read-only row of its P powers, gathered
from a table of the P roots at the integer exponents q p mod P, never a phase
from the float product p q.  The module-level functions act along the last
axis of coefficient arrays of any shape, so a polynomial matrix is one
coefficient array, multiplied by :func:`ring_product`; :class:`Signal` only
evaluates one polynomial at the roots of unity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["Signal", "CyclicPoly", "ring_product", "twist"]


def ring_product(a, b, combine=np.multiply) -> np.ndarray:
    """Ring product of two coefficient arrays, exact for monomial operands.

    ``combine`` is a bilinear map on the leading axes that broadcasts over
    the last one (entrywise by default; matrix or Kronecker products for
    polynomial matrices).  The sum of combine(a_s, z^{-s} b) runs one shift
    s at a time over the nonzero coefficients of the sparser operand, so a
    constant or monomial operand costs one exact term, and no P x P
    circulant is ever formed.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p = a.shape[-1]
    if b.shape[-1] != p:
        raise ValueError(f"period mismatch: {p} vs {b.shape[-1]}")
    shifts_a, shifts_b = (
        np.flatnonzero((x != 0).reshape(-1, p).any(axis=0)) for x in (a, b)
    )
    if shifts_a.size > shifts_b.size:  # loop over the sparser operand
        return ring_product(b, a, lambda x, y: combine(y, x))
    out = combine(np.zeros_like(a), np.zeros_like(b))
    twice = np.concatenate([b, b], axis=-1)  # z^{-s} b is twice[..., p - s : 2p - s]
    for s in shifts_a:
        out += combine(a[..., s : s + 1], twice[..., p - s : 2 * p - s])
    return out


def twist(coeffs, r: int, R: int) -> np.ndarray:
    """Substitute z -> exp(-2 pi j r / R) z along the last axis.  Requires R | P."""
    coeffs = np.asarray(coeffs, dtype=complex)
    period = coeffs.shape[-1]
    if R <= 0 or period % R != 0:
        raise ValueError(f"twist order {R} must divide period {period}")
    return coeffs * np.exp(2j * np.pi * r * np.arange(period) / R)


@functools.cache
def _roots_of_unity(period: int) -> np.ndarray:
    """exp(-2 pi j k / P) for k < P, each within a few ulps.  Cached per P, read-only."""
    roots = np.exp(-2j * np.pi * np.arange(period) / period)
    roots.flags.writeable = False
    return roots


@functools.lru_cache(maxsize=4)
def _root_powers(period: int, r: int) -> np.ndarray:
    """z^{-q} for q < P at the r-th root z: the root table read at the integer
    exponents q r mod P.  Cached one row per (P, r), never a P x P table; read-only."""
    row = _roots_of_unity(period)[np.arange(period) * r % period]
    row.flags.writeable = False
    return row


@dataclass(frozen=True, eq=False)
class Signal:
    """One period of a P-periodic complex sequence, which is also the cyclic
    polynomial sum_p samples[p] z^{-p}, held read-only for evaluation at the
    roots of unity; the product of two is :func:`ring_product` of their samples.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be 1-d and nonempty")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def period(self) -> int:
        return self.samples.size

    def __mul__(self, other: "Signal") -> "Signal":
        """Ring product (circular convolution); ValueError when the periods differ."""
        return Signal(ring_product(self.samples, other.samples))

    def eval_at_root(self, p: int) -> complex:
        """Value at z = exp(2 pi j p / P), the p-th root of unity, for any integer p:
        the samples against a cached, read-only row of that root's powers."""
        # ndarray.dot gives the bits of @ with less overhead per call
        return complex(self.samples.dot(_root_powers(self.period, p % self.period)))

    def eval_all(self) -> np.ndarray:
        """Values at every root of unity; index p holds ``eval_at_root(p)``."""
        return np.fft.fft(self.samples)


# perfbench/tracer.py binds eval_at_root, eval_all and __mul__ as
# "fbff.cyclic:CyclicPoly.<name>"; this alias keeps those bindings alive.
CyclicPoly = Signal
