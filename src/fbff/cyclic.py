"""P-periodic signals as the ring of cyclic polynomials C[z] / <z^P - 1>.

One period of samples is a coefficient vector stored against *negative*
powers: ``samples[p]`` multiplies z^{-p}.  Positive powers fold through the
ring relation z^P = 1, so z itself is the delta at index P - 1, and circular
convolution is the ring product.  Exponent arithmetic is everywhere modulo
the period P.

Evaluating a cyclic polynomial at the P-th roots of unity
z = exp(2 pi j p / P) is a length-P DFT of the coefficient vector; that
evaluation map is the workhorse of every numeric check downstream.  The
module-level functions act along the last axis of coefficient arrays of any
shape, so polynomial matrices share the ring operations of :class:`Signal`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Signal", "CyclicPoly", "ring_product", "twist", "conj_reverse"]

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


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


def conj_reverse(coeffs) -> np.ndarray:
    """Conjugate coefficients and negate exponents along the last axis.

    Evaluations of the result are pointwise conjugates of the original,
    which makes this the entrywise building block of matrix adjoints.
    """
    return np.conj(np.roll(np.asarray(coeffs)[..., ::-1], 1, axis=-1))


def _require_equal_periods(x: Signal, y: Signal) -> None:
    if x.period != y.period:
        raise ValueError(f"period mismatch: {x.period} vs {y.period}")


@dataclass(frozen=True, eq=False)
class Signal:
    """One period of a P-periodic complex sequence, which is also the cyclic
    polynomial sum_p samples[p] z^{-p}.

    Values are immutable; operations return new instances.  Mixing operands
    of different periods raises instead of resizing silently.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be 1-d and nonempty")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def zero(cls, period: int) -> "Signal":
        return cls(np.zeros(period, dtype=complex))

    @classmethod
    def delta(cls, k: int, period: int, scale: complex = 1.0) -> "Signal":
        """``scale`` at sample k mod P: the monomial ``scale * z^{-k}``."""
        s = np.zeros(period, dtype=complex)
        s[k % period] = scale
        return cls(s)

    @property
    def period(self) -> int:
        return self.samples.size

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2)))

    def __add__(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            return NotImplemented
        _require_equal_periods(self, other)
        return Signal(self.samples + other.samples)

    def __sub__(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            return NotImplemented
        _require_equal_periods(self, other)
        return Signal(self.samples - other.samples)

    def __neg__(self) -> "Signal":
        return Signal(-self.samples)

    def __mul__(self, other):
        """Ring product (circular convolution) with a signal, or scaling."""
        if isinstance(other, Signal):
            return Signal(ring_product(self.samples, other.samples))
        if isinstance(other, _SCALARS):
            return Signal(self.samples * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Signal)
            and self.period == other.period
            and bool(np.array_equal(self.samples, other.samples))
        )

    def eval_at_root(self, p: int) -> complex:
        """Value at z = exp(2 pi j p / P), the p-th root of unity."""
        q = np.arange(self.period)
        return complex(np.sum(self.samples * np.exp(-2j * np.pi * p * q / self.period)))

    def eval_all(self) -> np.ndarray:
        """Values at every root of unity; index p holds ``eval_at_root(p)``."""
        return np.fft.fft(self.samples)


# perfbench/tracer.py binds eval_at_root, eval_all and __mul__ as
# "fbff.cyclic:CyclicPoly.<name>"; this alias keeps those bindings alive.
CyclicPoly = Signal
