"""Arithmetic in the ring of cyclic polynomials C[z] / <z^P - 1>.

Coefficients are stored against *negative* powers: ``coeffs[p]`` multiplies
z^{-p}.  Positive powers fold through the ring relation z^P = 1, so z itself
is the monomial at index P - 1.  Exponent arithmetic is everywhere modulo
the period P.

Evaluating a cyclic polynomial at the P-th roots of unity
z = exp(2 pi j p / P) is a length-P DFT of the coefficient vector; that
evaluation map is the workhorse of every numeric check downstream.  The
module-level functions act along the last axis of coefficient arrays of any
shape, so polynomial matrices share the ring operations of :class:`CyclicPoly`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CyclicPoly", "ring_product", "twist", "conj_reverse"]

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
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"period mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    shifts_a, shifts_b = (
        np.flatnonzero(np.any(x != 0, axis=tuple(range(x.ndim - 1)))) for x in (a, b)
    )
    out = combine(np.zeros_like(a), np.zeros_like(b))
    if shifts_a.size <= shifts_b.size:
        for s in shifts_a:
            out += combine(a[..., s : s + 1], np.roll(b, s, axis=-1))
    else:
        for s in shifts_b:
            out += combine(np.roll(a, s, axis=-1), b[..., s : s + 1])
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


@dataclass(frozen=True, eq=False)
class CyclicPoly:
    """A complex polynomial with exponents modulo its period.

    Values are immutable; operations return new instances.  Mixing operands
    of different periods raises instead of resizing silently.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient vector must be 1-d and nonempty")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, period: int) -> "CyclicPoly":
        return cls(np.zeros(period, dtype=complex))

    @classmethod
    def constant(cls, value: complex, period: int) -> "CyclicPoly":
        c = np.zeros(period, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def monomial(cls, p: int, period: int, scale: complex = 1.0) -> "CyclicPoly":
        """The monomial ``scale * z^{-p}``, with p taken modulo the period."""
        c = np.zeros(period, dtype=complex)
        c[p % period] = scale
        return cls(c)

    @property
    def period(self) -> int:
        return self.coeffs.size

    # -- ring operations ----------------------------------------------------

    def _require_same_period(self, other: "CyclicPoly") -> None:
        if self.period != other.period:
            raise ValueError(f"period mismatch: {self.period} vs {other.period}")

    def __add__(self, other: "CyclicPoly") -> "CyclicPoly":
        if not isinstance(other, CyclicPoly):
            return NotImplemented
        self._require_same_period(other)
        return CyclicPoly(self.coeffs + other.coeffs)

    def __sub__(self, other: "CyclicPoly") -> "CyclicPoly":
        if not isinstance(other, CyclicPoly):
            return NotImplemented
        self._require_same_period(other)
        return CyclicPoly(self.coeffs - other.coeffs)

    def __neg__(self) -> "CyclicPoly":
        return CyclicPoly(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CyclicPoly):
            return CyclicPoly(ring_product(self.coeffs, other.coeffs))
        if isinstance(other, _SCALARS):
            return CyclicPoly(self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        return self * other if isinstance(other, _SCALARS) else NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicPoly)
            and self.period == other.period
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    # -- evaluation and symmetries -------------------------------------------

    def eval_at_root(self, p: int) -> complex:
        """Value at z = exp(2 pi j p / P), the p-th root of unity."""
        q = np.arange(self.period)
        return complex(np.sum(self.coeffs * np.exp(-2j * np.pi * p * q / self.period)))

    def eval_all(self) -> np.ndarray:
        """Values at every root of unity; index p holds ``eval_at_root(p)``."""
        return np.fft.fft(self.coeffs)

    def twist(self, r: int, R: int) -> "CyclicPoly":
        """Substitute z -> exp(-2 pi j r / R) z.  Requires R | P."""
        return CyclicPoly(twist(self.coeffs, r, R))

    def conj_reverse(self) -> "CyclicPoly":
        """Conjugate coefficients and negate exponents; see :func:`conj_reverse`."""
        return CyclicPoly(conj_reverse(self.coeffs))
