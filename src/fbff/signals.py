"""Multirate operators and filter banks on periodic complex signals.

A P-periodic signal is one period of samples, a 1-D complex array; indexing
is modulo P by construction.  Sampling-rate relations are divisibility
checks: silent period coercion is the dominant bug class in multirate code,
so nothing here ever resizes an operand for you.

A :class:`FilterBank` holds one read-only complex buffer, viewed as its
(N, M P) sample stack ``samples``, row n filter n, and as its (M, N, P)
polyphase matrix ``coeffs``.  :func:`translate_matrix` alone lays out
translates, as a read-only strided view of the doubled samples whose column
k is T^{mk} phi; every time-domain operator takes one per bank, leaf or
prototype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import ring_product

__all__ = [
    "FilterBank",
    "circ_convolve",
    "upsample",
    "translate_matrix",
    "signal_to_json",
    "signal_from_json",
    "bank_to_json",
    "bank_from_json",
]


def circ_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Circular convolution (x * h)[k] = sum_{k'} x[k'] h[k - k'] mod P of two
    sample arrays, their ring product; ValueError when the periods differ."""
    return ring_product(x, h)


def upsample(y: np.ndarray, m: int) -> np.ndarray:
    """Insert m - 1 zeros between samples along the last axis of an array of
    signals; output period is m * P."""
    if m < 1:
        raise ValueError("upsampling factor must be positive")
    out = np.zeros((*y.shape[:-1], m * y.shape[-1]), dtype=complex)
    out[..., ::m] = y
    return out


def translate_matrix(x: np.ndarray, m: int) -> np.ndarray:
    """A read-only view of the array ``x`` of P rows doubled, whose slice
    ``[..., k]`` is ``x`` rolled by m k along axis 0, m | P: for one signal's
    samples, the P x (P/m) matrix whose column k is T^{mk} x."""
    p = len(x)
    if m < 1 or p % m != 0:
        raise ValueError(f"translation step {m} must divide period {p}")
    doubled = np.concatenate([x, x])  # [i, ..., k] below reads its row P + i - m k
    doubled.setflags(write=False)  # so the view is read-only too
    s = doubled.strides  # numpy checks the view against doubled's bounds
    return np.ndarray((*x.shape, p // m), x.dtype, doubled, p * s[0], (*s, -m * s[0]))


@dataclass(frozen=True, eq=False, init=False)
class FilterBank:
    """N filters of period M * P at downsampling rate M in one read-only complex
    buffer: the (N, M * P) sample stack ``samples``, row n filter n, and its view
    the (M, N, P) polyphase array ``coeffs``: sample M q + m of filter n is [m, n, q]."""

    coeffs: np.ndarray
    samples: np.ndarray

    def __init__(self, samples, downsample: int) -> None:
        """The bank whose sample stack is a copy of the (N, M * P) array-like ``samples``."""
        samples = np.array(samples, dtype=complex)
        if samples.shape[:1] == (0,):
            raise ValueError("a filter bank needs at least one channel")
        if samples.ndim != 2 or not samples.shape[1]:
            raise ValueError(f"need an (N, M * P) sample stack, got shape {samples.shape}")
        n, period = samples.shape
        if downsample < 1:
            raise ValueError("downsampling rate must be positive")
        if period % downsample != 0:
            raise ValueError(f"downsampling rate {downsample} must divide filter period {period}")
        samples.setflags(write=False)  # and so its view coeffs
        coeffs = samples.reshape(n, -1, downsample).transpose(2, 0, 1)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_coeffs(cls, coeffs) -> "FilterBank":
        """The bank whose polyphase matrix is a copy of the (M, N, P) array-like ``coeffs``."""
        arr = np.asarray(coeffs)
        if arr.ndim != 3 or 0 in arr.shape:
            raise ValueError(f"need an (M, N, P) array with M, N, P >= 1, got {arr.shape}")
        return cls(arr.transpose(1, 2, 0).reshape(arr.shape[1], -1), len(arr))

    @property
    def downsample(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.coeffs.shape[1]

    @property
    def inner_period(self) -> int:
        return self.coeffs.shape[2]

    @property
    def filter_period(self) -> int:
        return self.downsample * self.inner_period


# -- JSON wire format ---------------------------------------------------------
#
# signal: {"period": P, "samples": [[re, im], ...]}
# bank:   {"downsample": M, "inner_period": P, "filters": [<signal>, ...]}
#
# An (N, P) stack of rows is written as the list of its N signal objects.


def signal_to_json(x: np.ndarray) -> list[dict]:
    """The list of the signal objects of an (N, P) stack of rows; every
    [re, im] pair comes from one ``tolist``."""
    pairs = np.stack([x.real, x.imag], axis=-1).tolist()
    return [{"period": x.shape[-1], "samples": row} for row in pairs]


def _fields(obj, kind: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in a JSON object; ValueError if any is missing."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise ValueError(f"{kind} must be an object with keys {', '.join(keys)}")
    return [obj[k] for k in keys]


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def signal_from_json(obj: dict) -> np.ndarray:
    period, pairs = _fields(obj, "signal", ("period", "samples"))
    period = _integer(period, "period")
    try:
        arr = np.array(pairs)
        ok = arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "iuf"
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValueError("samples must be a list of [re, im] number pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if arr.shape[0] != period:
        raise ValueError(f"sample count {arr.shape[0]} != period {period}")
    return arr[:, 0] + 1j * arr[:, 1]


def bank_to_json(fb: FilterBank) -> dict:
    return {
        "downsample": fb.downsample,
        "inner_period": fb.inner_period,
        "filters": signal_to_json(fb.samples),
    }


def bank_from_json(obj: dict) -> FilterBank:
    m, p, filters = _fields(obj, "bank", ("downsample", "inner_period", "filters"))
    m = _integer(m, "downsample")
    p = _integer(p, "inner_period")
    if not isinstance(filters, list):
        raise ValueError("filters must be a list of signals")
    stack = [signal_from_json(f) for f in filters]
    if len({row.size for row in stack}) > 1:
        raise ValueError("all filters must share one period")
    fb = FilterBank(stack, m)
    if fb.inner_period != p:
        raise ValueError(f"inner_period {p} inconsistent with filters of period {fb.filter_period}")
    return fb
