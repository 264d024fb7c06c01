"""Multirate operators and filter banks on periodic complex signals.

A :class:`~fbff.cyclic.Signal` is a P-periodic sequence held as one period
of samples; indexing is modulo P by construction.  All sampling-rate
relations are enforced through divisibility checks: silent period coercion
is the dominant bug class in multirate code, so nothing here ever resizes an
operand for you.

Circular convolution is the product of the ring C[z] / <z^P - 1>.  A filter
bank acts through translate matrices: column k of ``translate_matrix(phi, m)``
is T^{mk} phi, so synthesis is sum_n T_n y_n and analysis is T_n^H x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import Signal, _require_equal_periods, conj_reverse, twist

__all__ = [
    "FilterBank",
    "inner",
    "circ_convolve",
    "upsample",
    "downsample",
    "translate",
    "translate_matrix",
    "modulate",
    "involution",
    "periodize",
    "synthesis_apply",
    "analysis_apply",
    "signal_to_json",
    "signal_from_json",
    "bank_to_json",
    "bank_from_json",
]


def inner(x: Signal, y: Signal) -> complex:
    """Inner product <x, y> = sum_k x[k] conj(y[k])."""
    _require_equal_periods(x, y)
    return complex(np.sum(x.samples * np.conj(y.samples)))


def circ_convolve(x: Signal, h: Signal) -> Signal:
    """Circular convolution (x * h)[k] = sum_{k'} x[k'] h[k - k'] mod P,
    the ring product ``x * h``; ValueError when the periods differ."""
    return x * h


def upsample(y: Signal, m: int) -> Signal:
    """Insert m - 1 zeros between samples; output period is m * P."""
    if m < 1:
        raise ValueError("upsampling factor must be positive")
    out = np.zeros(m * y.period, dtype=complex)
    out[::m] = y.samples
    return Signal(out)


def downsample(x: Signal, m: int) -> Signal:
    """Keep every m-th sample; requires m to divide the period."""
    if m < 1 or x.period % m != 0:
        raise ValueError(f"downsampling factor {m} must divide period {x.period}")
    return Signal(x.samples[::m])


def translate(x: Signal, k: int) -> Signal:
    """Circular shift: result[i] = x[i - k]."""
    return Signal(np.roll(x.samples, k))


def translate_matrix(x: Signal, m: int) -> np.ndarray:
    """The P x (P/m) matrix whose column k is ``translate(x, m * k)``; m | P."""
    p = x.period
    if m < 1 or p % m != 0:
        raise ValueError(f"translation step {m} must divide period {p}")
    return x.samples[(np.arange(p)[:, None] - m * np.arange(p // m)) % p]


def modulate(x: Signal, p: int) -> Signal:
    """Pointwise multiply by the character exp(2 pi j p q / P)."""
    return Signal(twist(x.samples, p, x.period))


def involution(x: Signal) -> Signal:
    """Conjugate time-reversal; turns convolution into correlation."""
    return Signal(conj_reverse(x.samples))


def periodize(x: Signal, target_period: int) -> Signal:
    """Fold a signal onto a divisor period by summing translated copies."""
    if target_period < 1 or x.period % target_period != 0:
        raise ValueError(
            f"target period {target_period} must divide period {x.period}"
        )
    return Signal(x.samples.reshape(-1, target_period).sum(axis=0))


@dataclass(frozen=True, eq=False)
class FilterBank:
    """N filters of common period M * P with downsampling rate M.

    Synthesis maps N inputs of period P to one signal of period M * P;
    analysis is its adjoint.
    """

    filters: tuple[Signal, ...]
    downsample: int

    def __post_init__(self) -> None:
        filters = tuple(self.filters)
        object.__setattr__(self, "filters", filters)
        if len(filters) < 1:
            raise ValueError("a filter bank needs at least one channel")
        if self.downsample < 1:
            raise ValueError("downsampling rate must be positive")
        period = filters[0].period
        if any(f.period != period for f in filters):
            raise ValueError("all filters must share one period")
        if period % self.downsample != 0:
            raise ValueError(
                f"downsampling rate {self.downsample} must divide filter period {period}"
            )

    @property
    def n_channels(self) -> int:
        return len(self.filters)

    @property
    def filter_period(self) -> int:
        return self.filters[0].period

    @property
    def inner_period(self) -> int:
        return self.filter_period // self.downsample


def synthesis_apply(fb: FilterBank, inputs) -> Signal:
    """Synthesize: sum_n T_n y_n, T_n the M-translate matrix of filter n."""
    inputs = list(inputs)
    if len(inputs) != fb.n_channels:
        raise ValueError(f"expected {fb.n_channels} inputs, got {len(inputs)}")
    p = fb.inner_period
    if any(y.period != p for y in inputs):
        raise ValueError(f"inputs must have period {p}")
    return Signal(
        sum(
            translate_matrix(phi, fb.downsample) @ y.samples
            for phi, y in zip(fb.filters, inputs)
        )
    )


def analysis_apply(fb: FilterBank, x: Signal) -> list[Signal]:
    """Analyze: channel n output is T_n^H x, T_n as in :func:`synthesis_apply`.

    Sample p of channel n equals the frame coefficient <x, T^{Mp} filter_n>;
    this map is the adjoint of :func:`synthesis_apply`.
    """
    if x.period != fb.filter_period:
        raise ValueError(f"input period {x.period} != filter period {fb.filter_period}")
    return [
        Signal(translate_matrix(phi, fb.downsample).conj().T @ x.samples)
        for phi in fb.filters
    ]


# -- JSON wire format ---------------------------------------------------------
#
# signal: {"period": P, "samples": [[re, im], ...]}
# bank:   {"downsample": M, "inner_period": P, "filters": [<signal>, ...]}


def signal_to_json(x: Signal) -> dict:
    return {
        "period": x.period,
        "samples": np.stack([x.samples.real, x.samples.imag], axis=-1).tolist(),
    }


def _fields(obj, kind: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in a JSON object; ValueError if any is missing."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise ValueError(f"{kind} must be an object with keys {', '.join(keys)}")
    return [obj[k] for k in keys]


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def signal_from_json(obj: dict) -> Signal:
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
    return Signal(arr[:, 0] + 1j * arr[:, 1])


def bank_to_json(fb: FilterBank) -> dict:
    return {
        "downsample": fb.downsample,
        "inner_period": fb.inner_period,
        "filters": [signal_to_json(f) for f in fb.filters],
    }


def bank_from_json(obj: dict) -> FilterBank:
    m, p, filters = _fields(obj, "bank", ("downsample", "inner_period", "filters"))
    m = _integer(m, "downsample")
    p = _integer(p, "inner_period")
    if not isinstance(filters, list):
        raise ValueError("filters must be a list of signals")
    fb = FilterBank(tuple(signal_from_json(f) for f in filters), m)
    if fb.inner_period != p:
        raise ValueError(
            f"inner_period {p} inconsistent with filters of period {fb.filter_period}"
        )
    return fb
