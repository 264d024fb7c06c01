"""Reference answers for the benchmark, computed with numpy alone.

Nothing here imports ``fbff``: the benchmark checks every CLI output against
these functions, so they must not share a line of code with the program
under test.  Banks are held as polyphase coefficient arrays C of shape
(M, N, P): C[m, n, q] is sample m + M q of filter n.  Evaluating at the P-th
roots of unity is one FFT along P, the Gram at each root is E E^H, and its
extreme eigenvalues come from ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import numpy as np

# 4-tap orthonormal pair: a, d = 2^(-5/2) (1 +/- sqrt 3); b, c = 2^(-5/2) (3 -/+ sqrt 3)
_S3 = np.sqrt(3.0)
_DA, _DB = 2.0**-2.5 * (1.0 + _S3), 2.0**-2.5 * (3.0 - _S3)
_DC, _DD = 2.0**-2.5 * (3.0 + _S3), 2.0**-2.5 * (1.0 - _S3)


# -- bank construction ---------------------------------------------------------


def constant(values, period: int) -> np.ndarray:
    """Coefficient array of a matrix whose entries do not depend on z."""
    values = np.asarray(values, dtype=complex)
    out = np.zeros(values.shape + (period,), dtype=complex)
    out[..., 0] = values
    return out


def mercedes_benz(period: int) -> np.ndarray:
    return constant([[1.0, -0.5, -0.5], [0.0, _S3 / 2, -_S3 / 2]], period)


def daubechies4(period: int) -> np.ndarray:
    """Entries c0 + c1 z^-1 of the paraunitary 4-tap pair."""
    out = constant([[_DA, _DD], [_DC, -_DB]], period)
    out[:, :, 1 % period] += np.array([[_DB, _DC], [_DD, -_DA]])
    return out


def ring_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over C[z]/<z^P - 1>, done root by root."""
    fa, fb = np.fft.fft(a, axis=-1), np.fft.fft(b, axis=-1)
    return np.fft.ifft(np.einsum("ikp,kjp->ijp", fa, fb), axis=-1)


def ring_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the ring; row (i0, i1) flattens row-major."""
    fa, fb = np.fft.fft(a, axis=-1), np.fft.fft(b, axis=-1)
    prod = np.einsum("ijp,klp->ikjlp", fa, fb)
    m, n = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return np.fft.ifft(prod.reshape(m, n, -1), axis=-1)


def example5(period: int) -> np.ndarray:
    """The 4-tap pair times the Mercedes-Benz frame (2 x 3)."""
    return ring_product(daubechies4(period), mercedes_benz(period))


def example7(period: int) -> np.ndarray:
    """The 4-tap pair stacked with its quarter-band modulates (2 x 4)."""
    base = daubechies4(period)
    sign = (-1.0) ** np.arange(period)  # z -> -z
    modulated = base * sign * np.array([1.0, 1j])[:, None, None]
    return np.concatenate([base, modulated], axis=1)


NAMED = {
    "mercedes-benz": mercedes_benz,
    "daubechies4": daubechies4,
    "example5": example5,
    "example7": example7,
}


def tensor(names, period: int) -> np.ndarray:
    out = NAMED[names[0]](period)
    for name in names[1:]:
        out = ring_kron(out, NAMED[name](period))
    return out


def paraunitary_chain(units, period: int) -> np.ndarray:
    """Product of the factors (I - u u*) + z u u*, one per unit vector."""
    dim = len(units[0])
    out = constant(np.eye(dim), period)
    for u in units:
        proj = np.outer(u, np.conj(u))
        factor = constant(np.eye(dim) - proj, period)
        factor[:, :, (period - 1) % period] += proj  # z is z^-(P-1)
        out = ring_product(out, factor)
    return out


# -- wire format -----------------------------------------------------------------


def filters_of(coeffs: np.ndarray) -> np.ndarray:
    """(N, M P) filter samples: sample m + M q of filter n is C[m, n, q]."""
    m, n, p = coeffs.shape
    return coeffs.transpose(1, 2, 0).reshape(n, p * m)


def coeffs_of(filters: np.ndarray, m: int) -> np.ndarray:
    n, length = filters.shape
    return filters.reshape(n, length // m, m).transpose(2, 0, 1)


def signal_json(samples) -> dict:
    samples = np.asarray(samples, dtype=complex)
    return {
        "period": int(samples.size),
        "samples": [[float(v.real), float(v.imag)] for v in samples],
    }


def samples_of(obj: dict) -> np.ndarray:
    pairs = np.asarray(obj["samples"], dtype=float).reshape(-1, 2)
    if pairs.shape[0] != obj["period"]:
        raise ValueError("sample count does not match the period")
    return pairs[:, 0] + 1j * pairs[:, 1]


def bank_json(coeffs: np.ndarray) -> dict:
    m, _, p = coeffs.shape
    return {
        "downsample": m,
        "inner_period": p,
        "filters": [signal_json(f) for f in filters_of(coeffs)],
    }


def coeffs_of_json(obj: dict) -> np.ndarray:
    filters = np.stack([samples_of(f) for f in obj["filters"]])
    coeffs = coeffs_of(filters, int(obj["downsample"]))
    if coeffs.shape[2] != obj["inner_period"]:
        raise ValueError("inner_period does not match the filters")
    return coeffs


# -- frame quantities ------------------------------------------------------------


def per_root_bounds(coeffs: np.ndarray) -> np.ndarray:
    """(P, 2) array of the extreme Gram eigenvalues at each root, clipped at 0."""
    e = np.fft.fft(coeffs, axis=-1).transpose(2, 0, 1)
    w = np.linalg.eigvalsh(e @ e.conj().transpose(0, 2, 1))
    return np.maximum(w[:, [0, -1]], 0.0)


def column_norms(coeffs: np.ndarray) -> np.ndarray:
    """(N, P) norms of the evaluated polyphase columns."""
    e = np.fft.fft(coeffs, axis=-1)
    return np.sqrt(np.sum(np.abs(e) ** 2, axis=0))


def is_paraunitary(coeffs: np.ndarray, tol: float = 1e-9) -> bool:
    e = np.fft.fft(coeffs, axis=-1).transpose(2, 0, 1)
    eye = np.eye(coeffs.shape[0])
    return bool(np.max(np.abs(e @ e.conj().transpose(0, 2, 1) - eye)) <= tol)


def frequency_table(filters: np.ndarray, n_samples: int) -> np.ndarray:
    """|response|^2 at omega = 2 pi k / n_samples, shape (N, n_samples)."""
    if filters.shape[1] > n_samples:
        raise ValueError("zero-padded FFT needs n_samples >= filter period")
    return np.abs(np.fft.fft(filters, n=n_samples, axis=1)) ** 2


def zak_row_sums(samples: np.ndarray, m: int, r: int) -> np.ndarray:
    """(M, period / M) grid of sum_r |Zak(m, r)|^2 at every root."""
    comps = samples.reshape(-1, m).T  # component k holds samples k::m
    q = np.arange(comps.shape[1])
    twists = np.exp(2j * np.pi * np.outer(np.arange(r), q) / r)
    ev = np.fft.fft(comps[:, None, :] * twists[None, :, :], axis=-1)
    return np.sum(np.abs(ev) ** 2, axis=1)
