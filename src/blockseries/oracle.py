"""Slow reference implementations used to generate expected test values.

Everything here is direct O(n^2) coefficient arithmetic.  This module shares
no FFT code with the rest of the package and never touches a transform
ledger, so agreement with it is an independent check.
"""

from __future__ import annotations

import numpy as np


def _as_series(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 1:
        raise ValueError("coefficient sequence must be one-dimensional")
    return f


def _require_unit_constant(f: np.ndarray) -> None:
    if len(f) == 0 or abs(f[0] - 1.0) > 1e-9:
        raise ValueError("series must have constant term 1")


def mul_schoolbook(f, g) -> np.ndarray:
    """Exact convolution; result length len(f) + len(g) - 1 (empty if either is)."""
    f = _as_series(f)
    g = _as_series(g)
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.complex128)
    return np.convolve(f, g)


def sqrt_recurrence(f, n: int) -> np.ndarray:
    """Series square root with constant term 1, coefficient by coefficient.

    Solves g0^2 = f0, 2 g0 g1 = f1, 2 g0 g2 = f2 - g1^2, ... sequentially.
    """
    f = _as_series(f)
    _require_unit_constant(f)
    if n < 1:
        raise ValueError("precision must be >= 1")
    fx = np.zeros(n, dtype=np.complex128)
    fx[: min(len(f), n)] = f[:n]
    g = np.zeros(n, dtype=np.complex128)
    g[0] = 1.0
    for k in range(1, n):
        cross = np.dot(g[1:k], g[k - 1:0:-1]) if k >= 2 else 0.0
        g[k] = 0.5 * (fx[k] - cross)
    return g


def recip_recurrence(f, n: int) -> np.ndarray:
    """Series reciprocal via g_k = -sum_{i=1..k} f_i g_{k-i}, g_0 = 1."""
    f = _as_series(f)
    _require_unit_constant(f)
    if n < 1:
        raise ValueError("precision must be >= 1")
    fx = np.zeros(n, dtype=np.complex128)
    fx[: min(len(f), n)] = f[:n]
    g = np.zeros(n, dtype=np.complex128)
    g[0] = 1.0
    for k in range(1, n):
        g[k] = -np.dot(fx[1 : k + 1], g[k - 1 :: -1])
    return g
