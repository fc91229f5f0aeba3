"""Classical doubling algorithms: base-case providers and benchmark comparators.

Both routines double the precision k -> min(2k, n) with wrapped products, so
each step costs two forward transforms and one inverse at a length of about
3k (reciprocal) or 4k (square root); see Bernstein, "Removing redundancy in
high-precision Newton iteration" (2004), and Hanrot and Zimmermann, "Newton
iteration revisited" (2004).  Each routine has a companion ``*_schedule(n)``
that states, from the same step iterator, the ordered ledger record the
routine produces; the planner prices it and the checks hold it against the
ledger.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .transform import TransformLedger, as_unit_series, forward, inverse, next_supported


def _doubling_steps(n: int, a: int, b: int) -> Iterator[tuple[int, int, int]]:
    """Steps (k, k2, length) from precision 1 to n: k2 = min(2k, n) and the
    step's transforms have length next_supported(a*k + b*k2)."""
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        yield k, k2, next_supported(a * k + b * k2)
        k = k2


def _recip_steps(n: int) -> Iterator[tuple[int, int, int]]:
    return _doubling_steps(n, 3, 0)  # f*g^2 wraps only below index k


def _rsqrt_steps(n: int) -> Iterator[tuple[int, int, int]]:
    return _doubling_steps(n, 2, 1)  # f*v^3 wraps only below index k


def recip_schonhage_schedule(n: int) -> list[tuple[int, str, int]]:
    """The ledger record of recip_schonhage(f, n), as runs for TransformLedger.of."""
    return [(length, "FFI", 1) for _, _, length in _recip_steps(n)]


def recip_schonhage(f, n: int, ledger: TransformLedger) -> np.ndarray:
    """Series reciprocal by Newton doubling with wrapped products.

    Each doubling step k -> min(2k, n) evaluates g^2 * f modulo x^L - 1 with
    L = next_supported(3k): two forward transforms (f slice and g; the square
    is free in the spectral domain) and one inverse.  The wrapped-around part
    of the product only lands below index k, where the result is already
    known, so indices k..2k-1 come out exact.
    """
    f = as_unit_series(f)
    if n < 1:
        raise ValueError("precision must be >= 1")
    fx = np.zeros(n, dtype=np.complex128)
    fx[: min(len(f), n)] = f[:n]
    g = np.ones(1, dtype=np.complex128)
    for k, k2, length in _recip_steps(n):
        fs = forward(fx[:k2], length, ledger)
        gs = forward(g, length, ledger)
        prod = inverse(gs * gs * fs, ledger)
        newg = np.empty(k2, dtype=np.complex128)
        newg[:k] = g
        newg[k:] = -prod[k:k2]
        g = newg
    return g


def sqrt_newton_coupled_schedule(n: int) -> list[tuple[int, str, int]]:
    """The ledger record of sqrt_newton_coupled(f, n), as runs for TransformLedger.of."""
    runs = [(length, "FFI", 1) for _, _, length in _rsqrt_steps(n)]
    if runs:
        runs.append((runs[-1][0], "FI", 1))  # g = f*v at the last step's length
    return runs


def sqrt_newton_coupled(f, n: int, ledger: TransformLedger) -> tuple[np.ndarray, np.ndarray]:
    """Series square root g and its reciprocal v = 1/g, to n coefficients.

    Newton doubling on the reciprocal square root, v' = v * (3 - f*v^2) / 2.
    With v exact to k coefficients, v' agrees with v below k, and above k it
    is -(f*v^3)/2.  Each step k -> k2 = min(2k, n) therefore evaluates
    f[:k2] * v^3 modulo x^L - 1 with L = next_supported(2k + k2): one forward
    transform each of the f slice and of v (the cube is free in the spectral
    domain) and one inverse.  The product has degree < k2 + 3k - 3, so its
    wrapped-around part lands below index k and indices k..k2-1 are exact.
    The last step transforms all of f at L = next_supported(2k + n) >= 2n,
    so the full product g = f*v to n coefficients reuses that spectrum: one
    forward transform of v and one inverse at L.  Returns (g, v) with
    g^2 = f and g*v = 1 to order n; the blockwise square root takes both
    from its base case.
    """
    f = as_unit_series(f)
    if n < 1:
        raise ValueError("precision must be >= 1")
    fx = np.zeros(n, dtype=np.complex128)
    fx[: min(len(f), n)] = f[:n]
    v = np.ones(1, dtype=np.complex128)
    if n == 1:
        return v, v.copy()
    for k, k2, length in _rsqrt_steps(n):
        fs = forward(fx[:k2], length, ledger)
        vs = forward(v, length, ledger)
        w = inverse(fs * (vs * vs * vs), ledger)
        newv = np.empty(k2, dtype=np.complex128)
        newv[:k] = v
        newv[k:] = -0.5 * w[k:k2]
        v = newv
    # The last step had k2 = n, so fs is the spectrum of all of f at length.
    # Its other spectra are freed first, so the product can reuse their memory.
    del vs, w
    g = inverse(fs * forward(v, length, ledger), ledger)[:n]
    return g, v
