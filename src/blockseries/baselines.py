"""Classical doubling algorithms: base-case providers and benchmark comparators."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .transform import (
    TransformLedger,
    as_series,
    forward,
    inverse,
    next_supported,
    require_finite,
    require_unit_constant,
)

# Transform-length spans (a, b) of the doubling steps, L = next_supported(a*k + b*k2),
# and the transforms each step performs.
RECIP_SPAN = (3, 0)  # g^2 * f wrapped modulo x^L - 1 is exact above index k
RECIP_STEP_TRANSFORMS = 3  # 2 forward + 1 inverse
SQRT_SPAN = (2, 1)  # f * v^2 has degree < 2k + k2 - 2
SQRT_STEP_TRANSFORMS = 10  # 6 forward + 4 inverse


def doubling_schedule(n: int, span: tuple[int, int]) -> Iterator[tuple[int, int, int]]:
    """Steps (k, k2, length) of a doubling iteration from precision 1 to n.

    Each step extends the precision from k to k2 = min(2k, n) with transforms
    of length next_supported(a*k + b*k2), where span = (a, b).
    """
    a, b = span
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        yield k, k2, next_supported(a * k + b * k2)
        k = k2


def recip_schonhage(f, n: int, ledger: TransformLedger) -> np.ndarray:
    """Series reciprocal by Newton doubling with wrapped products.

    Each doubling step k -> min(2k, n) evaluates g^2 * f modulo x^L - 1 with
    L = next_supported(3k): two forward transforms (f slice and g; the square
    is free in the spectral domain) and one inverse.  The wrapped-around part
    of the product only lands below index k, where the result is already
    known, so indices k..2k-1 come out exact.
    """
    f = as_series(f)
    require_finite(f)
    require_unit_constant(f)
    if n < 1:
        raise ValueError("precision must be >= 1")
    fx = np.zeros(n, dtype=np.complex128)
    fx[: min(len(f), n)] = f[:n]
    g = np.ones(1, dtype=np.complex128)
    for k, k2, length in doubling_schedule(n, RECIP_SPAN):
        fs = forward(fx[:k2], length, ledger)
        gs = forward(g, length, ledger)
        prod = inverse(gs * gs * fs, ledger)
        newg = np.empty(k2, dtype=np.complex128)
        newg[:k] = g
        newg[k:] = -prod[k:k2]
        g = newg
    return g


def sqrt_newton_coupled(f, n: int, ledger: TransformLedger) -> tuple[np.ndarray, np.ndarray]:
    """Series square root and reciprocal square root, extended together.

    Per doubling step the reciprocal root v is extended first with
    v' = v * (3 - f*v^2) / 2, then the root with g' = g + (f - g^2) * v' / 2.
    Returns (g, v) with g^2 = f and g*v = 1 to order n.  Used as the base
    case provider for the blockwise square root, which needs both values.
    """
    f = as_series(f)
    require_finite(f)
    require_unit_constant(f)
    if n < 1:
        raise ValueError("precision must be >= 1")
    fx = np.zeros(n, dtype=np.complex128)
    fx[: min(len(f), n)] = f[:n]
    g = np.ones(1, dtype=np.complex128)
    v = np.ones(1, dtype=np.complex128)
    for k, k2, length in doubling_schedule(n, SQRT_SPAN):
        fs = forward(fx[:k2], length, ledger)
        vs = forward(v, length, ledger)
        fv2 = inverse(vs * vs * fs, ledger)[:k2]
        e = -0.5 * fv2
        e[0] += 1.5
        es = forward(e, length, ledger)
        v = inverse(vs * es, ledger)[:k2]
        gs = forward(g, length, ledger)
        g2 = inverse(gs * gs, ledger)[:k2]
        rs = forward(fx[:k2] - g2, length, ledger)
        vs2 = forward(v, length, ledger)
        upd = inverse(rs * vs2, ledger)[:k2]
        newg = 0.5 * upd
        newg[:k] += g
        g = newg
    return g, v
