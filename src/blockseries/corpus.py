"""Seeded input generators shared by the benchmarks and the test suites.

All generators use numpy's PCG64 so a (generator name, seed) pair pins the
input exactly.
"""

from __future__ import annotations

import numpy as np

RNG_NAME = "pcg64"


def random_series(seed: int, n: int) -> np.ndarray:
    """Series with constant term 1 and entries uniform in [-1/4, 1/4]."""
    if n < 1:
        raise ValueError(f"series length must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    f = np.zeros(n, dtype=np.complex128)
    f[0] = 1.0
    if n > 1:
        f[1:] = rng.uniform(-0.25, 0.25, n - 1)
    return f


def conditioned_series(seed: int, n: int) -> np.ndarray:
    """Well-conditioned series for absolute-tolerance oracle comparisons.

    Entries are drawn uniform in [-1/4, 1/4] and the tail is then scaled to
    l1 norm 1/4, which keeps every entry inside [-1/4, 1/4] and bounds the
    coefficients of both the reciprocal and the square root by 4/3.  Without
    the scaling a random polynomial typically has a zero close to the unit
    circle and the output coefficients grow exponentially, swamping any
    fixed absolute tolerance at large n.
    """
    f = random_series(seed, n)
    if n > 1:
        l1 = np.abs(f[1:]).sum()
        if l1 > 0:
            f[1:] *= 0.25 / l1
    return f


def conditioned_monic(seed: int, degree: int) -> np.ndarray:
    """Monic polynomial of even degree whose reversal is a conditioned series.

    The square root with remainder works on the reversal, so its root stays
    bounded at any degree, unlike that of random_monic.
    """
    if degree < 2 or degree % 2:
        raise ValueError("degree must be even and >= 2")
    return conditioned_series(seed, degree + 1)[::-1].copy()


def random_monic(seed: int, degree: int) -> np.ndarray:
    """Monic polynomial of the given even degree, lower entries in [-1/4, 1/4]."""
    if degree < 2 or degree % 2:
        raise ValueError("degree must be even and >= 2")
    rng = np.random.default_rng(seed)
    f = np.empty(degree + 1, dtype=np.complex128)
    f[:degree] = rng.uniform(-0.25, 0.25, degree)
    f[degree] = 1.0
    return f


def sparse_dyadic_square(
    seed: int, n: int, terms: int = 8, keep: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) with g = 1 + a few +-2^-10 x^j, 0 < j < n, and f = g^2 to keep
    coefficients (default n).

    Every coefficient of g^2 is a short sum of dyadic numbers far from 2^52,
    so f is exact in floating point and g is the exact square root.
    """
    rng = np.random.default_rng(seed)
    terms = min(terms, n - 1)
    pos = rng.choice(np.arange(1, n), terms, replace=False)
    g = np.zeros(n)
    g[0] = 1.0
    g[pos] = rng.choice([-1.0, 1.0], terms) * 2.0**-10
    keep = n if keep is None else keep
    f = np.zeros(keep)
    support = np.flatnonzero(g)
    for i in support:
        for j in support[support < keep - i]:
            f[i + j] += g[i] * g[j]
    return f, g


def sparse_dyadic_split(
    seed: int, half_degree: int, terms: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, g, rem): monic f of degree 2n equal to g^2 + rem exactly.

    g is monic of degree n with a few +-2^-10 coefficients below the leading
    one, and rem has degree < n with `terms` entries +-2^-10.  As in
    sparse_dyadic_square, every coefficient of f is exact in floating point,
    so (g, rem) is the exact split that sqrt_rem must return.
    """
    n = half_degree
    square, root = sparse_dyadic_square(seed, n + 1, terms, keep=2 * n + 1)
    rng = np.random.default_rng([seed, 1])
    count = min(terms, n)
    rem = np.zeros(n)
    rem[rng.choice(n, count, replace=False)] = rng.choice([-1.0, 1.0], count) * 2.0**-10
    f = square[::-1].copy()
    f[:n] += rem
    return f, root[::-1].copy(), rem
