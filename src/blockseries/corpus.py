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
