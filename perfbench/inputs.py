"""Seeded workload inputs for the blockseries benchmark.

Every input is built here from the run's seed; the package's own
``corpus.random_series`` / ``random_monic`` are not used.  Their entries are
uniform in [-1/4, 1/4] without normalisation, so the series have zeros near
the unit circle and their square roots overflow to non-finite values at
n >= 2^15 (measured for sqrt and sqrt_rem).  The generators below scale the
tail to l1 norm 1/4 instead, as ``corpus.conditioned_series`` does, which
bounds every output coefficient by 4/3 at any n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCKWISE_OPS = ("sqrt", "recip", "sqrtrem")
DOUBLING_OPS = ("doubling_sqrt", "doubling_recip")
OPS = BLOCKWISE_OPS + DOUBLING_OPS

# Request kinds: "api" calls the library in this process, "cli" runs
# `blockseries compute` as a child process.
API, CLI = "api", "cli"


@dataclass(frozen=True)
class Request:
    """One call the workload issues.

    ``n`` is the output precision, or the half-degree for sqrtrem; ``blocks``
    overrides the block count (None keeps the default plan).
    """

    op: str
    n: int
    f: np.ndarray
    blocks: int | None = None
    kind: str = API


@dataclass(frozen=True)
class Workload:
    """Requests issued in order, cyclically, ``unit`` at a time.

    A run always ends on a unit boundary, so every op has been called the
    same number of times (or, for ``small``, every size of the mix).
    """

    name: str
    requests: tuple[Request, ...]
    unit: int


def conditioned(rng: np.random.Generator, n: int, complex_: bool) -> np.ndarray:
    """Series with constant term 1 and tail l1 norm 1/4."""
    f = np.zeros(n, dtype=np.complex128)
    f[0] = 1.0
    if n > 1:
        tail = rng.uniform(-0.25, 0.25, n - 1)
        if complex_:
            tail = tail + 1j * rng.uniform(-0.25, 0.25, n - 1)
        f[1:] = tail * (0.25 / np.abs(tail).sum())
    return f


def conditioned_monic(rng: np.random.Generator, half_degree: int, complex_: bool) -> np.ndarray:
    """Monic polynomial of degree 2*half_degree: a reversed conditioned series."""
    return conditioned(rng, 2 * half_degree + 1, complex_)[::-1].copy()


def make_request(rng, op: str, n: int, complex_: bool, blocks=None, kind=API) -> Request:
    if op == "sqrtrem":
        f = conditioned_monic(rng, n, complex_)
    else:
        f = conditioned(rng, n, complex_)
    return Request(op, n, f, blocks, kind)


def _rounds(rng, n: int, complex_: bool, blocks: dict, kinds: dict, pool: int) -> list:
    """``pool`` rounds of one request per op, each with a fresh input."""
    return [
        make_request(rng, op, n, complex_, blocks.get(op), kinds.get(op, API))
        for _ in range(pool)
        for op in OPS
    ]


def build(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, sum(name.encode())])
    if name == "large":
        reqs = _rounds(rng, 1 << 18, False, {}, {}, pool=2)
        return Workload(name, tuple(reqs), len(OPS))
    if name == "many_blocks":
        blocks = {"sqrt": 32, "sqrtrem": 32, "recip": 16}
        reqs = _rounds(rng, 1 << 16, True, blocks, {}, pool=2)
        return Workload(name, tuple(reqs), len(OPS))
    if name == "cli_file":
        kinds = {op: CLI for op in BLOCKWISE_OPS}
        reqs = _rounds(rng, 1 << 16, False, {}, kinds, pool=2)
        return Workload(name, tuple(reqs), len(OPS))
    if name == "small":
        reqs = _small_mix(rng)
        return Workload(name, tuple(reqs), len(reqs))
    raise ValueError(f"unknown workload {name!r}")


SMALL_PER_OP = 50


def _small_mix(rng) -> list[Request]:
    """Log-uniform sizes in [64, 4096]: SMALL_PER_OP per op, shuffled.

    The sizes are the midpoints of equal slices of log2(n) in [6, 12], the
    same for every seed, so a run's medians do not move with the seed; the
    seed draws the coefficients and the order of all requests.  Real and
    complex inputs alternate along each op's sizes.
    """
    sizes = np.rint(2.0 ** (6 + 6 * (np.arange(SMALL_PER_OP) + 0.5) / SMALL_PER_OP)).astype(int)
    reqs = [make_request(rng, op, int(n), complex_=bool(i % 2))
            for op in OPS for i, n in enumerate(sizes)]
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


WORKLOADS = ("large", "many_blocks", "small", "cli_file")
