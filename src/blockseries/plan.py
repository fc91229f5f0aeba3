"""Block plans chosen from a transform-cost model that counts the base case.

A blockwise iteration with block parameter k runs on blocks of size
m = next_supported(ceil(n / (u * k))), where u is the number of blocks per
unit of k: 1 for the square root (r = k blocks), 3 for the reciprocal
(3s blocks, s = k).  Its predicted time is the sum of

* its main transforms, exactly 4k - 3 (square root) or 13k - 3 (reciprocal)
  of length 2m, each with a fixed glue cost;
* every transform of its length-m doubling base case, each at its own
  length, read from the schedule that the base case itself runs;
* the spectral accumulation between transforms: k(k-1)/2 (square root) or
  k(9k+1)/2 (reciprocal) multiply-adds of length-2m spectra, which grows
  like k * n.

The default plan scores every k = 1..max_blocks and keeps the cheapest
(the smallest k on ties).  An explicit block count, at most ceil(n / u),
skips the scoring and uses the same block-size rule, so re-planning with a
plan's own block count returns that plan.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from . import baselines
from .transform import next_supported

# Cost constants in ns, measured on this package's radix-4/2/3 FFT with
# numpy 2.4 on one thread of a 2-vCPU x86-64 VM.  Transforms: the per-call
# time of forward + inverse pairs at every 3-smooth length 2..2^19 (best of
# six interleaved passes), fitted by least squares on relative error; the
# fixed cost grows with the recursion depth, and per L * log2(L) the
# 3-part of a length costs 1.4 times the 2-part.  Accumulate: the per-step
# time of _accumulate at block sizes 1..2^16.  Glue: the end-to-end time of
# a block-count sweep (sqrt and recip, n = 2^6..2^18, k = 1..max) left over
# after the terms above, fitted per main transform.
TRANSFORM_NS = 3030.0  # fixed cost of one transform call
TRANSFORM_STAGE_NS = 12770.0  # per recursion stage of the mixed-radix FFT
TRANSFORM_POINT_NS = 6.59  # per L * log2(L) of the 2-part of the length
THREE_FACTOR = 1.40  # per-point cost of the 3-part relative to the 2-part
ACCUMULATE_NS = 3500.0  # fixed cost of one spectral multiply-add
ACCUMULATE_POINT_NS = 6.0  # per point of a length-2m multiply-add
GLUE_NS = 8800.0  # per main transform: block copies and pointwise products

# Bounds on the plan caches; each entry is a small key and one number.
PLAN_CACHE_SIZE = 4096
BASE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class BlockPlan:
    """Chosen precision split: unit * blocks * block_size >= n."""

    n: int
    blocks: int
    block_size: int


@dataclass(frozen=True, eq=False)  # identity hash keeps cached lookups cheap
class Scheme:
    """What the planner knows of one blockwise iteration."""

    unit: int  # blocks per unit of the block parameter
    max_blocks: int
    transforms: Callable[[int], tuple[int, int]]  # (forward, inverse) of length 2m
    accumulate_passes: Callable[[int], int]
    base_span: tuple[int, int]
    base_step_transforms: int


SQRT = Scheme(
    unit=1,
    max_blocks=32,
    transforms=lambda r: (2 * r - 1, 2 * r - 2),
    accumulate_passes=lambda r: r * (r - 1) // 2,
    base_span=baselines.SQRT_SPAN,
    base_step_transforms=baselines.SQRT_STEP_TRANSFORMS,
)
RECIP = Scheme(
    unit=3,
    max_blocks=16,
    transforms=lambda s: (7 * s - 1, 6 * s - 2),
    accumulate_passes=lambda s: s * (9 * s + 1) // 2,
    base_span=baselines.RECIP_SPAN,
    base_step_transforms=baselines.RECIP_STEP_TRANSFORMS,
)


def transform_ns(length: int) -> float:
    """Predicted time of one transform of a supported length."""
    twos = (length & -length).bit_length() - 1
    threes = 0
    rest = length >> twos
    while rest > 1:
        rest //= 3
        threes += 1
    stages = (twos + 1) // 2 + threes
    points = length * (twos + THREE_FACTOR * threes * math.log2(3))
    return TRANSFORM_NS + TRANSFORM_STAGE_NS * stages + TRANSFORM_POINT_NS * points


@lru_cache(maxsize=BASE_CACHE_SIZE)
def base_case_ns(scheme: Scheme, m: int) -> float:
    """Predicted transform time of the length-m doubling base case."""
    steps = baselines.doubling_schedule(m, scheme.base_span)
    return scheme.base_step_transforms * sum(transform_ns(length) for _, _, length in steps)


def block_size(scheme: Scheme, n: int, blocks: int) -> int:
    return next_supported(-(-n // (scheme.unit * blocks)))


def predicted_ns(scheme: Scheme, n: int, blocks: int) -> float:
    """Predicted time of the iteration with this block count, base case included."""
    m = block_size(scheme, n, blocks)
    main = sum(scheme.transforms(blocks)) * (transform_ns(2 * m) + GLUE_NS)
    accumulate = scheme.accumulate_passes(blocks) * (ACCUMULATE_NS + ACCUMULATE_POINT_NS * 2 * m)
    return main + base_case_ns(scheme, m) + accumulate


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cheapest_blocks(scheme: Scheme, n: int) -> int:
    return min(range(1, scheme.max_blocks + 1), key=lambda k: predicted_ns(scheme, n, k))


def choose_plan(scheme: Scheme, n: int, blocks: int | None = None) -> BlockPlan:
    """Plan for precision n: the cheapest block count, or the given one."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    # Beyond ceil(n / unit) blocks of size 1, every further block is padding.
    limit = -(-n // scheme.unit)
    if blocks is None:
        blocks = _cheapest_blocks(scheme, n)
    elif not 1 <= blocks <= limit:
        raise ValueError(f"block count {blocks} is outside 1..{limit} for precision {n}")
    return BlockPlan(n, blocks, block_size(scheme, n, blocks))
