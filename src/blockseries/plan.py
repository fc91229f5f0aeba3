"""Block plans chosen from a transform-cost model that counts the base case.

A blockwise iteration with block parameter k runs on blocks of size
m = next_supported(ceil(n / (u * k))), where u is the number of blocks per
unit of k: 1 for the square root (r = k blocks), 3 for the reciprocal
(3s blocks, s = k).  Its predicted time is the sum of

* its main transforms, exactly 4k - 3 (square root) or 13k - 3 (reciprocal)
  of length 2m, each with a fixed glue cost, counted from schedule(k, m);
* every transform of its length-m doubling base case, each at its own
  length, from base_schedule(m), which the base case's companion
  ``baselines.*_schedule(m)`` builds from the step iterator it runs;
* the spectral accumulation between transforms: k(k-1)/2 (square root) or
  k(9k+1)/2 (reciprocal) multiply-adds of length-2m spectra (m + 1 bins for
  a real series), which grows like k * n.

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

# Cost constants in ns, measured with numpy 2.4 on one thread of a 2-vCPU
# x86-64 VM.  Transforms: the per-call time of forward + inverse pairs at
# every 3-smooth length 2..2^19 (best of six interleaved passes) on the
# package's first, recursive FFT, fitted by least squares on relative error;
# the fixed cost grows with the number of radix stages, and per L * log2(L)
# the 3-part of a length costs 1.4 times the 2-part.  Two engine rewrites
# later they overstate transforms until a refit: the autosort loop takes a
# median 0.8 of the previous loop's time at L = 513..16384 and 0.6-0.7 above
# (CHANGES.md has the per-length times).  The radix-3 and radix-9 levels
# now run as one matrix product each, which took lengths with a 3-part of 9
# or more to 0.3-0.6 of their time, so THREE_FACTOR overstates the 3-part;
# it stays so that no plan moves until the refit.  The 2-part runs in radix-8
# and radix-4 matrix products too, at 0.26-0.80 of the time at 2^a lengths
# and a further median 0.81 at lengths with a radix-4 level, so the
# TRANSFORM_* terms overstate 2-part lengths further; they stay too, so no
# plan moves.  Accumulate: the per-step time of an early per-block loop, at
# block sizes 1..2^16; kept so plans stay as they were until a refit.
# blockwise._accumulate now streams each pair of rows through one multiply
# and one add: about 1.6 us fixed and 2.2 ns per point per step on
# full-width rows (2m = 16..32768, same machine), against the 3.5 us and
# 6.0 ns below, so these overstate the accumulate term about 2.5x, and about
# 5x for a real series, whose caches keep bins 0..m only.
# Glue: the end-to-end time of a block-count sweep (sqrt and recip,
# n = 2^6..2^18, k = 1..max) left over after the terms above, fitted per main
# transform.
TRANSFORM_NS = 3030.0  # fixed cost of one transform call
TRANSFORM_STAGE_NS = 12770.0  # per radix stage of the mixed-radix FFT
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
    schedule: Callable[[int, int], list[tuple[int, str, int]]]  # (k, m) -> main ledger's runs
    accumulate_passes: Callable[[int], int]
    base_schedule: Callable[[int], list[tuple[int, str, int]]]  # m -> base case's runs


SQRT = Scheme(
    unit=1,
    max_blocks=32,
    # g0_inv; then per new block: the previous block, the overshoot, the defect, the update.
    schedule=lambda r, m: [(2 * m, "F", 1), (2 * m, "FIFI", r - 1)],
    accumulate_passes=lambda r: r * (r - 1) // 2,
    base_schedule=baselines.sqrt_newton_coupled_schedule,
)
RECIP = Scheme(
    unit=3,
    max_blocks=16,
    # g0 and the 3s input blocks; division; low defect and fused pass; update.
    schedule=lambda s, m: [(2 * m, "F", 3 * s + 1), (2 * m, "IFIF", s - 1), (2 * m, "IF", 2 * s),
                           (2 * m, "I", 2 * s)],
    accumulate_passes=lambda s: s * (9 * s + 1) // 2,
    base_schedule=baselines.recip_schonhage_schedule,
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
    counts: dict[int, int] = {}  # per length in first-seen order: the sum's order is fixed
    for length, kinds, times in scheme.base_schedule(m):
        counts[length] = counts.get(length, 0) + len(kinds) * times
    return sum(c * transform_ns(length) for length, c in counts.items())


def block_size(scheme: Scheme, n: int, blocks: int) -> int:
    return next_supported(-(-n // (scheme.unit * blocks)))


def predicted_ns(scheme: Scheme, n: int, blocks: int) -> float:
    """Predicted time of the iteration with this block count, base case included."""
    m = block_size(scheme, n, blocks)
    count = 0  # a loop, not a generator: this runs max_blocks times per new n
    for _, kinds, times in scheme.schedule(blocks, m):
        count += len(kinds) * times
    main = count * (transform_ns(2 * m) + GLUE_NS)
    accumulate = scheme.accumulate_passes(blocks) * (ACCUMULATE_NS + ACCUMULATE_POINT_NS * 2 * m)
    return main + base_case_ns(scheme, m) + accumulate


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cheapest_blocks(scheme: Scheme, n: int) -> int:
    return min(range(1, scheme.max_blocks + 1), key=lambda k: predicted_ns(scheme, n, k))


def choose_plan(scheme: Scheme, n: int, blocks: int | None = None) -> BlockPlan:
    """Plan for n coefficients: the cheapest block count, or the given one."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    # Beyond ceil(n / unit) blocks of size 1, every further block is padding.
    limit = -(-n // scheme.unit)
    if blocks is None:
        blocks = _cheapest_blocks(scheme, n)
    elif not 1 <= blocks <= limit:
        raise ValueError(f"block count {blocks} is outside 1..{limit} for {n} coefficients")
    return BlockPlan(n, blocks, block_size(scheme, n, blocks))
