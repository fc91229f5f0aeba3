"""Blockwise power-series square root and polynomial square root with remainder.

The block iteration extends a length-m base-case root one block at a time.
With the spectra of previously computed blocks cached, iteration k costs two
forward and two inverse transforms of length 2m: one inverse for the
overshoot block of the square of the partial result, one forward for that
overshoot's correction, plus one forward for the newest root block and one
inverse for the update product.  Over `blocks` blocks the total is exactly
4*blocks - 3 transforms (2(blocks-1)+1 forward, 2(blocks-1) inverse) beyond
the base case.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import baselines
from .blockwise import BlockSeries, TransformCache, decompose, product_block
from .plan import SQRT, BlockPlan, choose_plan
from .transform import (
    TransformLedger,
    as_series,
    forward,
    inverse,
    pointwise_mul,
    require_unit_constant,
)


def choose_params(n: int, blocks_override: int | None = None) -> BlockPlan:
    """Block count r and supported block size m, r * m >= n (see plan.py)."""
    return choose_plan(SQRT, n, blocks_override)


def rem_params(n: int, blocks_override: int | None = None) -> BlockPlan:
    """Plan of sqrt_rem at half-degree n: the square-root plan for n + 1
    coefficients, its block count shrunk so only the last block carries padding."""
    plan = choose_params(n + 1, blocks_override)
    return replace(plan, blocks=min(plan.blocks, -(-(n + 1) // plan.block_size)))


def _sqrt_blocks(
    f: BlockSeries,
    g0,
    g0_inv,
    blocks: int,
    ledger: TransformLedger,
) -> tuple[BlockSeries, TransformCache]:
    """Run the block iteration, returning the root blocks and their cache.

    The returned cache holds spectra for blocks 0..blocks-2 (the final block's
    spectrum is never needed by the iteration itself).
    """
    m = f.block_size
    if blocks < 1:
        raise ValueError("block count must be >= 1")
    if f.num_blocks < blocks:
        raise ValueError(f"need {blocks} input blocks, have {f.num_blocks}")
    g0 = as_series(g0)
    g0_inv = as_series(g0_inv)
    if len(g0) != m or len(g0_inv) != m:
        raise ValueError("base-case blocks must match the block size")

    inv_spec = forward(g0_inv, 2 * m, ledger)
    root = BlockSeries(m)
    root.append(g0)
    cache = TransformCache(root)
    for k in range(1, blocks):
        cache.ensure(k - 1, ledger)
        # Overshoot of the partial square into block k; the new block must
        # cancel it against the input block.
        excess = product_block(cache, cache, k, ledger)
        defect = f.blocks[k] - excess
        defect_spec = forward(defect, 2 * m, ledger)
        # g0_inv * defect has degree < 2m - 1, so the cyclic product is exact.
        upd = inverse(pointwise_mul(inv_spec, defect_spec), ledger)
        root.append(0.5 * upd[:m])
    return root, cache


def sqrt_block_iter(
    f: BlockSeries, g0, g0_inv, blocks: int, ledger: TransformLedger
) -> np.ndarray:
    """Square root of f to blocks*m coefficients from a length-m base case.

    g0 is the square root of f's first block and g0_inv its reciprocal, both
    to m coefficients; the input's constant term must be 1.  Adds exactly
    4*blocks - 3 length-2m transforms to the ledger.
    """
    root, _ = _sqrt_blocks(f, g0, g0_inv, blocks, ledger)
    return root.recompose()


def sqrt(
    f,
    n: int,
    ledger: TransformLedger,
    *,
    blocks: int | None = None,
    base_ledger: TransformLedger | None = None,
) -> np.ndarray:
    """Square root of a series with constant term 1, to n coefficients.

    Base-case transforms are counted in base_ledger (a private one if not
    given), keeping the main ledger's 4*blocks - 3 count exact.
    """
    f = as_series(f)
    require_unit_constant(f)
    plan = choose_params(n, blocks)
    fs = decompose(f[:n], plan.block_size, plan.blocks)
    base = base_ledger if base_ledger is not None else TransformLedger()
    g0, g0_inv = baselines.sqrt_newton_coupled(fs.blocks[0], plan.block_size, base)
    return sqrt_block_iter(fs, g0, g0_inv, plan.blocks, ledger)[:n]


def sqrt_rem(
    f,
    ledger: TransformLedger,
    *,
    blocks: int | None = None,
    base_ledger: TransformLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a monic polynomial of degree 2n as f = g^2 + rem, deg g = n.

    Works on the reversed polynomial: its series square root to n+1
    coefficients, reversed back, is g.  The high part of that root's square,
    needed for the remainder, reuses the block spectra retained from the
    iteration: one extra forward transform (the final block, never
    transformed by the iteration itself) and one extra inverse per block.

    Returns (g, rem) with len(g) = n + 1, g monic, len(rem) = n.
    """
    f = as_series(f)
    if len(f) < 3 or len(f) % 2 == 0:
        raise ValueError("input must have even degree >= 2")
    if f[-1] != 1.0:
        raise ValueError(f"input must be monic, got leading coefficient {complex(f[-1])}")
    half_deg = (len(f) - 1) // 2
    ncoeff = half_deg + 1
    rev = f[::-1]

    plan = rem_params(half_deg, blocks)
    m, r = plan.block_size, plan.blocks
    fs = decompose(rev, m, r)
    base = base_ledger if base_ledger is not None else TransformLedger()
    g0, g0_inv = baselines.sqrt_newton_coupled(fs.blocks[0], m, base)
    root, cache = _sqrt_blocks(fs, g0, g0_inv, r, ledger)

    # Truncate the series root to the polynomial part (degree n in reverse),
    # keeping the discarded tail for the remainder completion below.
    flat = root.recompose()
    tail = flat[ncoeff:].copy()
    slack = r * m - ncoeff
    if slack:
        root.blocks[r - 1][m - slack :] = 0.0
        flat[ncoeff:] = 0.0
    # The one forward transform the iteration never performed.
    cache.ensure(r - 1, ledger)
    # Blocks r..2r-1 of the truncated root's square: one inverse each.
    high = [product_block(cache, cache, j, ledger) for j in range(r, 2 * r)]
    square_high = np.concatenate(high)

    # diff = reversed(f) - root^2 on indices ncoeff..2*half_deg.
    # Below r*m the square was never formed; there the identity
    # rev - root^2 = 2 * root * tail (mod x^{r*m}) fills the gap exactly.
    diff = np.zeros(2 * half_deg + 1, dtype=np.complex128)
    if slack:
        gap = 2.0 * np.convolve(tail, flat[:slack])[:slack]
        end = min(r * m, 2 * half_deg + 1)
        diff[ncoeff:end] = gap[: end - ncoeff]
    hi_start = r * m
    if hi_start <= 2 * half_deg:
        lim = 2 * half_deg + 1 - hi_start
        diff[hi_start:] = rev[hi_start:] - square_high[:lim]

    g = flat[:ncoeff][::-1].copy()
    rem = diff[ncoeff:][::-1].copy()
    return g, rem
