"""Blockwise power-series reciprocal via a fused third-order Newton step.

Given a length-m base-case inverse, the iteration produces 3s blocks in four
phases: (1) a division loop extends the inverse to s blocks; (2) the product
of input and partial inverse yields the negated low defect blocks; (3) a
fused pass accumulates defect-square and high-defect spectra and spends a
single inverse transform per block on their difference; (4) the third-order
update multiplies the partial inverse by the assembled correction.  Total
cost: exactly 13s - 3 transforms of length 2m (7s - 1 forward, 6s - 2
inverse) beyond the base case.
"""

from __future__ import annotations

import numpy as np

from . import baselines
from .blockwise import (
    BlockSeries,
    TransformCache,
    combined_block,
    decompose,
    product_block,
)
from .plan import RECIP, BlockPlan, choose_plan
from .transform import TransformLedger, as_unit_series, forward, inverse, require_finite_result


def choose_params(n: int, blocks_override: int | None = None) -> BlockPlan:
    """Block parameter s and supported block size m, 3 * s * m >= n (see plan.py)."""
    return choose_plan(RECIP, n, blocks_override)


def recip_block_iter(
    f: BlockSeries,
    g0,
    s: int,
    ledger: TransformLedger,
) -> np.ndarray:
    """Inverse of f to 3s*m coefficients from a length-m base case g0.

    The input's constant term must be 1, s >= 1, f must supply at least 3s
    blocks of size m and g0 must have m coefficients.  Adds exactly 13s - 3
    length-2m transforms to the ledger.
    """
    m = f.block_size

    # Each cache keeps only the rows it is read through: f and the partial
    # inverse are only ever the left and the right factor of a product.
    inv_low = BlockSeries(m, s, real=f.real)
    inv_low.append(g0)
    inv_cache = TransformCache(inv_low, folded=False)
    inv_cache.ensure(0, ledger)
    g0_spec = inv_cache.spectrum(0)
    f_cache = TransformCache(f, spectra=False)
    for i in range(3 * s):
        f_cache.ensure(i, ledger)

    # Phase 1: division loop; each new block cancels the residual of the
    # partial product f * inv against 1.
    for k in range(1, s):
        resid = product_block(f_cache, inv_cache, k, ledger)
        resid_spec = forward(resid, 2 * m, ledger)
        upd = inverse(g0_spec * resid_spec, ledger)
        inv_low.append(-upd[:m])
        inv_cache.ensure(k, ledger)

    # Phase 2: negated low defect blocks of f * inv.
    corr = BlockSeries(m, 2 * s, real=f.real)
    corr_cache = TransformCache(corr)
    for k in range(s):
        blk = product_block(f_cache, inv_cache, k + s, ledger)
        corr.append(-blk)
        corr_cache.ensure(k, ledger)

    # Phase 3: fused pass.  Block k (s <= k < 2s) of the correction is
    # (corr_low^2) at k-s minus (f * inv) at k+s, combined in the spectral
    # domain and realized with a single inverse transform per block.
    for k in range(s, 2 * s):
        blk = combined_block(
            [(corr_cache, corr_cache, k - s, +1), (f_cache, inv_cache, k + s, -1)], ledger
        )
        corr.append(blk)
        corr_cache.ensure(k, ledger)

    # Phase 4: third-order update; upper output blocks are the product of the
    # correction with the partial inverse, no new forward transforms.
    out = [inv_low.recompose()]
    for k in range(s, 3 * s):
        out.append(product_block(corr_cache, inv_cache, k - s, ledger))
    return np.concatenate(out)


def recip(
    f,
    n: int,
    ledger: TransformLedger,
    *,
    blocks: int | None = None,
    base_ledger: TransformLedger | None = None,
) -> np.ndarray:
    """Reciprocal of a series with constant term 1, to n coefficients.

    Base-case transforms are counted in base_ledger (a private one if not
    given), keeping the main ledger's 13s - 3 count exact.
    """
    f = as_unit_series(f)
    plan = choose_params(n, blocks)
    fs = decompose(f[:n], plan.block_size, 3 * plan.blocks)
    base = base_ledger if base_ledger is not None else TransformLedger()
    g0 = baselines.recip_schonhage(fs.blocks[0], plan.block_size, base)
    g = recip_block_iter(fs, g0, plan.blocks, ledger)[:n]
    return require_finite_result(g, f"recip to order {n}")
