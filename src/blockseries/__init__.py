"""Fast power-series square roots and reciprocals over the complex numbers.

Blockwise algorithms compute both operations with a small, machine-checkable
number of FFTs: 4r - 3 length-2m transforms for the square root over r blocks
of size m, and 13s - 3 for the reciprocal over 3s blocks.  Every transform
goes through an explicit ledger so those counts are exact integers, not
estimates.  Classical doubling algorithms are included as base-case providers
and benchmark comparators, and O(n^2) coefficient recurrences serve as
independent oracles.
"""

from .baselines import recip_schonhage, sqrt_newton_coupled
from .blockwise import (
    BlockSeries,
    MissingSpectrumError,
    TransformCache,
    combined_block,
    decompose,
    product_block,
)
from .plan import BlockPlan
from .recip import recip, recip_block_iter
from .sqrt import choose_params, sqrt, sqrt_block_iter, sqrt_rem
from .transform import (
    Poly,
    Spectrum,
    TransformLedger,
    UnsupportedLengthError,
    forward,
    inverse,
    is_supported,
    next_supported,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPlan",
    "BlockSeries",
    "MissingSpectrumError",
    "Poly",
    "Spectrum",
    "TransformCache",
    "TransformLedger",
    "UnsupportedLengthError",
    "choose_params",
    "combined_block",
    "decompose",
    "forward",
    "inverse",
    "is_supported",
    "next_supported",
    "product_block",
    "recip",
    "recip_block_iter",
    "recip_schonhage",
    "sqrt",
    "sqrt_block_iter",
    "sqrt_newton_coupled",
    "sqrt_rem",
]
