"""Block decomposition of series and cached-spectrum product kernels.

A series is split into blocks of a fixed size m.  Once the length-2m spectra
of the blocks of f and g are cached, any block of the product f*g (or of a
signed sum of several products) is obtained with exactly one inverse
transform: the contributing spectra are combined pointwise, using the
alternating-sign spectrum of x^m to fold in the half-block offset, and a
single inverse transform of the accumulated spectrum yields the block as its
second half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transform import (
    Spectrum,
    TransformLedger,
    forward,
    inverse,
    is_supported,
)


class MissingSpectrumError(LookupError):
    """A product kernel needed a block spectrum that was never computed."""


@dataclass
class BlockSeries:
    """A series split into length-m blocks: f = f0 + f1*X + ..., X = x^m."""

    block_size: int
    blocks: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.block_size < 1 or not is_supported(2 * self.block_size):
            raise ValueError(f"block size {self.block_size} needs 2m = 2^a * 3^b")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def append(self, block) -> None:
        """Add the next block, zero-padded to the block size."""
        block = np.asarray(block, dtype=np.complex128)
        if len(block) > self.block_size:
            raise ValueError("block longer than block size")
        padded = np.zeros(self.block_size, dtype=np.complex128)
        padded[: len(block)] = block
        self.blocks.append(padded)

    def recompose(self) -> np.ndarray:
        """Concatenate the blocks back into a plain coefficient vector."""
        if not self.blocks:
            return np.zeros(0, dtype=np.complex128)
        return np.concatenate(self.blocks)


def decompose(f, block_size: int, num_blocks: int) -> BlockSeries:
    """Split f into num_blocks blocks of block_size coefficients.

    Zero-pads short input; coefficients beyond num_blocks * block_size are
    dropped (callers control padding).
    """
    f = np.asarray(f, dtype=np.complex128)
    series = BlockSeries(block_size)
    for i in range(num_blocks):
        series.append(f[i * block_size : (i + 1) * block_size])
    return series


class TransformCache:
    """Write-once store of the length-2m spectra of a series' blocks.

    Block indices outside the series are treated as zero blocks by the
    product kernels; an index inside the series whose spectrum was never
    computed raises MissingSpectrumError there.
    """

    def __init__(self, series: BlockSeries):
        self.series = series
        self._entries: dict[int, Spectrum] = {}

    @property
    def block_size(self) -> int:
        return self.series.block_size

    def ensure(self, i: int, ledger: TransformLedger) -> Spectrum:
        """Return the spectrum of block i, computing it on first access."""
        if i < 0 or i >= self.series.num_blocks:
            raise IndexError(f"block index {i} out of range")
        spec = self._entries.get(i)
        if spec is None:
            spec = forward(self.series.blocks[i], 2 * self.block_size, ledger)
            self._entries[i] = spec
        return spec

    def spectrum_or_none(self, i: int) -> Spectrum | None:
        if i < 0 or i >= self.series.num_blocks:
            return None
        spec = self._entries.get(i)
        if spec is None:
            raise MissingSpectrumError(f"block {i} has no cached transform")
        return spec


class ShiftedCache:
    """View of a cache with block indices offset: block j maps to base j - shift.

    Lets a product kernel treat a cached series as multiplied by X^shift
    (negative shifts select higher base blocks) without new transforms.
    """

    def __init__(self, base, shift: int):
        self.base = base
        self.shift = shift

    @property
    def block_size(self) -> int:
        return self.base.block_size

    def spectrum_or_none(self, i: int) -> Spectrum | None:
        return self.base.spectrum_or_none(i - self.shift)


def shifted(cache, shift: int) -> ShiftedCache:
    return ShiftedCache(cache, shift)


_ALT: dict[int, np.ndarray] = {}


def _alternating(m: int) -> np.ndarray:
    # Spectrum of x^m at length 2m: +1, -1, +1, ...
    alt = _ALT.get(m)
    if alt is None:
        alt = np.ones(2 * m)
        alt[1::2] = -1.0
        _ALT[m] = alt
    return alt


def _accumulate(acc: np.ndarray, f_cache, g_cache, k: int, sign: int) -> None:
    """Add sign * (spectrum of the k-th product block, pre-inverse) to acc.

    Sums (f_{k-i-1} + f_{k-i} * x^m) * g_i over i = 0..k in the spectral
    domain; out-of-range blocks on either side contribute nothing.
    """
    m = f_cache.block_size
    alt = _alternating(m)
    for i in range(k + 1):
        gs = g_cache.spectrum_or_none(i)
        if gs is None:
            continue
        lo = f_cache.spectrum_or_none(k - i - 1)
        hi = f_cache.spectrum_or_none(k - i)
        if lo is None and hi is None:
            continue
        if lo is None:
            contrib = (alt * hi) * gs
        elif hi is None:
            contrib = lo * gs
        else:
            contrib = (lo + alt * hi) * gs
        if sign < 0:
            acc -= contrib
        else:
            acc += contrib


def product_block(
    f_cache: TransformCache, g_cache: TransformCache, k: int, ledger: TransformLedger
) -> np.ndarray:
    """Block k of the product f*g from cached spectra.

    Costs exactly one inverse transform of length 2m and no forward
    transforms; requires the spectra of blocks 0..k (where they exist) of
    both factors.
    """
    if f_cache.block_size != g_cache.block_size:
        raise ValueError("block size mismatch between factors")
    m = f_cache.block_size
    acc = np.zeros(2 * m, dtype=np.complex128)
    _accumulate(acc, f_cache, g_cache, k, +1)
    return inverse(acc, ledger)[m:]


def combined_block(terms, k: int, ledger: TransformLedger) -> np.ndarray:
    """Block k of a signed sum of products, still with one inverse transform.

    ``terms`` is a sequence of (f_cache, g_cache, sign) with sign = +1 or -1;
    all caches must share one block size.  Shifted views may stand in for
    caches to offset a term's block indexing.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    m = terms[0][0].block_size
    for fc, gc, sign in terms:
        if fc.block_size != m or gc.block_size != m:
            raise ValueError("block size mismatch between terms")
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
    acc = np.zeros(2 * m, dtype=np.complex128)
    for fc, gc, sign in terms:
        _accumulate(acc, fc, gc, k, sign)
    return inverse(acc, ledger)[m:]
