"""Block decomposition of series and cached-spectrum product kernels.

A series is split into blocks of size m, f = f0 + f1*X + ... with X = x^m,
kept as the rows of one (capacity, m) array.  Its TransformCache keeps the
length-2m block spectra as the rows of one (capacity, 2m) array, and folded
rows in a (capacity + 1, 2m) array: row j is the spectrum of f_{j-1} +
x^m * f_j.  The spectrum of x^m is +1, -1, +1, ..., so each new block
spectrum updates two folded rows in place.  Block k of f*g is the second
half of the inverse transform of one contraction: folded rows k, k-1, ...
of f against spectra rows 0, 1, ... of g.  A signed sum of such terms, each
at its own block index, still costs exactly one inverse transform.
"""

from __future__ import annotations

import numpy as np

from .transform import (
    TransformLedger,
    forward,
    inverse,
    is_supported,
)


class MissingSpectrumError(LookupError):
    """A product kernel needed a block spectrum that was never computed."""


class BlockSeries:
    """A series split into length-m blocks, stored as rows of one array."""

    def __init__(self, block_size: int, capacity: int):
        if block_size < 1 or not is_supported(2 * block_size):
            raise ValueError(f"block size {block_size} needs 2m = 2^a * 3^b")
        self.block_size = block_size
        self.capacity = capacity
        self.rows = np.zeros((capacity, block_size), dtype=np.complex128)
        self.num_blocks = 0

    @property
    def blocks(self) -> np.ndarray:
        """The blocks so far, as a view of the first num_blocks rows."""
        return self.rows[: self.num_blocks]

    def append(self, block) -> None:
        """Add the next block, zero-padded to the block size."""
        block = np.asarray(block, dtype=np.complex128)
        if len(block) > self.block_size:
            raise ValueError("block longer than block size")
        if self.num_blocks == self.capacity:
            raise ValueError(f"series is full at its capacity of {self.capacity} blocks")
        self.rows[self.num_blocks, : len(block)] = block
        self.num_blocks += 1

    def recompose(self) -> np.ndarray:
        """Concatenate the blocks back into a plain coefficient vector."""
        return self.blocks.flatten()


def decompose(f, block_size: int, num_blocks: int) -> BlockSeries:
    """Split f into num_blocks blocks of block_size coefficients.

    Zero-pads short input; coefficients beyond num_blocks * block_size are
    dropped.  This is where the blockwise entry points pad their input.
    """
    f = np.asarray(f, dtype=np.complex128)[: num_blocks * block_size]
    series = BlockSeries(block_size, num_blocks)
    series.rows.reshape(-1)[: len(f)] = f
    series.num_blocks = num_blocks
    return series


class TransformCache:
    """Write-once store of the length-2m spectra of a series' blocks.

    Block indices outside the series are treated as zero blocks by the
    product kernels; an index inside the series whose spectrum was never
    computed raises MissingSpectrumError there.
    """

    def __init__(self, series: BlockSeries):
        self.series = series
        shape = (series.capacity, 2 * series.block_size)
        self.spectra = np.empty(shape, dtype=np.complex128)  # rows read only once computed
        self.folded = np.zeros((shape[0] + 1, shape[1]), dtype=np.complex128)
        self._computed = [False] * shape[0]

    @property
    def block_size(self) -> int:
        return self.series.block_size

    def ensure(self, i: int, ledger: TransformLedger) -> np.ndarray:
        """Return the spectrum of block i, computing it on first access."""
        if i < 0 or i >= self.series.num_blocks:
            raise IndexError(f"block index {i} out of range")
        spec = self.spectra[i]
        if not self._computed[i]:
            spec[:] = forward(self.series.rows[i], 2 * self.block_size, ledger)
            self.folded[i + 1] += spec
            self.folded[i, ::2] += spec[::2]
            self.folded[i, 1::2] -= spec[1::2]
            self._computed[i] = True
        return spec

    def _require(self, lo: int, hi: int) -> None:
        """Raise MissingSpectrumError if a series block in lo..hi-1 is uncomputed."""
        lo, hi = max(lo, 0), min(hi, self.series.num_blocks)
        if False in self._computed[lo:hi]:
            missing = self._computed.index(False, lo, hi)
            raise MissingSpectrumError(f"block {missing} has no cached transform")


def _accumulate(acc: np.ndarray, f_cache, g_cache, k: int, sign: int) -> None:
    """Add sign * (spectrum of the k-th product block, pre-inverse) to acc.

    Contracts folded rows k - i of f with spectra rows i of g, over the i
    where both are inside their series: i < len(g) and k - i <= len(f).
    """
    lo = max(0, k - f_cache.series.num_blocks)
    hi = min(k, g_cache.series.num_blocks - 1)
    if lo <= hi:
        g_cache._require(lo, hi + 1)
        f_cache._require(k - hi - 1, k - lo + 1)
        h = f_cache.folded[k - hi : k - lo + 1][::-1]
        part = np.einsum("ij,ij->j", h, g_cache.spectra[lo : hi + 1])
        acc += part if sign > 0 else -part


def product_block(
    f_cache: TransformCache, g_cache: TransformCache, k: int, ledger: TransformLedger
) -> np.ndarray:
    """Block k of the product f*g from cached spectra.

    Costs exactly one inverse transform of length 2m and no forward
    transforms; requires the spectra of blocks 0..k (where they exist) of
    both factors.
    """
    return combined_block([(f_cache, g_cache, k, +1)], ledger)


def combined_block(terms, ledger: TransformLedger) -> np.ndarray:
    """Block of a signed sum of products, still with one inverse transform.

    ``terms`` is a sequence of (f_cache, g_cache, k, sign): the term adds
    sign * (block k of f*g), sign = +1 or -1.  All caches must share one
    block size.
    """
    if not terms:
        raise ValueError("need at least one term")
    m = terms[0][0].block_size
    acc = np.zeros(2 * m, dtype=np.complex128)
    for fc, gc, k, sign in terms:
        if fc.block_size != m or gc.block_size != m:
            raise ValueError("block size mismatch between factors")
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        _accumulate(acc, fc, gc, k, sign)
    return inverse(acc, ledger)[m:]
