"""Block decomposition of series and cached-spectrum product kernels.

A series is split into blocks of size m, f = f0 + f1*X + ... with X = x^m,
kept as the rows of one (capacity, m) array.  Its TransformCache keeps the
length-2m block spectra as the rows of one (capacity, w) array, and folded
rows in a (capacity + 1, w) array: row j is the spectrum of f_{j-1} +
x^m * f_j.  The spectrum of x^m is +1, -1, +1, ..., so each new block
spectrum updates two folded rows in place.  Block k of f*g is the second
half of the inverse transform of one contraction: folded rows k, k-1, ...
of f against spectra rows 0, 1, ... of g.  A signed sum of such terms, each
at its own block index, still costs exactly one inverse transform.

The width w is 2m for a complex series and m + 1 for a real one.  A real
series (decided once, by decompose, from its coefficients) has exactly
Hermitian block spectra, so bins 0..m hold all of them; the contraction runs
over those bins only, and bins m+1..2m-1 of the result are written as the
conjugates of bins m-1..1 before the one inverse transform.  Conjugation
commutes exactly with products and sums, so that spectrum is bit for bit
the full-width one.  A cache keeps only the rows it is read through:
spectra rows to be the right factor g, folded rows to be the left factor f.
"""

from __future__ import annotations

import numpy as np

from .transform import TransformLedger, _hermitian_fill, as_series, forward, inverse


class MissingSpectrumError(LookupError):
    """A product kernel needed a block spectrum that was never computed."""


class BlockSeries:
    """A series split into length-m blocks, stored as rows of one array.

    The caller keeps 2m a supported length, appends at most ``capacity`` blocks
    of at most m coefficients each, and appends to a real series (``real=True``,
    whose caches store half-width spectra) only blocks with zero imaginary part.
    """

    def __init__(self, block_size: int, capacity: int, real: bool = False):
        self.block_size = block_size
        self.capacity = capacity
        self.real = real
        self.rows = np.zeros((capacity, block_size), dtype=np.complex128)
        self.num_blocks = 0

    @property
    def blocks(self) -> np.ndarray:
        """The blocks so far, as a view of the first num_blocks rows."""
        return self.rows[: self.num_blocks]

    def append(self, block) -> None:
        """Add the next block, zero-padded to the block size."""
        self.rows[self.num_blocks, : len(block)] = block
        self.num_blocks += 1

    def recompose(self) -> np.ndarray:
        """Concatenate the blocks back into a plain coefficient vector."""
        return self.blocks.flatten()


def decompose(f, block_size: int, num_blocks: int) -> BlockSeries:
    """Split f into num_blocks blocks of block_size coefficients.

    Zero-pads short input; coefficients beyond num_blocks * block_size are
    dropped.  This is where the blockwise entry points pad their input and
    decide, from the kept coefficients, whether the series is real.
    """
    f = as_series(f)[: num_blocks * block_size]
    series = BlockSeries(block_size, num_blocks, real=not np.count_nonzero(f.imag))
    series.rows.reshape(-1)[: len(f)] = f
    series.num_blocks = num_blocks
    return series


class TransformCache:
    """Write-once store of the length-2m spectra of a series' blocks.

    ``spectra`` keeps the rows read by the right factor of a product and
    ``folded`` those read by the left factor; a cache used in one role only
    need not keep the other (the attribute is then None).  Block indices
    outside the series are treated as zero blocks by the product kernels; an
    index inside the series whose spectrum was never computed raises
    MissingSpectrumError there.
    """

    def __init__(self, series: BlockSeries, *, spectra: bool = True, folded: bool = True):
        self.series = series
        m = series.block_size
        self.width = m + 1 if series.real else 2 * m
        shape = (series.capacity, self.width)
        self.spectra = np.empty(shape, dtype=np.complex128) if spectra else None
        self.folded = np.zeros((shape[0] + 1, shape[1]), dtype=np.complex128) if folded else None
        self._computed = [False] * shape[0]

    @property
    def block_size(self) -> int:
        return self.series.block_size

    def ensure(self, i: int, ledger: TransformLedger) -> None:
        """Transform block i, 0 <= i < num_blocks, on first access and store bins 0..width-1."""
        if self._computed[i]:
            return
        spec = forward(self.series.rows[i], 2 * self.block_size, ledger)[: self.width]
        if self.spectra is not None:
            self.spectra[i] = spec
        if self.folded is not None:
            self.folded[i + 1] += spec
            self.folded[i, ::2] += spec[::2]
            self.folded[i, 1::2] -= spec[1::2]
        self._computed[i] = True

    def spectrum(self, i: int) -> np.ndarray:
        """The full length-2m spectrum of computed block i of a cache that keeps spectra rows."""
        self._require(i, i + 1)
        row = self.spectra[i]
        if not self.series.real:
            return row
        out = np.empty(2 * self.block_size, dtype=np.complex128)
        out[: self.width] = row
        _hermitian_fill(out)
        return out

    def _require(self, lo: int, hi: int) -> None:
        """Raise MissingSpectrumError if a series block in lo..hi-1 is uncomputed."""
        lo, hi = max(lo, 0), min(hi, self.series.num_blocks)
        if False in self._computed[lo:hi]:
            missing = self._computed.index(False, lo, hi)
            raise MissingSpectrumError(f"block {missing} has no cached transform")


def _accumulate(acc: np.ndarray, scratch: np.ndarray, f_cache, g_cache, k: int, sign: int) -> None:
    """Add sign * (spectrum of the k-th product block, pre-inverse) to acc.

    Streams folded rows k - i of f against spectra rows i of g, over the i
    where both are inside their series: i < len(g) and k - i <= len(f).  Each
    row product goes through scratch (acc's shape) and is added to or
    subtracted from acc in row order, two contiguous passes per row.
    """
    lo = max(0, k - f_cache.series.num_blocks)
    hi = min(k, g_cache.series.num_blocks - 1)
    if lo <= hi:
        g_cache._require(lo, hi + 1)
        f_cache._require(k - hi - 1, k - lo + 1)
        update = np.add if sign > 0 else np.subtract
        for i in range(lo, hi + 1):
            np.multiply(f_cache.folded[k - i], g_cache.spectra[i], out=scratch)
            update(acc, scratch, out=acc)


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

    ``terms`` is a non-empty sequence of (f_cache, g_cache, k, sign): the term
    adds sign * (block k of f*g), sign = +1 or -1.  The caller passes caches
    that share one block size and are all real or all complex, each f_cache
    keeping folded rows and each g_cache spectra rows.
    """
    first = terms[0][0]
    m, real = first.block_size, first.series.real
    acc = np.zeros(2 * m, dtype=np.complex128)
    head = acc[: first.width]
    scratch = np.empty_like(head)
    for fc, gc, k, sign in terms:
        _accumulate(head, scratch, fc, gc, k, sign)
    if real:
        _hermitian_fill(acc)
    return inverse(acc, ledger)[m:]
