"""Complex FFT engine with transform counting.

Forward transforms evaluate a polynomial at the n-th roots of unity using the
positive orientation, ``result[j] = p(e^{+2*pi*i*j/n})``; the inverse applies
the conjugate transform scaled by 1/n.  Supported lengths are the 3-smooth
integers 2^a * 3^b up to 2^64, listed in _SUPPORTED, handled by a mixed-radix
decimation in time run as an autosort (Stockham) level loop (see _dft): the
2-part in radix-8 levels and at most one radix-4 or radix-2 level, the 3-part
in radix-9 levels and at most one radix-3 level, each level but radix 2 one
product with the radix's DFT matrix.  Each level's twiddle table is built
once per level length as the level multiplies it in memory order: (radix,
L/radix) for the row phase, its transpose for the column phase's short tables.
Every cached table is read-only, so concurrent transforms share them.

Real series take a real path inside ``forward`` and ``inverse``, at every
length.  A real input (zero imaginary part) always gets an exactly Hermitian
spectrum: bin n-k is the conjugate of bin k, bin 0 is real, and so is bin n/2
for even n.  An exactly Hermitian spectrum (tested by exact equality) always
gives an exactly real output.  Pointwise products, sums and real scalings
preserve that symmetry bit for bit, so series built from real blocks stay
real through any chain of transforms without a flag.  At even lengths the
real path costs one complex transform of length n/2 plus an O(n) untangling
step with cached read-only tables (Sorensen, Jones, Heideman, Burrus, IEEE
TASSP 1987); odd lengths run the full-length transform and then mirror the
spectrum (forward) or drop the imaginary part (inverse).  Complex input takes
the full-length transform unchanged.

Every forward/inverse call appends to a caller-supplied TransformLedger, one
ordered record of the run's transforms (+L forward, -L inverse, length L) of
which counts, totals and costs are views; a ledger must not be shared between
concurrently running operations.  The test hook twiddle_fault acts at this
boundary, not in the engine: forward and inverse swap entries 1 and 2 of each
result of length >= 6, the forward before its Hermitian fill.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Type aliases: a Poly is a dense complex128 coefficient vector, a Spectrum is
# the vector of its values at the roots of unity.
Poly = np.ndarray
Spectrum = np.ndarray


class UnsupportedLengthError(ValueError):
    """Requested transform length is not of the form 2^a * 3^b, or is above 2^64."""


def transform_cost(length: int, count: int = 1) -> float:
    """count * length * log2(length): the weight of count transforms of one length."""
    return count * length * math.log2(length) if length > 1 else 0.0


@dataclass
class TransformLedger:
    """The run's transforms in order: +L for a forward, -L for an inverse of length L."""

    record: list[int] = field(default_factory=list)

    @classmethod
    def of(cls, schedule) -> TransformLedger:
        """The ledger a schedule records.  A schedule is runs (length, kinds, times):
        kinds spells transforms of that length, F forward and I inverse, and the
        run repeats it times times."""
        sign = {"F": 1, "I": -1}
        return cls([sign[kind] * length for length, kinds, times in schedule
                    for _ in range(times) for kind in kinds])

    @property
    def forward(self) -> Counter:
        """Forward transforms by length, in first-seen order."""
        return Counter(n for n in self.record if n > 0)

    @property
    def inverse(self) -> Counter:
        """Inverse transforms by length, in first-seen order."""
        return Counter(-n for n in self.record if n < 0)

    def total(self) -> int:
        return len(self.record)

    def since(self, start: int) -> TransformLedger:
        """The transforms recorded after the first ``start`` (a ``total()`` taken earlier)."""
        return TransformLedger(self.record[start:])

    def weighted_cost(self) -> float:
        """Sum of length * log2(length) over all recorded transforms."""
        cost = 0.0
        for table in (self.forward, self.inverse):
            for n, c in table.items():
                cost += transform_cost(n, c)
        return cost


# Every supported length up to 2^64, ascending; longer ones cannot be allocated.
_SUPPORTED = sorted(
    p3 << a for p3 in (3**b for b in range(41)) for a in range(((1 << 64) // p3).bit_length())
)


def is_supported(n: int) -> bool:
    """True if n is 2^a * 3^b and at most 2^64."""
    i = bisect_left(_SUPPORTED, n)
    return i < len(_SUPPORTED) and _SUPPORTED[i] == n


def _require_supported(n: int) -> None:
    if not is_supported(n):
        why = "above 2^64" if n > _SUPPORTED[-1] else "not 2^a * 3^b"
        raise UnsupportedLengthError(f"transform length {n} is {why}")


def next_supported(n: int) -> int:
    """Smallest supported (3-smooth) length >= n."""
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > _SUPPORTED[-1]:
        raise ValueError(f"length {n} is above 2^64")
    return _SUPPORTED[bisect_left(_SUPPORTED, n)]


# Shortest length whose levels run with numpy's ufunc buffer at _BUFSIZE
# points (see _dft); below it the saving does not cover the two calls.
_UNBUFFERED_FROM = 2048
_BUFSIZE = 16

# Every table in the caches below is made read-only before it is stored, so
# concurrent transforms can share them.

# length -> the levels of its transform, bottom-up: the leaf (radix = length,
# no twiddles, column phase), then (radix, twiddle table, by_rows) for each
# level length L up to the full length (see _plan).
_PLANS: dict[int, list[tuple[int, np.ndarray | None, bool]]] = {}

# (level length L, by_rows) -> the level's twiddle table w[j, c] =
# e^(2*pi*i*j*c/L), j < radix, c < L/radix: shape (radix, L/radix) for a row
# phase level, its transpose (L/radix, radix) for a column phase level.
_TWIDDLES: dict[tuple[int, bool], np.ndarray] = {}

# radix (3, 4, 8 or 9) -> its DFT matrix F[q, j] = e^(2*pi*i*q*j/radix).
_DFT_MATRICES: dict[int, np.ndarray] = {}

# length -> (a, conj(a[:n/2])) with a[j] = (1 - i*w^j)/2, j = 0..n/2,
# w = e^{2*pi*i/n}: the untangling tables of the half-length real path.
_REAL_PLANS: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# Test hook (see twiddle_fault), read by _corrupt only.
_FAULT = False


@contextmanager
def twiddle_fault():
    """Deliberately corrupt every transform of length >= 6 while active (test hook)."""
    global _FAULT
    _FAULT = True
    try:
        yield
    finally:
        _FAULT = False


def _corrupt(out: np.ndarray) -> None:
    """Swap entries 1 and 2 of a transform's result while twiddle_fault is active."""
    if _FAULT and len(out) >= 6:
        out[1], out[2] = out[2], out[1]


def _plan(n: int) -> list[tuple[int, np.ndarray | None, bool]]:
    """The levels of the length-n transform, each (radix, twiddle table, by_rows).

    From the top, each level takes the first of 8, 4, 2, 9, 3 that divides
    what is left: the 2-part runs in radix-8 levels and at most one radix 4
    or 2, the 3-part in radix-9 levels and at most one radix 3.  So a level's
    radix depends on its length L alone, which the _TWIDDLES key relies on.
    A level runs in the row phase of _dft (by_rows) when its L/radix rows
    outnumber its n/L columns, that is when L*L > radix*n.
    """
    plan = _PLANS.get(n)
    if plan is None:
        plan = []
        length = n
        while length > 1:
            radix = next(r for r in (8, 4, 2, 9, 3) if length % r == 0)
            by_rows = length * length > radix * n
            w = _twiddles(length, radix, by_rows) if length > radix else None
            plan.append((radix, w, by_rows))
            length //= radix
        plan.reverse()
        _PLANS[n] = plan
    return plan


def _twiddles(length: int, radix: int, by_rows: bool) -> np.ndarray:
    w = _TWIDDLES.get((length, by_rows))
    if w is None:
        w = np.exp((2j * np.pi / length) * np.outer(np.arange(radix), np.arange(length // radix)))
        if not by_rows:
            w = np.ascontiguousarray(w.T)
        w.setflags(write=False)
        _TWIDDLES[length, by_rows] = w
    return w


def _dft_matrix(radix: int) -> np.ndarray:
    f = _DFT_MATRICES.get(radix)
    if f is None:
        qj = np.outer(np.arange(radix), np.arange(radix)) % radix
        f = np.exp((2j * np.pi / radix) * qj)
        if radix % 4 == 0:  # exact 1, i, -1, -i at quarter turns; exp leaves 6e-17
            quarter = qj % (radix // 4) == 0
            f[quarter] = np.array([1, 1j, -1, -1j])[qj[quarter] * 4 // radix]
        f.setflags(write=False)
        _DFT_MATRICES[radix] = f
    return f


def _real_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    plan = _REAL_PLANS.get(n)
    if plan is None:
        half = n // 2
        a = 0.5 - 0.5j * np.exp((2j * np.pi / n) * np.arange(half + 1))
        plan = (a, np.conj(a[:half]))
        for table in plan:
            table.setflags(write=False)
        _REAL_PLANS[n] = plan
    return plan


def _dft(x: np.ndarray) -> np.ndarray:
    """Positive-orientation DFT of the vector x.

    Autosort (Stockham) levels on a (rows, cols) view whose column c holds the
    length-rows DFT of x[c::cols]: a level of radix r twiddles r column blocks
    and combines them into r row blocks (see _butterfly: one add and one
    subtract for radix 2, one matrix product for every other radix).  Once
    cols/r < rows, one transpose copy makes the view (cols, rows), whose
    blocks are contiguous row slabs, so every ufunc runs over inner loops of
    about sqrt(n) or more (Cochran et al. 1967; Bailey 1990).  Each level's
    twiddles are applied in memory order: a column phase level multiplies the
    natural (rows, radix, cols) view by its (rows, radix) table, each factor
    spanning a contiguous run of cols points, and a row phase level multiplies
    the (radix, cols, rows) view by its (radix, rows) table.  Levels alternate
    between two length-n buffers, twiddled in place, and need no other
    temporary: the working memory is 2n, and x is never written.

    Every ufunc here runs inner loops of at least sqrt(n / 9) contiguous or
    broadcast points over 2-D or 3-D views.  numpy copies such operands
    through buffers of bufsize points (8192 by default) whenever the inner
    loop is shorter than that, and the copies cost more than the loops they
    lengthen; so from _UNBUFFERED_FROM on, the levels run with a buffer size
    of _BUFSIZE points, below every inner loop, which turns the copying off.
    The products and sums are the same, bit for bit.  numpy keeps the buffer
    size per thread, and it is restored on return.
    """
    n = len(x)
    if n == 1:
        return x.copy()
    if n < _UNBUFFERED_FROM:
        return _levels(x)
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        return _levels(x)
    finally:
        np.setbufsize(bufsize)


def _levels(x: np.ndarray) -> np.ndarray:
    """The level loop of _dft, for len(x) >= 2."""
    n = len(x)
    levels = _plan(n)
    bufs = [np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)]
    y, rows, cols, transposed = x, 1, n, False
    for radix, w, by_rows in levels:
        cols //= radix
        if by_rows and not transposed:
            dest = bufs[y is bufs[0]]
            np.copyto(dest.reshape(cols * radix, rows), y.reshape(rows, cols * radix).T)
            y, transposed = dest, True
        out = bufs[y is bufs[0]]
        if by_rows:
            z = y.reshape(radix, cols, rows)
            z *= w[:, None, :]
            o = out.reshape(cols, radix, rows).transpose(1, 0, 2)
        else:
            v = y.reshape(rows, radix, cols)
            if w is not None:
                v *= w[:, :, None]
            z = v.transpose(1, 0, 2)
            o = out.reshape(radix, rows, cols)
        _butterfly(z, o)
        y, rows = out, rows * radix
    return y


def _butterfly(z: np.ndarray, out: np.ndarray) -> None:
    """out[q] = sum_j e^(2*pi*i*j*q/radix) z[j] for radix = len(z).

    Radix 2: one add and one subtract.  Every other radix: one stacked
    product of the DFT matrix with the level's view, written straight into
    out; at radix 2 the product measured slower.
    """
    if len(z) == 2:
        np.add(z[0], z[1], out=out[0])
        np.subtract(z[0], z[1], out=out[1])
    else:
        np.matmul(_dft_matrix(len(z)), z.transpose(1, 0, 2), out=out.transpose(1, 0, 2))


def _forward_half(x: np.ndarray, n: int) -> Spectrum:
    """Bins 0..n/2 of the spectrum of the real vector x, len(x) <= n, n even.

    Packs x as n/2 complex points z_k = x_2k + i*x_2k+1; with Z their
    transform and Y_j = conj(Z_{(n/2-j) mod n/2}), bin j is Y_j + a_j (Z_j - Y_j).
    The bins above n/2 are left for _hermitian_fill.
    """
    half = n // 2
    buf = np.zeros(n)
    buf[: len(x)] = x
    z = _dft(buf.view(np.complex128))
    a, _ = _real_plan(n)
    y = np.conj(np.concatenate([z[:1], z[::-1]]))
    out = np.empty(n, dtype=np.complex128)
    head = out[: half + 1]
    head[:half] = z
    head[half] = z[0]
    head -= y
    head *= a
    head += y
    return out


def _inverse_half(s: Spectrum) -> np.ndarray:
    """Real coefficients (float64) of the exactly Hermitian spectrum s, len(s) even.

    Folds s into the spectrum Z_j = s_{j+n/2} + conj(a_j) (s_j - s_{j+n/2}) of
    the packed points z_k = x_2k + i*x_2k+1 and inverts it at length n/2.
    """
    half = len(s) // 2
    _, ac = _real_plan(len(s))
    lo, hi = s[:half], s[half:]
    z = lo - hi
    z *= ac
    z += hi
    np.conjugate(z, out=z)
    y = _dft(z)
    np.conjugate(y, out=y)
    y /= half
    return y.view(np.float64)


def _hermitian_fill(s: Spectrum) -> None:
    """Make s exactly Hermitian in place from bins 0..n/2.

    Also fills the real block spectra of blockwise: combined_block's spectrum
    before its inverse, and the full spectrum TransformCache.spectrum returns.
    """
    n = len(s)
    imag = s.imag
    imag[0] = 0.0
    if n % 2 == 0:
        imag[n // 2] = 0.0
    np.conjugate(s[(n - 1) // 2 : 0 : -1], out=s[n // 2 + 1 :])


def _is_hermitian(s: Spectrum) -> bool:
    """True if bin n-k equals conj(bin k) exactly for every k and bin 0 is real."""
    h = len(s) // 2
    return s.imag[0] == 0 and not np.count_nonzero(s[1 : h + 1] != np.conj(s[: -h - 1 : -1]))


def as_series(f) -> Poly:
    """Coerce to a 1-D complex128 coefficient vector."""
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 1:
        raise ValueError("coefficient sequence must be one-dimensional")
    return f


def require_finite(f: Poly) -> None:
    """Reject series with a non-finite coefficient, naming the first one."""
    bad = np.flatnonzero(~np.isfinite(f))
    if len(bad):
        raise ValueError(f"non-finite coefficient at index {bad[0]}: {complex(f[bad[0]])}")


def require_finite_result(out: Poly, what: str) -> Poly:
    """Return an op's result ``what`` (its name and order) if every coefficient
    is finite; the input was, so otherwise the op overflowed float64."""
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{what} overflowed float64: coefficient {i} is {complex(out[i])}")
    return out


def as_unit_series(f) -> Poly:
    """The input of sqrt, recip and the doubling routines: a 1-D complex128
    series, finite, with constant term exactly 1, checked in that order."""
    f = as_series(f)
    require_finite(f)
    if len(f) == 0:
        raise ValueError("series must have constant term 1, got an empty series")
    if f[0] != 1.0:
        raise ValueError(f"series must have constant term 1, got {complex(f[0])}")
    return f


def forward(p, n: int, ledger: TransformLedger) -> Spectrum:
    """Evaluate p at the n-th roots of unity; counts one forward transform."""
    _require_supported(n)
    p = as_series(p)
    if len(p) > n:
        raise ValueError(f"polynomial length {len(p)} exceeds transform length {n}")
    if len(p) and not np.isfinite(p).all():
        raise ValueError(f"non-finite value in a length-{n} transform input")
    real = not np.count_nonzero(p.imag)  # as p.imag.any(), at a third of the cost
    if real and n % 2 == 0:
        out = _forward_half(p.real, n)
    else:
        x = np.zeros(n, dtype=np.complex128)
        x[: len(p)] = p
        out = _dft(x)
    _corrupt(out)
    if real:
        _hermitian_fill(out)
    ledger.record.append(n)
    return out


def inverse(s, ledger: TransformLedger) -> Poly:
    """Recover coefficients from a spectrum; counts one inverse transform."""
    s = as_series(s)
    n = len(s)
    _require_supported(n)
    real = _is_hermitian(s)
    if real and n % 2 == 0:
        out = _inverse_half(s).astype(np.complex128)
    else:
        out = _dft(np.conj(s))
        np.conjugate(out, out=out)
        out /= n
        if real:
            out.imag = 0.0
    _corrupt(out)
    ledger.record.append(-n)
    return out
