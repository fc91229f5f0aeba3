"""Complex FFT engine with transform counting.

Forward transforms evaluate a polynomial at the n-th roots of unity using the
positive orientation, ``result[j] = p(e^{+2*pi*i*j/n})``; the inverse applies
the conjugate transform scaled by 1/n.  Supported lengths are the 3-smooth
integers 2^a * 3^b, handled by a mixed radix-4/2/3 decimation implemented with
vectorized numpy butterflies.  Twiddle tables are built once per length and
are read-only afterwards.

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

Every forward/inverse call increments a caller-supplied TransformLedger, the
instrument that makes transform-count assertions exact integers.  A ledger
must not be shared between concurrently running operations; use one per task.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Type aliases: a Poly is a dense complex128 coefficient vector, a Spectrum is
# the vector of its values at the roots of unity.
Poly = np.ndarray
Spectrum = np.ndarray


class UnsupportedLengthError(ValueError):
    """Requested transform length is not of the form 2^a * 3^b."""


@dataclass
class TransformLedger:
    """Counts of forward and inverse transforms, keyed by length."""

    forward: Counter = field(default_factory=Counter)
    inverse: Counter = field(default_factory=Counter)

    def record_forward(self, n: int) -> None:
        self.forward[n] += 1

    def record_inverse(self, n: int) -> None:
        self.inverse[n] += 1

    def total(self) -> int:
        return sum(self.forward.values()) + sum(self.inverse.values())

    def snapshot(self) -> tuple[Counter, Counter]:
        return Counter(self.forward), Counter(self.inverse)

    def delta(self, snap: tuple[Counter, Counter]) -> tuple[Counter, Counter]:
        """Counts added since ``snap`` (counts never decrease)."""
        return self.forward - snap[0], self.inverse - snap[1]

    def weighted_cost(self) -> float:
        """Sum of length * log2(length) over all recorded transforms."""
        cost = 0.0
        for table in (self.forward, self.inverse):
            for n, c in table.items():
                if n > 1:
                    cost += c * n * math.log2(n)
        return cost


def is_supported(n: int) -> bool:
    """True if n >= 1 and n has no prime factor other than 2 and 3."""
    if n < 1:
        return False
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def next_supported(n: int) -> int:
    """Smallest supported (3-smooth) length >= n."""
    if n < 1:
        raise ValueError("length must be >= 1")
    best: int | None = None
    p3 = 1
    while True:
        if p3 >= n:
            cand = p3
        else:
            q = -(-n // p3)
            cand = p3 << (q - 1).bit_length()
        if best is None or cand < best:
            best = cand
        if p3 >= best:
            return best
        p3 *= 3


# Primitive cube root of unity, positive orientation.
_W3 = complex(-0.5, math.sqrt(3.0) / 2.0)

# length -> (radix, twiddle table of shape (radix, length // radix)); entries
# are immutable once created.
_PLANS: dict[int, tuple[int, np.ndarray]] = {}

# length -> (a, conj(a[:n/2])) with a[j] = (1 - i*w^j)/2, j = 0..n/2,
# w = e^{2*pi*i/n}: the untangling tables of the half-length real path.
# Read-only once created.
_REAL_PLANS: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# Test hook (see twiddle_fault): flips one twiddle sign in every composite
# stage and negates one untangling coefficient, corrupting all transforms of
# length >= 6 on both the complex and the real path.
_FAULT = False


@contextmanager
def twiddle_fault():
    """Deliberately corrupt the FFT while the context is active (test hook)."""
    global _FAULT
    _FAULT = True
    try:
        yield
    finally:
        _FAULT = False


def _plan(n: int) -> tuple[int, np.ndarray]:
    plan = _PLANS.get(n)
    if plan is None:
        if n % 4 == 0:
            radix = 4
        elif n % 2 == 0:
            radix = 2
        else:
            radix = 3
        w = np.exp((2j * np.pi / n) * np.outer(np.arange(radix), np.arange(n // radix)))
        plan = (radix, w)
        _PLANS[n] = plan
    return plan


def _real_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    plan = _REAL_PLANS.get(n)
    if plan is None:
        half = n // 2
        a = 0.5 - 0.5j * np.exp((2j * np.pi / n) * np.arange(half + 1))
        plan = (a, np.conj(a[:half]))
        for table in plan:
            table.setflags(write=False)
        _REAL_PLANS[n] = plan
    if _FAULT and n >= 6:  # the lengths the stage fault reaches
        plan = tuple(table.copy() for table in plan)
        for table in plan:
            table[1] = -table[1]
    return plan


def _dft(x: np.ndarray) -> np.ndarray:
    """Positive-orientation DFT along the last axis; x has shape (batch, n).

    Mixed-radix decimation in time, run as a loop rather than a recursion:
    the input is split by residue down to rows of length <= 4, those are
    transformed directly, and the butterflies are applied one level at a
    time on the way back up.  Only the current level's arrays are alive, so
    the working memory stays a few times n instead of growing with the
    number of levels.
    """
    b, n = x.shape
    levels = []
    while n > 4:
        radix, w = _plan(n)
        if _FAULT:
            w = w.copy()
            w[1, 1] = -w[1, 1]
        levels.append((b, radix, w))
        n //= radix
        x = x.reshape(b, n, radix).transpose(0, 2, 1).reshape(b * radix, n)
        b *= radix
    z = _short_dft(x)
    del x
    for b, radix, w in reversed(levels):
        z = z.reshape(b, radix, -1)
        z *= w
        z = _butterfly(z, radix)
    return z


def _short_dft(x: np.ndarray) -> np.ndarray:
    """DFT of each row of x, rows of length n <= 4."""
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    if n == 2:
        a, b = x[:, 0], x[:, 1]
        return np.stack([a + b, a - b], axis=-1)
    if n == 3:
        a, b, c = x[:, 0], x[:, 1], x[:, 2]
        w, wc = _W3, _W3.conjugate()
        return np.stack([a + b + c, a + w * b + wc * c, a + wc * b + w * c], axis=-1)
    s, d = x[:, 0] + x[:, 2], x[:, 0] - x[:, 2]
    t, u = x[:, 1] + x[:, 3], x[:, 1] - x[:, 3]
    return np.stack([s + t, d + 1j * u, s - t, d - 1j * u], axis=-1)


def _butterfly(z: np.ndarray, radix: int) -> np.ndarray:
    """Combine radix twiddled sub-transforms z[:, j] into rows of length radix * m."""
    if radix == 2:
        return np.concatenate([z[:, 0] + z[:, 1], z[:, 0] - z[:, 1]], axis=-1)
    if radix == 3:
        z0, z1, z2 = z[:, 0], z[:, 1], z[:, 2]
        w3, w3c = _W3, _W3.conjugate()
        return np.concatenate(
            [z0 + z1 + z2, z0 + w3 * z1 + w3c * z2, z0 + w3c * z1 + w3 * z2], axis=-1
        )
    z0, z1, z2, z3 = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
    s, d = z0 + z2, z0 - z2
    t, u = z1 + z3, z1 - z3
    return np.concatenate([s + t, d + 1j * u, s - t, d - 1j * u], axis=-1)


def _forward_half(x: np.ndarray, n: int) -> Spectrum:
    """Bins 0..n/2 of the spectrum of the real vector x, len(x) <= n, n even.

    Packs x as n/2 complex points z_k = x_2k + i*x_2k+1; with Z their
    transform and Y_j = conj(Z_{(n/2-j) mod n/2}), bin j is Y_j + a_j (Z_j - Y_j).
    The bins above n/2 are left for _hermitian_fill.
    """
    half = n // 2
    buf = np.zeros(n)
    buf[: len(x)] = x
    z = _dft(buf.view(np.complex128).reshape(1, half))[0]
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
    y = _dft(z.reshape(1, half))[0]
    np.conjugate(y, out=y)
    y /= half
    return y.view(np.float64)


def _hermitian_fill(s: Spectrum) -> None:
    """Make s exactly Hermitian in place from bins 0..n/2."""
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


def require_unit_constant(f: Poly) -> None:
    """Reject series whose constant term is not exactly 1."""
    if len(f) == 0:
        raise ValueError("series must have constant term 1, got an empty series")
    if f[0] != 1.0:
        raise ValueError(f"series must have constant term 1, got {complex(f[0])}")


def forward(p, n: int, ledger: TransformLedger) -> Spectrum:
    """Evaluate p at the n-th roots of unity; counts one forward transform."""
    if not is_supported(n):
        raise UnsupportedLengthError(f"transform length {n} is not 2^a * 3^b")
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
        out = _dft(x.reshape(1, n))[0]
    if real:
        _hermitian_fill(out)
    ledger.record_forward(n)
    return out


def inverse(s, ledger: TransformLedger) -> Poly:
    """Recover coefficients from a spectrum; counts one inverse transform."""
    s = as_series(s)
    n = len(s)
    if not is_supported(n):
        raise UnsupportedLengthError(f"transform length {n} is not 2^a * 3^b")
    real = _is_hermitian(s)
    if real and n % 2 == 0:
        out = _inverse_half(s).astype(np.complex128)
    else:
        out = np.conj(_dft(np.conj(s).reshape(1, n))[0]) / n
        if real:
            out.imag = 0.0
    ledger.record_inverse(n)
    return out
