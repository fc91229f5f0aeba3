"""Correctness gate: exact transform counts and ledger-free residuals.

Block counts and sizes come from the public ``choose_params`` functions, never
from the ledger under test.  Residuals use ``np.fft`` products, which share no
code with the package's FFT engine and never touch a ledger; they are
computed outside the timed region.
"""

from __future__ import annotations

import math
from collections import Counter
from importlib import import_module

import numpy as np

# Largest residual accepted, in absolute terms.  Inputs are conditioned (tail
# l1 norm 1/4), so correct outputs stay bounded and their residuals sit
# near 1e-16; a corrupted transform lands many orders of magnitude above.
RESIDUAL_BOUND = 1e-9


def plan(op: str, n: int, blocks: int | None) -> tuple[int, int]:
    """(block size m, block parameter) of a blockwise op's default plan.

    The parameter is r for sqrt and sqrtrem, s for recip.  For sqrtrem, r is
    the plan's block count shrunk to ceil((n + 1) / m).
    """
    if op == "recip":
        p = import_module("blockseries.recip").choose_params(n, blocks)
        return p.block_size, p.blocks
    choose = import_module("blockseries.sqrt").choose_params
    if op == "sqrt":
        p = choose(n, blocks)
        return p.block_size, p.blocks
    p = choose(n + 1, blocks)
    return p.block_size, min(p.blocks, -(-(n + 1) // p.block_size))


def expected_counts(op: str, n: int, blocks: int | None):
    """(transform length, forward count, inverse count) of the main ledger.

    Square root: 4r - 3 = (2r - 1) forward + (2r - 2) inverse.  Reciprocal:
    13s - 3 = (7s - 1) forward + (6s - 2) inverse.  Square root with
    remainder: 5r - 2 = 2r forward + (3r - 2) inverse.  None for the
    doubling comparators, which have no paper count.
    """
    if op not in ("sqrt", "recip", "sqrtrem"):
        return None
    m, k = plan(op, n, blocks)
    fwd, inv = {"sqrt": (2 * k - 1, 2 * k - 2), "recip": (7 * k - 1, 6 * k - 2),
                "sqrtrem": (2 * k, 3 * k - 2)}[op]
    return 2 * m, fwd, inv


def transform_cost(length: int) -> float:
    return length * math.log2(length) if length > 1 else 0.0


def weighted_cost(*tables: Counter) -> float:
    """Sum of length * log2(length) over per-length transform counts."""
    return sum(c * transform_cost(n) for t in tables for n, c in t.items())


def cost_ratio(op: str, n: int, blocks: int | None, weighted: float) -> float:
    """Main-ledger weighted cost over that of three full-length products.

    As in the package's bench records: (4r-3)/(3r) for sqrt and
    (13s-3)/(9s) for recip when the counts are exact; (5r-2)/(3r) for sqrtrem.
    """
    m, k = plan(op, n, blocks)
    out_blocks = 3 * k if op == "recip" else k
    return weighted / (3 * out_blocks * transform_cost(2 * m))


def _mul(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out coefficients of a*b, zero-padded if the product is shorter."""
    size = len(a) + len(b) - 1
    fft_len = 1 << (size - 1).bit_length()
    prod = np.fft.ifft(np.fft.fft(a, fft_len) * np.fft.fft(b, fft_len))[:size]
    out = np.zeros(n_out, dtype=np.complex128)
    out[: min(n_out, size)] = prod[:n_out]
    return out


def _head(f: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.complex128)
    out[: min(n, len(f))] = f[:n]
    return out


def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if len(x) else 0.0


def residual(op: str, n: int, f: np.ndarray, out) -> float:
    """Largest coefficient of the defining identity's defect.

    sqrt: g^2 - f;  recip: f*g - 1;  sqrtrem: f - g^2 - rem;  the coupled
    Newton comparator also checks its reciprocal root, g*v - 1.  Raises
    ValueError when the output has the wrong shape.
    """
    one = np.zeros(n, dtype=np.complex128)
    one[:1] = 1.0
    if op == "sqrtrem":
        g, rem = out
        if len(g) != n + 1 or len(rem) != n:
            raise ValueError(f"sqrtrem output lengths {len(g)}, {len(rem)} for n = {n}")
        defect = f - _mul(g, g, 2 * n + 1)
        defect[:n] -= rem
        return _max_abs(defect)
    if op == "doubling_sqrt":
        g, v = out
        _require_len(g, n)
        _require_len(v, n)
        return max(_max_abs(_mul(g, g, n) - _head(f, n)), _max_abs(_mul(g, v, n) - one))
    _require_len(out, n)
    if op == "sqrt":
        return _max_abs(_mul(out, out, n) - _head(f, n))
    return _max_abs(_mul(_head(f, n), out, n) - one)


def _require_len(g: np.ndarray, n: int) -> None:
    if len(g) != n:
        raise ValueError(f"output length {len(g)}, expected {n}")


def check(op: str, n: int, blocks, f, out, forward: Counter | None, inverse: Counter | None):
    """Return (residual, problem); problem is None when the call passed.

    ``forward``/``inverse`` are the main ledger's per-length counts; pass
    None for the doubling comparators.
    """
    try:
        res = residual(op, n, f, out)
    except ValueError as exc:
        return math.inf, str(exc)
    if not res <= RESIDUAL_BOUND:
        return res, f"residual {res:.3g} exceeds {RESIDUAL_BOUND:g}"
    counts = expected_counts(op, n, blocks)
    if counts is not None:
        length, fwd, inv = counts
        want_f = +Counter({length: fwd})
        want_i = +Counter({length: inv})
        if +forward != want_f or +inverse != want_i:
            return res, (
                f"ledger forward {dict(forward)} inverse {dict(inverse)}, "
                f"expected forward {dict(want_f)} inverse {dict(want_i)}"
            )
    return res, None
