"""Acceptance criterion 8: both operations complete at n = 2^18, printing an
informational PASS line with their wall times, and all three blockwise ops
meet their residual identities at n = 2^20, where no O(n^2) oracle is
affordable.  Criteria 1-7 live in blockseries.checks and run through
tests/test_checks.py.

Run with `pytest tests/test_acceptance.py -v -s` to see the report line.
"""

import time

import numpy as np
import pytest

from blockseries import TransformLedger, recip, sqrt, sqrt_rem
from blockseries.corpus import conditioned_monic, conditioned_series


def test_criterion_8_walltime_report():
    """Informational: both operations complete at n = 2^18."""
    n = 2**18
    f = conditioned_series(0, n)
    led = TransformLedger()
    t0 = time.perf_counter()
    gr = recip(f, n, led)
    t_recip = time.perf_counter() - t0
    assert np.isfinite(gr).all() and len(gr) == n
    led2 = TransformLedger()
    t0 = time.perf_counter()
    gs = sqrt(f, n, led2)
    t_sqrt = time.perf_counter() - t0
    assert np.isfinite(gs).all() and len(gs) == n
    print(f"\nACCEPTANCE 8: PASS (informational) - n = 2^18: recip {t_recip:.2f}s "
          f"({led.total()} block-phase transforms), sqrt {t_sqrt:.2f}s "
          f"({led2.total()} transforms); no threshold asserted")


def product(a, b, keep):
    """First `keep` coefficients of a*b for real a, b, by a ledger-free np.fft product."""
    size = 1 << (len(a) + len(b) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a.real, size) * np.fft.rfft(b.real, size), size)[:keep]


@pytest.mark.parametrize("op", ["sqrt", "recip", "sqrt_rem"])
def test_residual_at_two_to_the_twenty(op):
    """g^2 - f, f*g - 1 and f - g^2 - rem at n = 2^20 input coefficients."""
    n = 2**20
    if op == "sqrt":
        f = conditioned_series(1, n)
        g = sqrt(f, n, TransformLedger())
        resid = product(g, g, n) - f.real
    elif op == "recip":
        f = conditioned_series(1, n)
        g = recip(f, n, TransformLedger())
        resid = product(f, g, n)
        resid[0] -= 1.0
    else:
        f = conditioned_monic(1, n)
        g, rem = sqrt_rem(f, TransformLedger())
        resid = f.real - product(g, g, n + 1)
        resid[: len(rem)] -= rem.real
    assert not g.imag.any()
    assert np.abs(resid).max() <= 1e-12
