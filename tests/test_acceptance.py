"""Acceptance criterion 8: both operations complete at n = 2^18, printing an
informational PASS line with their wall times.  Criteria 1-7 live in
blockseries.checks and run through tests/test_checks.py.

Run with `pytest tests/test_acceptance.py -v -s` to see the report line.
"""

import time

import numpy as np

from blockseries import TransformLedger, recip, sqrt
from blockseries.corpus import conditioned_series


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
