"""Acceptance criteria 5, 6 and 8, each printing a PASS line; criteria 1-4
and 7 live in blockseries.checks (see tests/test_checks.py).

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import time

import numpy as np
import pytest

from blockseries import TransformLedger, oracle, recip, sqrt
from blockseries.bench import run_case
from blockseries.checks import spent, spied
from blockseries.corpus import conditioned_series, random_monic


def test_criterion_5_sqrt_with_remainder():
    """Degree-128 monic split f = g^2 + rem with the strict extra-cost count."""
    worst = 0.0
    for seed in range(10):
        f = random_monic(seed, 128)
        led = TransformLedger()
        (g, rem), calls = spied("blockseries.sqrt", ["_sqrt_blocks"], led,
                                lambda mod: mod.sqrt_rem(f, led))
        assert len(g) == 65 and abs(g[-1] - 1.0) <= 1e-12  # monic, degree 64
        assert len(rem) == 64  # degree < 64
        resid = f - oracle.mul_schoolbook(g, g)
        resid[:64] -= rem
        resid_max = np.abs(resid).max()
        assert resid_max <= 1e-7, f"seed={seed}: {resid_max:.3e}"
        worst = max(worst, resid_max)
        # Extra cost over the plain square-root iteration: 1 forward + r inverse.
        r = calls[0].args[3]  # _sqrt_blocks(fs, g0, h0, r, ledger)
        assert spent(calls[0].after, led.snapshot()) == (1, r), f"seed={seed}"
        assert led.total() == 5 * r - 2
    print(f"\nACCEPTANCE 5: PASS - 10 monic deg-128 splits, residual <= {worst:.2e} "
          f"(tol 1e-7), extra cost exactly 1 forward + r inverse (5r-2 total)")


def test_criterion_6_crossover_and_cost_ratios():
    """Blockwise reciprocal beats doubling for s >= 4; count ratios check out."""
    m = 256
    lines = []
    for s in range(4, 9):
        n = 3 * s * m
        rec = run_case("recip", n, blocks=s, seed=1)
        sch = run_case("recip_schonhage", n, seed=1)
        total = rec.weighted_cost + rec.base_cost
        assert total < sch.weighted_cost, f"s={s}: {total} !< {sch.weighted_cost}"
        expected = (13 * s - 3) / (9 * s)
        assert rec.cost_ratio == pytest.approx(expected, rel=0.05)
        lines.append(f"  recip s={s}: {total:.0f} < {sch.weighted_cost:.0f} "
                     f"(ratio {rec.cost_ratio:.4f}, expected {expected:.4f})")
    # Square root vs a full-precision coupled-Newton run: reported, not gated.
    for r in range(4, 9):
        n = r * m
        rec = run_case("sqrt", n, blocks=r, seed=1)
        base = run_case("sqrt_newton_coupled", n, seed=1)
        expected = (4 * r - 3) / (3 * r)
        assert rec.cost_ratio == pytest.approx(expected, rel=0.05)
        total = rec.weighted_cost + rec.base_cost
        lines.append(f"  sqrt  r={r}: blockwise {total:.0f} vs coupled-Newton "
                     f"{base.weighted_cost:.0f} (ratio {rec.cost_ratio:.4f}, "
                     f"expected {expected:.4f})")
    print("\nACCEPTANCE 6: PASS - weighted-cost crossover for s=4..8 and count "
          "ratios within 5%:")
    print("\n".join(lines))


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
