import numpy as np
import pytest

from blockseries import TransformLedger, recip_schonhage, sqrt_newton_coupled
from blockseries import oracle
from blockseries.bench import run_case
from blockseries.corpus import conditioned_series


class TestRecipSchonhage:
    def test_geometric(self):
        got = recip_schonhage([1, -1], 8, TransformLedger())
        np.testing.assert_allclose(got, np.ones(8), atol=1e-12)

    def test_alternating(self):
        got = recip_schonhage([1, 1], 8, TransformLedger())
        np.testing.assert_allclose(got, [1, -1, 1, -1, 1, -1, 1, -1], atol=1e-12)

    def test_matches_oracle(self):
        n = 512
        f = conditioned_series(21, n)
        got = recip_schonhage(f, n, TransformLedger())
        assert np.abs(got - oracle.recip_recurrence(f, n)).max() <= 1e-8 * n

    def test_three_transforms_per_level(self):
        led = TransformLedger()
        recip_schonhage(conditioned_series(1, 64), 64, led)
        # doubling levels 1->2->4->...->64: six levels, 2F + 1I each
        assert sum(led.forward.values()) == 12
        assert sum(led.inverse.values()) == 6

    def test_requires_unit_constant(self):
        for f in ([2], [1 + 1e-12, 1]):
            with pytest.raises(ValueError, match="constant term 1, got"):
                recip_schonhage(f, 4, TransformLedger())


class TestSqrtNewtonCoupled:
    def test_unit(self):
        g, ginv = sqrt_newton_coupled([1], 4, TransformLedger())
        np.testing.assert_allclose(g, [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(ginv, [1, 0, 0, 0], atol=1e-15)

    def test_perfect_square(self):
        g, ginv = sqrt_newton_coupled([1, 2, 1], 2, TransformLedger())
        np.testing.assert_allclose(g, [1, 1], atol=1e-12)
        np.testing.assert_allclose(ginv, [1, -1], atol=1e-12)

    def test_matches_oracle(self):
        n = 256
        f = conditioned_series(22, n)
        g, ginv = sqrt_newton_coupled(f, n, TransformLedger())
        assert np.abs(g - oracle.sqrt_recurrence(f, n)).max() <= 1e-8 * n
        unit = oracle.mul_schoolbook(g, ginv)[:n]
        unit[0] -= 1.0
        assert np.abs(unit).max() <= 1e-8 * n

    def test_requires_unit_constant(self):
        for f in ([0, 1], [1 + 1e-12, 1]):
            with pytest.raises(ValueError, match="constant term 1, got"):
                sqrt_newton_coupled(f, 4, TransformLedger())


class TestCrossover:
    def test_blockwise_beats_doubling_at_four_blocks(self):
        # Weighted cost (sum of len*log2(len)) including the base case.
        m, s = 256, 4
        n = 3 * s * m
        rec = run_case("recip", n, blocks=s, seed=0)
        sch = run_case("recip_schonhage", n, seed=0)
        assert rec.weighted_cost + rec.base_cost < sch.weighted_cost
