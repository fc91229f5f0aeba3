import math

import numpy as np
import pytest

from blockseries import (
    TransformLedger,
    choose_params,
    decompose,
    sqrt,
    sqrt_block_iter,
    sqrt_rem,
)
from blockseries import oracle
from blockseries.corpus import conditioned_series, random_monic, random_series
from blockseries.plan import SQRT, predicted_ns


def oracle_base(f_block, m):
    g0 = oracle.sqrt_recurrence(f_block, m)
    return g0, oracle.recip_recurrence(g0, m)


def assert_cheapest_plan(n):
    plan = choose_params(n)
    assert plan.blocks * plan.block_size >= n
    assert 1 <= plan.blocks <= SQRT.max_blocks
    costs = [predicted_ns(SQRT, n, k) for k in range(1, SQRT.max_blocks + 1)]
    assert predicted_ns(SQRT, n, plan.blocks) == min(costs)
    return plan


class TestChooseParams:
    def test_smallest(self):
        for n in range(1, 65):
            assert_cheapest_plan(n)
        assert choose_params(1) == choose_params(1, 1)

    def test_power_of_two(self):
        for n in (2**12, 2**16, 2**18):
            plan = assert_cheapest_plan(n)
            # The base case is priced in, so the plan splits large n finely.
            assert plan.blocks > round(math.log2(n) / 2)

    def test_override(self):
        plan = choose_params(100, 4)
        assert (plan.blocks, plan.block_size) == (4, 27)

    def test_coverage(self):
        for n in [1, 2, 17, 999, 10_000]:
            plan = choose_params(n)
            assert plan.blocks * plan.block_size >= n

    def test_bad_override(self):
        for blocks in (0, 17):  # at most ceil(n / 1) = 16 blocks
            with pytest.raises(ValueError, match=f"block count {blocks} is outside 1..16"):
                choose_params(16, blocks)

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            choose_params(0)


class TestBlockIteration:
    def test_unit_input(self):
        f = decompose([1], 4, 3)
        g0, g0_inv = oracle_base(f.blocks[0], 4)
        got = sqrt_block_iter(f, g0, g0_inv, 3, TransformLedger())
        want = np.zeros(12)
        want[0] = 1.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_perfect_square(self):
        f = decompose([1, 2, 1, 0], 2, 2)
        got = sqrt_block_iter(f, [1, 1], [1, -1], 2, TransformLedger())
        np.testing.assert_allclose(got, [1, 1, 0, 0], atol=1e-12)

    def test_matches_oracle(self):
        m, blocks = 8, 5
        f = random_series(42, m * blocks)
        fs = decompose(f, m, blocks)
        g0, g0_inv = oracle_base(fs.blocks[0], m)
        got = sqrt_block_iter(fs, g0, g0_inv, blocks, TransformLedger())
        want = oracle.sqrt_recurrence(f, m * blocks)
        assert np.abs(got - want).max() <= 1e-10

    def test_validation(self):
        f = decompose([1, 0, 0, 0], 2, 2)
        with pytest.raises(ValueError):
            sqrt_block_iter(f, [1, 0], [1, 0], 0, TransformLedger())
        with pytest.raises(ValueError):
            sqrt_block_iter(f, [1], [1, 0], 2, TransformLedger())
        with pytest.raises(ValueError):
            sqrt_block_iter(f, [1, 0], [1, 0], 3, TransformLedger())


class TestSqrt:
    def test_single_coefficient(self):
        np.testing.assert_allclose(sqrt([1], 1, TransformLedger()), [1])

    def test_perfect_square_padded(self):
        got = sqrt([1, 2, 1], 4, TransformLedger())
        np.testing.assert_allclose(got, [1, 1, 0, 0], atol=1e-12)

    def test_binomial_series(self):
        got = sqrt([1, 1], 8, TransformLedger())
        want = [1, 1 / 2, -1 / 8, 1 / 16, -5 / 128, 7 / 256, -21 / 1024, 33 / 2048]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [16, 100, 512])
    def test_matches_oracle(self, n):
        f = conditioned_series(n, n)
        got = sqrt(f, n, TransformLedger())
        assert np.abs(got - oracle.sqrt_recurrence(f, n)).max() <= 1e-8 * n

    def test_blocks_override_used(self):
        f = conditioned_series(1, 100)
        led = TransformLedger()
        sqrt(f, 100, led, blocks=4)
        assert dict(led.forward) == {54: 7}  # 2(r-1)+1 at 2m = 54

    def test_base_ledger_separation(self):
        f = conditioned_series(2, 64)
        led, base = TransformLedger(), TransformLedger()
        sqrt(f, 64, led, blocks=4, base_ledger=base)
        assert set(led.forward) | set(led.inverse) == {32}  # only 2m = 32
        assert base.total() > 0

    def test_requires_unit_constant(self):
        for f in ([2, 1], [1 + 1e-12, 1]):
            with pytest.raises(ValueError, match="constant term 1, got"):
                sqrt(f, 4, TransformLedger())

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            sqrt([1], 0, TransformLedger())


class TestSqrtRem:
    def test_perfect_square(self):
        g, rem = sqrt_rem(np.array([1.0, 2.0, 1.0]), TransformLedger())
        np.testing.assert_allclose(g, [1, 1], atol=1e-12)
        np.testing.assert_allclose(rem, [0], atol=1e-12)

    def test_x_squared_plus_one(self):
        g, rem = sqrt_rem(np.array([1.0, 0.0, 1.0]), TransformLedger())
        np.testing.assert_allclose(g, [0, 1], atol=1e-12)
        np.testing.assert_allclose(rem, [1], atol=1e-12)

    def test_degree_64(self):
        for seed in range(3):
            f = random_monic(seed, 64)
            g, rem = sqrt_rem(f, TransformLedger())
            assert len(g) == 33 and len(rem) == 32
            assert abs(g[-1] - 1.0) <= 1e-12
            resid = f - oracle.mul_schoolbook(g, g)
            resid[:32] -= rem
            assert np.abs(resid).max() <= 1e-8

    def test_rejects_bad_inputs(self):
        for lead in (2.0, 1 + 1e-12):
            with pytest.raises(ValueError, match="monic"):
                sqrt_rem(np.array([1.0, 0.0, lead]), TransformLedger())
        with pytest.raises(ValueError, match="degree"):
            sqrt_rem(np.array([1.0, 0.0, 0.0, 1.0]), TransformLedger())
        with pytest.raises(ValueError, match="degree"):
            sqrt_rem(np.array([1.0]), TransformLedger())
