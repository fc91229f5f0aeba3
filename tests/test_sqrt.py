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
from blockseries.bench import OPS
from blockseries.corpus import (
    conditioned_monic,
    conditioned_series,
    random_monic,
    random_series,
    sparse_dyadic_split,
    sparse_dyadic_square,
)
from blockseries.plan import SQRT, predicted_ns
from blockseries.sqrt import rem_params


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
        for n in (2**16, 2**18):
            plan = assert_cheapest_plan(n)
            # The base case is priced in, so the plan splits large n finely.
            assert plan.blocks > round(math.log2(n) / 2)
        # At 2^12 a timed sweep read r = 4 fastest and r = 8 15% slower.
        assert assert_cheapest_plan(2**12).blocks >= 4

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

    def test_known_answer_at_two_to_the_sixteen(self):
        f, want = sparse_dyadic_square(5, 2**16)
        assert np.abs(sqrt(f, 2**16, TransformLedger()) - want).max() <= 1e-15

    def test_known_answer_at_two_to_the_twenty(self):
        # Measured error 3.1e-18, as at 2^16.
        f, want = sparse_dyadic_square(5, 2**20)
        assert np.abs(sqrt(f, 2**20, TransformLedger()) - want).max() <= 1e-15

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


def rem_branch(n, blocks=None):
    """Which end piece sqrt_rem forms directly at half-degree n: with slack
    padding coefficients in the last of r blocks of size m, the remainder
    reads the last slack coefficients of block r-1 and the first
    top = m - 2*slack - 1 of block 2r-1."""
    plan = rem_params(n, blocks)
    slack = plan.blocks * plan.block_size - (n + 1)
    top = plan.block_size - 2 * slack - 1
    if slack == 0:
        return "no slack"
    if top >= slack:
        return "gap"
    return "block r-1 and top" if top > 0 else "block r-1"


def oracle_split(f, n):
    """(g, rem) of a monic degree-2n f by the O(n^2) recurrence on its reversal."""
    g = oracle.sqrt_recurrence(f[::-1], n + 1)[::-1]
    return g, (f - oracle.mul_schoolbook(g, g))[:n]


class TestSqrtRemBranches:
    """One case per way of forming the remainder's part of the square."""

    @pytest.mark.parametrize("n,blocks,branch", [
        (3, None, "no slack"),
        (10, None, "gap"),
        (12, None, "block r-1 and top"),
        (3072, 4, "block r-1 and top"),
        (48, 4, "block r-1"),
    ])
    def test_matches_oracle(self, n, blocks, branch):
        assert rem_branch(n, blocks) == branch
        plan = rem_params(n, blocks)
        for seed in range(3):
            f = conditioned_monic(seed, 2 * n)
            if seed == 2:
                f[:-1] = f[:-1] + 0.5j * f[:-1]  # complex coefficients
            want_g, want_rem = oracle_split(f, n)
            led = TransformLedger()
            g, rem = sqrt_rem(f, led, blocks=blocks)
            assert led.record == TransformLedger.of(
                OPS["sqrtrem"].schedule(plan.blocks, plan.block_size)).record
            assert np.abs(g - want_g).max() <= 1e-12
            assert np.abs(rem - want_rem).max() <= 1e-12

    def test_block_r_minus_one_needs_no_convolve(self, monkeypatch):
        # r = 4, m = 16, slack = 15: block 2r-1 lies above degree 2n.
        n = 48
        f = conditioned_monic(4, 2 * n)
        want_g, want_rem = oracle_split(f, n)

        def no_convolve(*args, **kwargs):
            raise AssertionError("np.convolve called")

        monkeypatch.setattr(np, "convolve", no_convolve)
        g, rem = sqrt_rem(f, TransformLedger(), blocks=4)
        monkeypatch.undo()
        assert np.abs(g - want_g).max() <= 1e-12
        assert np.abs(rem - want_rem).max() <= 1e-12


class TestSqrtRemKnownAnswer:
    """f = g^2 + rem with sparse dyadic g and rem is exact in floating point,
    so sqrt_rem's output is compared with the true split, not with a
    residual.  Every nonzero coefficient of g below its leading one and of rem
    is a multiple of 2^-20.  The error measured is below 3e-17 over seeds 1-3
    at half-degrees 3072..2^18; at 2^20 (seeds 1, 2 and 7) it is 1.1e-16 in g
    and at most 2.6e-19 in rem, and at half-degrees 1..64 at most 2.2e-16.  So
    the tolerance of 1e-15 is loose against round-off and still catches any
    wrong coefficient."""

    @pytest.mark.parametrize("n,branch", [(2**20, "block r-1"), (2**18, "block r-1"),
                                          (2**16, "gap")])
    def test_known_split(self, n, branch):
        assert rem_branch(n) == branch
        self.check_split(7, n)

    def test_every_half_degree_to_64(self):
        for n in range(1, 65):
            for seed in (1, 2, 3):
                self.check_split(seed, n)

    @staticmethod
    def check_split(seed, n):
        f, want_g, want_rem = sparse_dyadic_split(seed, n)
        g, rem = sqrt_rem(f, TransformLedger())
        assert np.abs(g - want_g).max() <= 1e-15, (n, seed)
        assert np.abs(rem - want_rem).max() <= 1e-15, (n, seed)
