import numpy as np
import pytest

from blockseries import TransformLedger, oracle, recip
from blockseries.blockwise import decompose
from blockseries.corpus import conditioned_series, random_series
from blockseries.plan import RECIP, predicted_ns
from blockseries.recip import choose_params, recip_block_iter


class TestChooseParams:
    @pytest.mark.parametrize("n", [9, 96, 768, 3072, 2**16, 2**18])
    def test_schedule(self, n):
        plan = choose_params(n)
        assert 3 * plan.blocks * plan.block_size >= n
        assert 1 <= plan.blocks <= RECIP.max_blocks
        costs = [predicted_ns(RECIP, n, s) for s in range(1, RECIP.max_blocks + 1)]
        assert predicted_ns(RECIP, n, plan.blocks) == min(costs)

    def test_coverage(self):
        for n in [1, 5, 100, 4097]:
            plan = choose_params(n)
            assert 3 * plan.blocks * plan.block_size >= n

    def test_bad_values(self):
        with pytest.raises(ValueError):
            choose_params(0)
        for s in (0, 4):  # at most ceil(8 / 3) = 3
            with pytest.raises(ValueError, match=f"block count {s} is outside 1..3"):
                choose_params(8, s)


class TestBlockIteration:
    def test_unit_input(self):
        f = decompose([1], 2, 3)
        got = recip_block_iter(f, [1, 0], 1, TransformLedger())
        want = np.zeros(6)
        want[0] = 1.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_geometric(self):
        f = decompose([1, -1, 0], 1, 3)
        got = recip_block_iter(f, [1], 1, TransformLedger())
        np.testing.assert_allclose(got, [1, 1, 1], atol=1e-12)

    def test_matches_oracle(self):
        m, s = 4, 2
        f = random_series(3, 3 * s * m)
        fs = decompose(f, m, 3 * s)
        g0 = oracle.recip_recurrence(fs.blocks[0], m)
        got = recip_block_iter(fs, g0, s, TransformLedger())
        want = oracle.recip_recurrence(f, 3 * s * m)
        assert np.abs(got - want).max() <= 1e-8


class TestRecip:
    def test_single_coefficient(self):
        np.testing.assert_allclose(recip([1], 1, TransformLedger()), [1])

    def test_alternating(self):
        got = recip([1, 1], 6, TransformLedger())
        np.testing.assert_allclose(got, [1, -1, 1, -1, 1, -1], atol=1e-12)

    def test_harmonic_coefficients(self):
        n = 256
        f = 1.0 / np.arange(1, n + 1)
        got = recip(f, n, TransformLedger())
        want = oracle.recip_recurrence(f, n)
        assert np.abs(got - want).max() <= 1e-8

    def test_base_ledger_separation(self):
        f = conditioned_series(4, 96)
        led, base = TransformLedger(), TransformLedger()
        recip(f, 96, led, blocks=2, base_ledger=base)
        assert set(led.forward) | set(led.inverse) == {32}  # only 2m = 32
        assert base.total() > 0

    def test_requires_unit_constant(self):
        for f in ([0.5], [1 + 1e-12, 1]):
            with pytest.raises(ValueError, match="constant term 1, got"):
                recip(f, 4, TransformLedger())

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            recip([1], 0, TransformLedger())

