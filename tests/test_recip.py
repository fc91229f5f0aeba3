import numpy as np
import pytest

from blockseries import TransformLedger, decompose, recip, recip_block_iter
from blockseries import oracle
from blockseries.checks import spent, spied, third_order_residual
from blockseries.corpus import conditioned_series, random_series
from blockseries.plan import RECIP, predicted_ns
from blockseries.recip import choose_params


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
        with pytest.raises(ValueError):
            choose_params(8, 0)


class TestBlockIteration:
    def test_unit_input(self):
        f = decompose([1], 2, 3)
        led = TransformLedger()
        got, calls = spied("blockseries.recip", ["product_block"], led,
                           lambda mod: mod.recip_block_iter(f, [1, 0], 1, led))
        want = np.zeros(6)
        want[0] = 1.0
        np.testing.assert_allclose(got, want, atol=1e-12)
        # Every correction block, the update's last multiplier, is zero.
        assert np.abs(calls[-1].args[0].series.recompose()).max() <= 1e-12

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

    @pytest.mark.parametrize("s", [1, 2, 5, 8])
    def test_transform_count(self, s):
        m = 16
        f = random_series(s, 3 * s * m)
        fs = decompose(f, m, 3 * s)
        g0 = oracle.recip_recurrence(fs.blocks[0], m)
        led = TransformLedger()
        recip_block_iter(fs, g0, s, led)
        assert dict(led.forward) == {2 * m: 7 * s - 1}
        assert dict(led.inverse) == {2 * m: 6 * s - 2}

    def test_fused_pass_economy(self):
        # The fused phase spends exactly s inverse transforms, one per block,
        # even though each block combines two products.  Its kernel calls are
        # the only combined_block calls, after 2s - 1 product_block calls.
        m, s = 4, 3
        fs = decompose(random_series(9, 3 * s * m), m, 3 * s)
        g0 = oracle.recip_recurrence(fs.blocks[0], m)
        led = TransformLedger()
        _, calls = spied("blockseries.recip", ["product_block", "combined_block"], led,
                         lambda mod: mod.recip_block_iter(fs, g0, s, led))
        assert [c.name for c in calls[2 * s - 1 : 3 * s - 1]] == ["combined_block"] * s
        fused_end = calls[3 * s - 1].before
        assert spent(calls[2 * s - 1].before, fused_end) == (s, s)
        # The closing update phase adds no forward transforms at all.
        assert spent(fused_end, led.snapshot()) == (0, 2 * s)

    def test_correction_structure(self):
        # Assembled correction blocks equal -defect + defect^2 * X^s where
        # f * inv_low = 1 + defect * X^s, all recomputed by schoolbook.  The
        # last product of the update phase multiplies by the correction.
        m, s = 4, 3
        fs = decompose(random_series(11, 3 * s * m), m, 3 * s)
        g0 = oracle.recip_recurrence(fs.blocks[0], m)
        led = TransformLedger()
        g, calls = spied("blockseries.recip", ["product_block"], led,
                         lambda mod: mod.recip_block_iter(fs, g0, s, led))
        inv_low = g[: s * m]
        prod = oracle.mul_schoolbook(np.concatenate(fs.blocks), inv_low)[: 3 * s * m]
        defect = prod[s * m :]
        want = -defect[: 2 * s * m].copy()
        want[s * m :] += oracle.mul_schoolbook(defect[: s * m], defect[: s * m])[: s * m]
        got = calls[-1].args[0].series.recompose()
        assert np.abs(got - want).max() <= 1e-10

    def test_division_loop_identity(self):
        # In the division loop, f0 * g_k cancels the partial-product residual.
        m, s = 4, 4
        f = random_series(13, 3 * s * m)
        fs = decompose(f, m, 3 * s)
        g0 = oracle.recip_recurrence(fs.blocks[0], m)
        g = recip_block_iter(fs, g0, s, TransformLedger())
        for k in range(1, s):
            partial = oracle.mul_schoolbook(
                np.concatenate(fs.blocks[: k + 1]), g[: k * m]
            )
            resid = np.zeros(m, dtype=np.complex128)
            seg = partial[k * m : (k + 1) * m]
            resid[: len(seg)] = seg
            lhs = oracle.mul_schoolbook(fs.blocks[0], g[k * m : (k + 1) * m])[:m]
            assert np.abs(lhs + resid).max() <= 1e-10

    def test_validation(self):
        f = decompose([1, 0, 0], 1, 3)
        with pytest.raises(ValueError):
            recip_block_iter(f, [1], 0, TransformLedger())
        with pytest.raises(ValueError):
            recip_block_iter(f, [1, 0], 1, TransformLedger())
        with pytest.raises(ValueError):
            recip_block_iter(f, [1], 2, TransformLedger())


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

    @pytest.mark.parametrize("n", [9, 96, 768])
    def test_matches_oracle(self, n):
        f = conditioned_series(n, n)
        got = recip(f, n, TransformLedger())
        assert np.abs(got - oracle.recip_recurrence(f, n)).max() <= 1e-8 * n

    def test_base_ledger_separation(self):
        f = conditioned_series(4, 96)
        led, base = TransformLedger(), TransformLedger()
        recip(f, 96, led, blocks=2, base_ledger=base)
        assert set(led.forward) | set(led.inverse) == {32}  # only 2m = 32
        assert base.total() > 0

    def test_determinism(self):
        f = random_series(6, 300)
        a = recip(f, 300, TransformLedger())
        b = recip(f, 300, TransformLedger())
        assert np.array_equal(a, b)

    def test_requires_unit_constant(self):
        for f in ([0.5], [1 + 1e-12, 1]):
            with pytest.raises(ValueError, match="constant term 1, got"):
                recip(f, 4, TransformLedger())

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            recip([1], 0, TransformLedger())


class TestThirdOrderIdentity:
    def test_geometric_pair(self):
        assert third_order_residual([1, 1], [1, -1], 2) <= 1e-12

    def test_trivial_pair(self):
        assert third_order_residual([1], [1], 1) == 0.0

    def test_oracle_inverse(self):
        f = random_series(7, 24)
        g = oracle.recip_recurrence(f, 8)
        assert third_order_residual(g, f, 8) <= 1e-10

    def test_detects_bad_inverse(self):
        with pytest.raises(ValueError, match="not 1"):
            third_order_residual([1, 1], [1, 1], 2)
