import math

import numpy as np
import pytest

from blockseries import TransformLedger, next_supported, recip_schonhage, sqrt_newton_coupled
from blockseries.corpus import conditioned_series, sparse_dyadic_square


def np_product(a, b, keep):
    """First `keep` coefficients of a*b by a ledger-free np.fft product."""
    size = 2 * len(a) + 2 * len(b)
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:keep]


class TestRecipSchonhage:
    def test_geometric(self):
        got = recip_schonhage([1, -1], 8, TransformLedger())
        np.testing.assert_allclose(got, np.ones(8), atol=1e-12)

    def test_alternating(self):
        got = recip_schonhage([1, 1], 8, TransformLedger())
        np.testing.assert_allclose(got, [1, -1, 1, -1, 1, -1, 1, -1], atol=1e-12)

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

    def test_known_answer_at_two_to_the_sixteen(self):
        n = 2**16
        f, want = sparse_dyadic_square(5, n)
        g, ginv = sqrt_newton_coupled(f, n, TransformLedger())
        assert np.abs(g - want).max() <= 1e-13
        unit = np_product(g, ginv, n)
        unit[0] -= 1.0
        assert np.abs(unit).max() <= 1e-13

    def test_three_transforms_per_level(self):
        led = TransformLedger()
        sqrt_newton_coupled(conditioned_series(1, 64), 64, led)
        # levels 1->2->...->64 at length 4k: 2F + 1I each; then g = f*v at
        # 128, reusing the last level's spectrum of f: 1F + 1I
        assert led.forward == {4: 2, 8: 2, 16: 2, 32: 2, 64: 2, 128: 3}
        assert led.inverse == {4: 1, 8: 1, 16: 1, 32: 1, 64: 1, 128: 2}

    def test_unit_input_needs_no_transforms(self):
        led = TransformLedger()
        g, ginv = sqrt_newton_coupled([1, 5], 1, led)
        assert list(g) == list(ginv) == [1]
        assert led.total() == 0

    @pytest.mark.parametrize("n", [2**10, 2**14, 2**16])
    def test_costs_at_most_three_multiplications(self, n):
        # M(n): three transforms of length next_supported(2n).
        length = next_supported(2 * n)
        led = TransformLedger()
        sqrt_newton_coupled(conditioned_series(2, n), n, led)
        assert led.weighted_cost() <= 3 * (3 * length * math.log2(length))

    def test_requires_unit_constant(self):
        for f in ([0, 1], [1 + 1e-12, 1]):
            with pytest.raises(ValueError, match="constant term 1, got"):
                sqrt_newton_coupled(f, 4, TransformLedger())

