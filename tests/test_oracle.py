import inspect

import numpy as np
import pytest

from blockseries import oracle


class TestMulSchoolbook:
    def test_square_of_one_plus_x(self):
        np.testing.assert_allclose(oracle.mul_schoolbook([1, 1], [1, 1]), [1, 2, 1])

    def test_empty_factor(self):
        assert len(oracle.mul_schoolbook([1, 2, 3], [])) == 0

    def test_example(self):
        np.testing.assert_allclose(
            oracle.mul_schoolbook([1, 2, 3, 4], [5, 6]), [5, 16, 27, 38, 24]
        )


class TestSqrtRecurrence:
    def test_perfect_square(self):
        got = oracle.sqrt_recurrence([1, 2, 1], 5)
        np.testing.assert_allclose(got, [1, 1, 0, 0, 0], atol=1e-15)

    def test_one(self):
        np.testing.assert_allclose(oracle.sqrt_recurrence([1], 4), [1, 0, 0, 0])

    def test_binomial_series(self):
        got = oracle.sqrt_recurrence([1, 1], 8)
        want = [1, 1 / 2, -1 / 8, 1 / 16, -5 / 128, 7 / 256, -21 / 1024, 33 / 2048]
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_self_consistency(self):
        rng = np.random.default_rng(0)
        n = 64
        f = np.concatenate([[1.0], rng.uniform(-0.25, 0.25, n - 1) / n])
        g = oracle.sqrt_recurrence(f, n)
        np.testing.assert_allclose(oracle.mul_schoolbook(g, g)[:n], f, atol=1e-12)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            oracle.sqrt_recurrence([2, 1], 4)


class TestRecipRecurrence:
    def test_geometric(self):
        np.testing.assert_allclose(oracle.recip_recurrence([1, -1], 5), np.ones(5))

    def test_alternating(self):
        np.testing.assert_allclose(
            oracle.recip_recurrence([1, 1], 5), [1, -1, 1, -1, 1]
        )

    def test_period_three(self):
        got = oracle.recip_recurrence([1, 1, 1], 6)
        np.testing.assert_allclose(got, [1, -1, 0, 1, -1, 0], atol=1e-15)

    def test_self_consistency(self):
        rng = np.random.default_rng(1)
        n = 64
        f = np.concatenate([[1.0], rng.uniform(-0.25, 0.25, n - 1) / n])
        g = oracle.recip_recurrence(f, n)
        unit = oracle.mul_schoolbook(f, g)[:n]
        unit[0] -= 1.0
        assert np.abs(unit).max() <= 1e-12

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            oracle.recip_recurrence([0.5, 1], 4)


def test_no_transforms_by_construction():
    # Independence from the FFT path: no oracle takes a ledger and the module
    # never imports the transform engine.
    for name in ("mul_schoolbook", "sqrt_recurrence", "recip_recurrence"):
        params = inspect.signature(getattr(oracle, name)).parameters
        assert "ledger" not in params
    src = inspect.getsource(oracle)
    assert "from .transform" not in src and "import transform" not in src
