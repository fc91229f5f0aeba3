import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockseries import (
    TransformLedger,
    UnsupportedLengthError,
    cyclic_convolution,
    forward,
    inverse,
    is_supported,
    middle_product,
    next_supported,
    pointwise_mul,
)
from blockseries import oracle


def all_supported_up_to(limit):
    return sorted(n for n in range(1, limit + 1) if is_supported(n))


class TestForward:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        led = TransformLedger()
        for n in [6, 27, 48]:
            p = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            roots = np.exp(2j * np.pi * np.arange(n) / n)
            direct = np.array([np.polyval(p[::-1], w) for w in roots])
            np.testing.assert_allclose(forward(p, n, led), direct, atol=1e-10)

    def test_ledger_increment(self):
        led = TransformLedger()
        forward([1, 2], 4, led)
        forward([1], 4, led)
        forward([1], 6, led)
        assert dict(led.forward) == {4: 2, 6: 1}
        assert dict(led.inverse) == {}

    def test_unsupported_length(self):
        with pytest.raises(UnsupportedLengthError):
            forward([1], 5, TransformLedger())

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            forward([1.0, np.nan], 4, TransformLedger())

    def test_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            forward([1, 2, 3], 2, TransformLedger())


class TestInverse:
    def test_constant(self):
        np.testing.assert_allclose(inverse([1, 1], TransformLedger()), [1, 0], atol=1e-15)

    def test_alternating_is_x(self):
        np.testing.assert_allclose(inverse([1, -1], TransformLedger()), [0, 1], atol=1e-15)

    def test_roundtrip_eight(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(-1, 1, 8)
        led = TransformLedger()
        got = inverse(forward(p, 8, led), led)
        assert np.abs(got - p).max() <= 1e-12

    def test_unsupported_length(self):
        with pytest.raises(UnsupportedLengthError):
            inverse(np.ones(7), TransformLedger())


class TestRoundTrip:
    @pytest.mark.parametrize("n", all_supported_up_to(2**14))
    def test_all_supported_sizes(self, n):
        rng = np.random.default_rng(n)
        p = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        led = TransformLedger()
        got = inverse(forward(p, n, led), led)
        assert np.abs(got - p).max() <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0),
    )
    def test_roundtrip_property(self, a, b, seed):
        n = 2**a * 3**b
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1, 1, n)
        led = TransformLedger()
        assert np.abs(inverse(forward(p, n, led), led) - p).max() <= 1e-10


class TestTransformOfShift:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 9, 16, 24, 81, 128])
    def test_alternating_signs(self, m):
        # x^m evaluated at the 2m-th roots of unity alternates +1/-1.
        x = np.zeros(m + 1)
        x[m] = 1.0
        got = forward(x, 2 * m, TransformLedger())
        expect = np.where(np.arange(2 * m) % 2, -1.0, 1.0)
        assert np.abs(got - expect).max() <= 1e-12


class TestPointwise:
    def test_basic(self):
        np.testing.assert_allclose(
            pointwise_mul(np.array([1, 1.0]), np.array([1, -1.0])), [1, -1]
        )

    def test_annihilator(self):
        np.testing.assert_allclose(
            pointwise_mul(np.array([2, 3.0]), np.zeros(2)), [0, 0]
        )

    def test_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pointwise_mul(np.ones(2), np.ones(3))

    def test_convolution_theorem(self):
        p, q = [1, 1, 0, 0], [1, 0, 1, 0]
        led = TransformLedger()
        lhs = pointwise_mul(forward(p, 4, led), forward(q, 4, led))
        full = oracle.mul_schoolbook(p, q)
        wrapped = full[:4].copy()
        wrapped[: len(full) - 4] += full[4:]
        rhs = forward(wrapped, 4, led)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCyclicConvolution:
    def test_one_plus_x_squared(self):
        got = cyclic_convolution([1, 1], [1, 1], 2, TransformLedger())
        np.testing.assert_allclose(got, [2, 2], atol=1e-12)

    def test_identity_factor(self):
        rng = np.random.default_rng(2)
        g2 = rng.uniform(-1, 1, 3)
        got = cyclic_convolution([1, 0, 0, 0], g2, 4, TransformLedger())
        np.testing.assert_allclose(got, np.append(g2, 0.0), atol=1e-12)

    def test_x_times_x(self):
        got = cyclic_convolution([0, 1], [0, 1], 2, TransformLedger())
        np.testing.assert_allclose(got, [1, 0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 16, 54, 96, 1024])
    def test_matches_schoolbook_reduction(self, n):
        rng = np.random.default_rng(n)
        g1 = rng.uniform(-1, 1, n)
        g2 = rng.uniform(-1, 1, n)
        got = cyclic_convolution(g1, g2, n, TransformLedger())
        full = oracle.mul_schoolbook(g1, g2)
        want = full[:n].copy()
        want[: n - 1] += full[n:]
        tol = 1e-9 * n * max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= tol


class TestMiddleProduct:
    def test_example(self):
        got = middle_product([1, 2, 3, 4], [5, 6], 2, TransformLedger())
        np.testing.assert_allclose(got, [27, 38], atol=1e-10)

    def test_shift_passes_through(self):
        rng = np.random.default_rng(3)
        n = 8
        h = rng.uniform(-1, 1, n)
        g = np.zeros(2 * n)
        g[n] = 1.0
        got = middle_product(g, h, n, TransformLedger())
        np.testing.assert_allclose(got, h, atol=1e-12)

    def test_zero_factor(self):
        got = middle_product(np.zeros(8), np.ones(4), 4, TransformLedger())
        np.testing.assert_allclose(got, np.zeros(4), atol=1e-15)

    @pytest.mark.parametrize("n", all_supported_up_to(2**12))
    def test_matches_naive(self, n):
        rng = np.random.default_rng(n)
        g = rng.uniform(-1, 1, 2 * n)
        h = rng.uniform(-1, 1, n)
        got = middle_product(g, h, n, TransformLedger())
        want = oracle.middle_product_naive(g, h, n)
        tol = 1e-9 * n * max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= tol

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            middle_product(np.ones(5), np.ones(2), 2, TransformLedger())
        with pytest.raises(ValueError):
            middle_product(np.ones(4), np.ones(3), 2, TransformLedger())


class TestSupportedSizes:
    def test_examples(self):
        assert next_supported(5) == 6
        assert next_supported(8) == 8
        assert next_supported(100) == 108
        assert next_supported(25) == 27
        assert next_supported(1) == 1

    def test_matches_enumeration(self):
        smooth = all_supported_up_to(2000)
        for n in [1, 2, 7, 13, 97, 100, 1000, 1537]:
            assert next_supported(n) == min(s for s in smooth if s >= n)

    def test_closed_under_doubling(self):
        for n in all_supported_up_to(512):
            assert is_supported(2 * n)

    def test_invalid(self):
        with pytest.raises(ValueError):
            next_supported(0)
        assert not is_supported(0)
        assert not is_supported(10)


class TestLedger:
    def test_merge_and_delta(self):
        a, b = TransformLedger(), TransformLedger()
        forward([1], 2, a)
        snap = a.snapshot()
        forward([1], 4, a)
        inverse(np.ones(4), b)
        a.merge(b)
        dfwd, dinv = a.delta(snap)
        assert dict(dfwd) == {4: 1} and dict(dinv) == {4: 1}
        assert a.total() == 3

    def test_weighted_cost(self):
        led = TransformLedger()
        forward([1], 8, led)
        inverse(np.ones(8), led)
        assert led.weighted_cost() == pytest.approx(2 * 8 * 3.0)
