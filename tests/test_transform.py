import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockseries import (
    TransformLedger,
    UnsupportedLengthError,
    forward,
    inverse,
    is_supported,
    next_supported,
    recip,
    recip_schonhage,
    sqrt,
    sqrt_newton_coupled,
    sqrt_rem,
)
from blockseries import oracle, transform
from blockseries.corpus import conditioned_series

ENTRY_POINTS = {
    "sqrt": lambda f: sqrt(f, 4, TransformLedger()),
    "recip": lambda f: recip(f, 4, TransformLedger()),
    "sqrt_rem": lambda f: sqrt_rem(f, TransformLedger()),
    "recip_schonhage": lambda f: recip_schonhage(f, 4, TransformLedger()),
    "sqrt_newton_coupled": lambda f: sqrt_newton_coupled(f, 4, TransformLedger()),
}


class TestInputValidation:
    @pytest.mark.parametrize("op", ENTRY_POINTS)
    @pytest.mark.parametrize("bad, shown", [(np.inf, "(inf+0j)"), (np.nan, "(nan+0j)"),
                                            (complex(1, -np.inf), "(1-infj)")],
                             ids=["inf", "nan", "complex"])
    def test_non_finite_input_names_first_index(self, op, bad, shown):
        f = np.array([1, 0.5, bad, np.nan, 1], dtype=np.complex128)  # monic, for sqrt_rem
        want = re.escape(f"non-finite coefficient at index 2: {shown}") + "$"
        with pytest.raises(ValueError, match=want):
            ENTRY_POINTS[op](f)

    def test_overflow_inside_is_reported_by_the_transform(self):
        # Finite input that overflows in the iteration: only the transform's
        # own check can see it.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite value in a length-4 transform input"):
                recip([1, 1e200], 4, TransformLedger())


def all_supported_up_to(limit):
    """Every 2^a * 3^b <= limit, enumerated apart from the package's table."""
    return sorted(p for p in (2**a * 3**b for a in range(70) for b in range(45)) if p <= limit)


class TestForward:
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
        with pytest.raises(ValueError, match="non-finite value in a length-4 transform input"):
            forward([1.0, np.nan], 4, TransformLedger())

    def test_too_long(self):
        with pytest.raises(ValueError, match="exceeds"):
            forward([1, 2, 3], 2, TransformLedger())


class TestInverse:
    def test_constant(self):
        np.testing.assert_allclose(inverse([1, 1], TransformLedger()), [1, 0], atol=1e-15)

    def test_alternating_is_x(self):
        np.testing.assert_allclose(inverse([1, -1], TransformLedger()), [0, 1], atol=1e-15)

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

    @pytest.mark.parametrize("n", [2**17, 3 * 2**15, 2 * 3**10])
    def test_working_memory_does_not_grow_with_depth(self, n):
        # A complex transform holds at most 5 length-n vectors at once (its
        # padded input, two level buffers and, with a radix-4 level, a short
        # temporary); keeping every level's copy alive took 11-12.
        p = np.random.default_rng(n).uniform(-1, 1, n) + 1j
        led = TransformLedger()
        forward(p, n, led)  # builds the twiddle tables, which are kept
        for run in (lambda: forward(p, n, led), lambda: inverse(p, led)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * 16 * n


class TestSharedTables:
    @pytest.mark.parametrize("n", [96, 3**7, 2**17])
    def test_tables_are_read_only(self, n):
        # 96 and 2^17 have column and row phase levels and radix-8 levels;
        # 3^7 is odd, has no real path tables, and runs only radix-3 and
        # radix-9 levels.  Every matrix-product level's DFT matrix is written.
        plan = transform._plan(n)
        radices = {radix for radix, _, _ in plan}
        assert n != 3**7 or radices == {3, 9}
        assert n == 3**7 or 8 in radices
        tables = [w for _, w, _ in plan if w is not None]
        tables += list(transform._real_plan(n)) if n % 2 == 0 else []
        tables += [transform._dft_matrix(radix) for radix in radices if radix not in (2, 4)]
        assert {by_rows for _, _, by_rows in plan} == {False, True}
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_radix_8_matrix_is_exact_at_quarter_turns(self):
        f = transform._dft_matrix(8)
        qj = np.outer(np.arange(8), np.arange(8)) % 8
        quarter = qj % 2 == 0
        assert f[quarter].tolist() == [[1, 1j, -1, -1j][k // 2] for k in qj[quarter]]
        np.testing.assert_allclose(f[~quarter], np.exp(0.25j * np.pi * qj[~quarter]), atol=1e-15)

    def test_plans_of_every_length_up_to_2_20(self, monkeypatch):
        # A level's radix must depend on its length L alone: twiddle tables
        # are cached by (L, by_rows) and shared between transform lengths.
        radix_of = {}
        for n in all_supported_up_to(2**20)[1:]:
            monkeypatch.setattr(transform, "_PLANS", {})
            monkeypatch.setattr(transform, "_TWIDDLES", {})
            plan = transform._plan(n)
            radices = [radix for radix, _, _ in plan]
            assert math.prod(radices) == n
            assert sum(radix in (2, 4) for radix in radices) <= 1
            length = 1
            for radix, w, by_rows in plan:
                length *= radix
                assert radix_of.setdefault(length, radix) == radix
                shape = (radix, length // radix)
                assert w is None if length == radix else w.shape == (shape if by_rows else shape[::-1])
            assert len(transform._TWIDDLES) == len(plan) - 1

    def test_threads_share_the_caches(self, monkeypatch):
        # Four threads start from empty tables and build them concurrently;
        # every output and ledger must equal the serial run bit for bit, and
        # each thread must get its numpy buffer size back from _dft.
        jobs = []
        for n in (96, 1000, 2**12):
            f = conditioned_series(n, n)
            for series in (f, np.where(f == 1, f, f * np.exp(0.7j))):
                jobs += [(sqrt, series, n), (recip, series, n)]

        def run(job):
            op, f, n = job
            led, base = TransformLedger(), TransformLedger()
            out = op(f, n, led, base_ledger=base)
            return out.tobytes(), led.record, base.record, np.getbufsize()

        serial = [run(job) for job in jobs]
        for name in ("_PLANS", "_TWIDDLES", "_DFT_MATRICES", "_REAL_PLANS"):
            monkeypatch.setattr(transform, name, {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, job) for job in jobs * 2]
                threaded = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 2


# Every supported length up to 4096, odd (full length + mirror) and even
# (half length), plus long lengths that run many levels and change layout
# deep in the loop: 2^19 in radix 4, 2 * 3^11 and 3^12 mostly in radix 9.
REAL_LENGTHS = all_supported_up_to(4096) + [2**15, 2**19, 2 * 3**11, 3**12]


def reference(p):
    """sum_k p_k e^{2*pi*i*j*k/n}: direct evaluation up to length 64, np.fft above."""
    n = len(p)
    if n > 64:
        return np.fft.ifft(p) * n
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(2j * np.pi * jk / n) @ p


def is_hermitian(s):
    n = len(s)
    return (s[0].imag == 0 and (n % 2 or s[n // 2].imag == 0)
            and np.array_equal(s[1:], np.conj(s[:0:-1])))


class TestRealPath:
    @pytest.mark.parametrize("n", REAL_LENGTHS)
    def test_real_series(self, n):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        led = TransformLedger()
        s = forward(x, n, led)
        assert dict(led.forward) == {n: 1} and not led.inverse
        want = np.fft.ifft(x) * n
        assert np.abs(s - want).max() <= 1e-12 * np.abs(want).max()
        assert is_hermitian(s)
        back = inverse(s, led)
        assert dict(led.forward) == {n: 1} and dict(led.inverse) == {n: 1}
        assert not back.imag.any()
        assert np.abs(back - x).max() <= 1e-12

    @pytest.mark.parametrize("n", REAL_LENGTHS)
    def test_complex_series_bitwise_unchanged(self, n):
        rng = np.random.default_rng(n)
        p = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        led = TransformLedger()
        s = forward(p, n, led)
        want = reference(p)
        assert np.abs(s - want).max() <= 1e-12 * np.abs(want).max()
        # Hermitian means exactly: a denormal imaginary bin 0 takes the complex inverse.
        h = forward(p.real, n, led)
        h[0] = complex(h[0].real, 5e-324)
        for spec in (s, h):
            want = np.conj(transform._dft(np.conj(spec))) / n
            assert np.array_equal(inverse(spec, led), want)
        assert dict(led.forward) == {n: 2} and dict(led.inverse) == {n: 2}

    @pytest.mark.parametrize("n", REAL_LENGTHS)
    def test_arguments_are_not_modified(self, n):
        # The FFT scales its own buffers in place, never its caller's array.
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, n)
        p = x + 1j * rng.uniform(-1, 1, n)
        led = TransformLedger()
        args = [x, x.astype(np.complex128), p, forward(x, n, led), forward(p, n, led)]
        before = [a.tobytes() for a in args]
        for a in args[:3]:
            forward(a, n, led)
        for a in args[3:]:
            inverse(a, led)
        transform._dft(p)
        assert [a.tobytes() for a in args] == before

    @pytest.mark.parametrize("n", [n for n in REAL_LENGTHS if n >= 6])
    def test_fault_corrupts_both_paths(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, n)
        p = x + 1j * rng.uniform(-1, 1, n)
        led = TransformLedger()
        clean = [forward(x, n, led), forward(p, n, led)]
        with transform.twiddle_fault():
            faulty = [forward(x, n, led), forward(p, n, led),
                      inverse(clean[0], led), inverse(clean[1], led)]
        for got, want in zip(faulty, clean + [x, p]):
            assert np.abs(got - want).max() > 1e-3


def cyclic(g1, g2, n, led):
    """g1 * g2 mod x^n - 1 through forward, * and inverse."""
    return inverse(forward(g1, n, led) * forward(g2, n, led), led)


def middle(g, h, n, led):
    """Coefficients n..2n-1 of g*h, for len(g) <= 2n and len(h) <= n: the top
    half of a length-2n cyclic product, which the wrap-around never reaches."""
    return cyclic(g, h, 2 * n, led)[n:]


class TestPointwise:
    def test_convolution_theorem(self):
        p, q = [1, 1, 0, 0], [1, 0, 1, 0]
        led = TransformLedger()
        lhs = forward(p, 4, led) * forward(q, 4, led)
        full = oracle.mul_schoolbook(p, q)
        wrapped = full[:4].copy()
        wrapped[: len(full) - 4] += full[4:]
        rhs = forward(wrapped, 4, led)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCyclicConvolution:
    def test_one_plus_x_squared(self):
        got = cyclic([1, 1], [1, 1], 2, TransformLedger())
        np.testing.assert_allclose(got, [2, 2], atol=1e-12)

    def test_identity_factor(self):
        rng = np.random.default_rng(2)
        g2 = rng.uniform(-1, 1, 3)
        got = cyclic([1, 0, 0, 0], g2, 4, TransformLedger())
        np.testing.assert_allclose(got, np.append(g2, 0.0), atol=1e-12)

    def test_x_times_x(self):
        got = cyclic([0, 1], [0, 1], 2, TransformLedger())
        np.testing.assert_allclose(got, [1, 0], atol=1e-12)


class TestMiddleProduct:
    def test_example(self):
        got = middle([1, 2, 3, 4], [5, 6], 2, TransformLedger())
        np.testing.assert_allclose(got, [27, 38], atol=1e-10)

    def test_shift_passes_through(self):
        rng = np.random.default_rng(3)
        n = 8
        h = rng.uniform(-1, 1, n)
        g = np.zeros(2 * n)
        g[n] = 1.0
        got = middle(g, h, n, TransformLedger())
        np.testing.assert_allclose(got, h, atol=1e-12)

    def test_zero_factor(self):
        got = middle(np.zeros(8), np.ones(4), 4, TransformLedger())
        np.testing.assert_allclose(got, np.zeros(4), atol=1e-15)


class TestSupportedSizes:
    def test_matches_enumeration(self):
        smooth = all_supported_up_to(2000)
        assert [n for n in range(-1, 2001) if is_supported(n)] == smooth
        want = [min(s for s in smooth if s >= n) for n in range(1, 1945)]
        assert [next_supported(n) for n in range(1, 1945)] == want

    def test_large_lengths(self):
        smooth = [2**a * 3**b for a in range(70) for b in range(45)]
        for n in (2**30 + 1, 10**12, 2**60 + 1, 3**40 + 1, 2**64 - 1, 2**64):
            assert next_supported(n) == min(s for s in smooth if s >= n)

    def test_closed_under_doubling(self):
        for n in all_supported_up_to(512):
            assert is_supported(2 * n)

    def test_invalid(self):
        with pytest.raises(ValueError):
            next_supported(0)
        with pytest.raises(ValueError, match="above 2\\^64"):
            next_supported(2**64 + 1)
        assert [is_supported(n) for n in (2**64, 3**40, 2**65, 3**41)] == [True, True, False, False]
        for n, why in ((5, r"not 2\^a \* 3\^b"), (2**65, r"above 2\^64"), (3**41, r"above 2\^64")):
            with pytest.raises(UnsupportedLengthError, match=f"^transform length {n} is {why}$"):
                forward([1], n, TransformLedger())


class TestLedger:
    def test_since_and_views(self):
        led = TransformLedger()
        forward([1], 2, led)
        start = led.total()
        forward([1], 4, led)
        inverse(np.ones(4), led)
        forward([1], 2, led)
        inverse(np.ones(2), led)
        assert led.record == [2, 4, -4, 2, -2]
        assert led.since(start).record == [4, -4, 2, -2]
        assert led.since(led.total()).record == []
        assert list(led.forward.items()) == [(2, 2), (4, 1)]  # first-seen order
        assert list(led.inverse.items()) == [(4, 1), (2, 1)]
        assert led.total() == 5

    def test_of_schedule(self):
        empty = TransformLedger.of([])
        assert empty.record == [] and empty.total() == 0 and empty.weighted_cost() == 0.0
        assert not empty.forward and not empty.inverse
        led = TransformLedger.of([(4, "FFI", 2), (6, "I", 1), (8, "F", 0), (2, "IF", 1)])
        assert led.record == [4, 4, -4, 4, 4, -4, -6, -2, 2]
        assert list(led.forward.items()) == [(4, 4), (2, 1)]
        assert list(led.inverse.items()) == [(4, 2), (6, 1), (2, 1)]
        assert led.total() == 9
        assert led.weighted_cost() == pytest.approx(6 * 4 * 2 + 6 * math.log2(6) + 2 * 2 * 1)
        assert led.since(3).record == led.record[3:]

    def test_weighted_cost(self):
        led = TransformLedger()
        forward([1], 8, led)
        inverse(np.ones(8), led)
        assert led.weighted_cost() == pytest.approx(2 * 8 * 3.0)
