import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockseries import (
    BlockSeries,
    MissingSpectrumError,
    TransformCache,
    TransformLedger,
    combined_block,
    decompose,
    forward,
    inverse,
    product_block,
)
from blockseries import blockwise, oracle
from blockseries.checks import block_of
from blockseries.checks import warm_caches as warm


def schoolbook_block(f, g, k, m):
    return block_of(oracle.mul_schoolbook(f, g), k, m)


class TestDecompose:
    def test_example(self):
        bs = decompose([1, 2, 3, 4, 5], 2, 3)
        np.testing.assert_allclose(bs.blocks[0], [1, 2])
        np.testing.assert_allclose(bs.blocks[1], [3, 4])
        np.testing.assert_allclose(bs.blocks[2], [5, 0])

    def test_empty_input(self):
        bs = decompose([], 4, 2)
        assert bs.num_blocks == 2
        assert all(np.all(b == 0) for b in bs.blocks)

    def test_truncates_beyond_capacity(self):
        bs = decompose(np.arange(10.0), 2, 2)
        np.testing.assert_allclose(bs.recompose(), [0, 1, 2, 3])

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 40),
        st.sampled_from([1, 2, 3, 4, 6, 8, 9]),
        st.integers(1, 6),
        st.integers(0),
    )
    def test_roundtrip(self, length, m, t, seed):
        f = np.random.default_rng(seed).uniform(-1, 1, length)
        bs = decompose(f, m, t)
        want = np.zeros(t * m)
        want[: min(length, t * m)] = f[: t * m]
        np.testing.assert_array_equal(bs.recompose(), want)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockSeries(5, 1)  # 10 = 2 * 5 is not 3-smooth

    def test_append_past_capacity(self):
        bs = BlockSeries(2, 1)
        bs.append([1, 2])
        with pytest.raises(ValueError, match="capacity"):
            bs.append([3])
        np.testing.assert_array_equal(bs.recompose(), [1, 2])


class TestTransformCache:
    def test_idempotent_ensure(self):
        led = TransformLedger()
        bs = decompose([1, 2, 3, 4], 2, 2)
        cache = TransformCache(bs)
        cache.ensure(1, led)
        first = cache.spectra[1].copy()
        start = led.total()
        cache.ensure(1, led)
        assert led.since(start).record == []
        np.testing.assert_array_equal(cache.spectra[1], first)

    def test_zero_block(self):
        cache = TransformCache(decompose([], 4, 1))
        cache.ensure(0, TransformLedger())
        np.testing.assert_array_equal(cache.spectra[0], np.zeros(5))
        np.testing.assert_array_equal(cache.spectrum(0), np.zeros(8))

    def test_matches_fresh_forward(self):
        # A real series keeps bins 0..m, exactly as forward computes them, a
        # complex one all 2m; either way the full spectrum is forward's.
        rng = np.random.default_rng(4)
        for imag, width in ((0, 5), (1j, 8)):
            bs = decompose(rng.uniform(-1, 1, 12) + imag * rng.uniform(-1, 1, 12), 4, 3)
            cache = TransformCache(bs)
            for i in range(3):
                cache.ensure(i, TransformLedger())
                again = forward(bs.blocks[i], 8, TransformLedger())
                np.testing.assert_array_equal(cache.spectra[i], again[:width])
                np.testing.assert_array_equal(cache.spectrum(i), again)

    def test_out_of_range(self):
        cache = TransformCache(decompose([1], 2, 1))
        with pytest.raises(IndexError):
            cache.ensure(1, TransformLedger())

    def test_missing_entry_raises_in_products(self):
        led = TransformLedger()
        bs = decompose([1, 2, 3, 4], 2, 2)
        fc = TransformCache(bs)
        fc.ensure(0, led)  # block 1 left uncomputed
        gc = TransformCache(bs)
        gc.ensure(0, led)
        gc.ensure(1, led)
        with pytest.raises(MissingSpectrumError, match="block 1"):
            product_block(fc, gc, 1, led)

    def test_missing_entry_on_g_side_raises(self):
        led = TransformLedger()
        fc, _ = warm([1, 2, 3, 4], [1, 2, 3, 4], 2, 2, led)
        gc = TransformCache(decompose([1, 2, 3, 4], 2, 2))
        gc.ensure(1, led)  # block 0 left uncomputed
        with pytest.raises(MissingSpectrumError, match="block 0"):
            product_block(fc, gc, 1, led)

    def test_missing_entry_in_second_term_raises(self):
        led = TransformLedger()
        fc, gc = warm([1, 2, 3, 4], [5, 6, 7, 8], 2, 2, led)
        hc = TransformCache(decompose([1, 2, 3, 4], 2, 2))
        hc.ensure(0, led)  # block 1 left uncomputed
        with pytest.raises(MissingSpectrumError, match="block 1"):
            combined_block([(fc, gc, 1, +1), (hc, gc, 1, -1)], led)


class TestProductBlock:
    def test_unit_block_one(self):
        # f = g = 1 + x with one-coefficient blocks: block 1 of (1+x)^2 is 2.
        led = TransformLedger()
        fc, gc = warm([1, 1], [1, 1], 1, 2, led)
        np.testing.assert_allclose(product_block(fc, gc, 1, led), [2], atol=1e-12)

    def test_multiplication_by_one(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-1, 1, 2)
        led = TransformLedger()
        fc, gc = warm([1, 0], c, 2, 1, led)
        np.testing.assert_allclose(product_block(fc, gc, 0, led), c, atol=1e-12)

    def test_random_blocks_match_schoolbook(self):
        rng = np.random.default_rng(6)
        m, nb = 8, 4
        f = rng.uniform(-1, 1, m * nb)
        g = rng.uniform(-1, 1, m * nb)
        led = TransformLedger()
        fc, gc = warm(f, g, m, nb, led)
        for k in range(nb):
            got = product_block(fc, gc, k, led)
            want = schoolbook_block(f, g, k, m)
            assert np.abs(got - want).max() <= 1e-9

    def test_block_size_mismatch(self):
        led = TransformLedger()
        fc, _ = warm([1, 2], [1, 2], 2, 1, led)
        _, gc = warm([1], [1], 1, 1, led)
        with pytest.raises(ValueError, match="mismatch"):
            product_block(fc, gc, 0, led)

    def test_factor_with_fewer_blocks_than_k(self):
        # g has one block, so block 3 of f*g only meets f's blocks 2 and 3.
        rng = np.random.default_rng(14)
        m, nb = 4, 4
        f = rng.uniform(-1, 1, m * nb)
        g = rng.uniform(-1, 1, m)  # single block
        led = TransformLedger()
        fc = TransformCache(decompose(f, m, nb))
        gc = TransformCache(decompose(g, m, 1))
        for i in range(nb):
            fc.ensure(i, led)
        gc.ensure(0, led)
        got = product_block(fc, gc, 3, led)
        want = schoolbook_block(f, g, 3, m)
        assert np.abs(got - want).max() <= 1e-9


class TestCombinedBlock:
    def test_single_term_reduces_to_product(self):
        rng = np.random.default_rng(9)
        m, nb = 4, 3
        led = TransformLedger()
        fc, gc = warm(rng.uniform(-1, 1, m * nb), rng.uniform(-1, 1, m * nb), m, nb, led)
        for k in range(nb):
            a = combined_block([(fc, gc, k, +1)], led)
            b = product_block(fc, gc, k, led)
            np.testing.assert_array_equal(a, b)

    def test_cancellation(self):
        rng = np.random.default_rng(10)
        m, nb = 4, 2
        led = TransformLedger()
        fc, gc = warm(rng.uniform(-1, 1, m * nb), rng.uniform(-1, 1, m * nb), m, nb, led)
        got = combined_block([(fc, gc, 1, +1), (fc, gc, 1, -1)], led)
        assert np.abs(got).max() <= 1e-12

    def test_one_inverse_regardless_of_terms(self):
        rng = np.random.default_rng(12)
        m, nb = 2, 2
        led = TransformLedger()
        fc, gc = warm(rng.uniform(-1, 1, m * nb), rng.uniform(-1, 1, m * nb), m, nb, led)
        for terms in ([(fc, gc, 1, +1)], [(fc, gc, 1, +1)] * 3,
                      [(fc, gc, 1, +1), (gc, fc, 0, -1)] * 2):
            start = led.total()
            combined_block(terms, led)
            assert led.since(start).record == [-2 * m]

    def test_validation(self):
        led = TransformLedger()
        fc, gc = warm([1, 2], [3, 4], 2, 1, led)
        with pytest.raises(ValueError):
            combined_block([], led)
        with pytest.raises(ValueError):
            combined_block([(fc, gc, 0, 2)], led)

    def test_terms_at_different_block_indices(self):
        # Block 1 of f*g minus block 2 of d*d, with one inverse transform.
        rng = np.random.default_rng(13)
        m, nb = 4, 3
        d = rng.uniform(-1, 1, m * nb)
        f = rng.uniform(-1, 1, m * nb)
        g = rng.uniform(-1, 1, m * nb)
        led = TransformLedger()
        dc, _ = warm(d, d, m, nb, led)
        fc, gc = warm(f, g, m, nb, led)
        start = led.total()
        got = combined_block([(fc, gc, 1, +1), (dc, dc, 2, -1)], led)
        assert led.since(start).record == [-2 * m]
        want = schoolbook_block(f, g, 1, m) - schoolbook_block(d, d, 2, m)
        assert np.abs(got - want).max() <= 1e-9



def filled_cache(coeffs, m, nb, real, ledger):
    """Cache of coeffs' nb blocks in a series flagged real or complex, all computed."""
    series = BlockSeries(m, nb, real=real)
    for block in np.reshape(coeffs, (nb, m)):
        series.append(block)
    cache = TransformCache(series)
    for i in range(nb):
        cache.ensure(i, ledger)
    return cache


def per_row_accumulate(acc, f_cache, g_cache, k, sign):
    """_accumulate as a plain loop: every row i of g whose partner row k - i of
    f's folded rows exists, in ascending i, one product and one add or subtract."""
    for i in range(g_cache.series.num_blocks):
        if 0 <= k - i <= f_cache.series.num_blocks:
            term = f_cache.folded[k - i] * g_cache.spectra[i]
            acc[:] = acc + term if sign > 0 else acc - term


class TestAccumulate:
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_matches_per_row_reference(self, real, sign):
        rng = np.random.default_rng(21)
        m, nf, ng = 6, 3, 5

        def coeffs(nb):
            c = rng.uniform(-1, 1, m * nb)
            return c if real else c + 1j * rng.uniform(-1, 1, m * nb)

        led = TransformLedger()
        fc, gc = filled_cache(coeffs(nf), m, nf, real, led), filled_cache(coeffs(ng), m, ng, real, led)
        # k = nf..ng-1 is past f's last block, k >= ng past g's as well, and
        # from k = nf + ng on no pair of rows is left (lo > hi).
        for k in range(nf + ng + 2):
            start = rng.normal(size=fc.width) + 1j * rng.normal(size=fc.width)
            got, want = start.copy(), start.copy()
            blockwise._accumulate(got, np.empty_like(got), fc, gc, k, sign)
            per_row_accumulate(want, fc, gc, k, sign)
            assert got.tobytes() == want.tobytes(), k
            if k >= nf + ng:
                assert got.tobytes() == start.tobytes(), k

    def test_real_spectrum_has_real_end_bins_before_the_inverse(self, monkeypatch):
        # Bins 0 and m of a real series' block spectrum must be exactly real,
        # or inverse would not see an exactly Hermitian spectrum.
        seen = []

        def recording_inverse(s, ledger):
            seen.append(s.copy())
            return inverse(s, ledger)

        monkeypatch.setattr(blockwise, "inverse", recording_inverse)
        rng = np.random.default_rng(22)
        m, nb = 6, 4
        led = TransformLedger()
        d, f, g = (filled_cache(rng.uniform(-1, 1, m * nb), m, nb, True, led) for _ in range(3))
        for k in range(2 * nb):
            out = combined_block([(d, d, k, +1), (f, g, k, -1), (g, f, max(k - 1, 0), +1)], led)
            assert not out.imag.any(), k
        assert len(seen) == 2 * nb
        for s in seen:
            assert s.imag[0] == 0 and s.imag[m] == 0


class TestHalfWidth:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 9])
    def test_real_blocks_match_full_width_contraction(self, m):
        # The same real coefficients in a series flagged complex take the
        # full-width contraction; the half-width one must give the same bits.
        rng = np.random.default_rng(m)
        nb = 4
        d, f, g = (rng.uniform(-1, 1, m * nb) for _ in range(3))
        half_led, full_led = TransformLedger(), TransformLedger()
        half = [filled_cache(c, m, nb, True, half_led) for c in (d, f, g)]
        full = [filled_cache(c, m, nb, False, full_led) for c in (d, f, g)]
        assert (half[0].width, full[0].width) == (m + 1, 2 * m)

        def blocks(caches, k, led):
            dc, fc, gc = caches
            return (product_block(fc, gc, k, led),
                    combined_block([(dc, dc, k, +1), (fc, gc, max(k - 1, 0), -1)], led))

        for k in range(2 * nb):
            for a, b in zip(blocks(half, k, half_led), blocks(full, k, full_led)):
                assert a.tobytes() == b.tobytes(), k
        assert half_led.record == full_led.record

    def test_cache_widths(self):
        m, nb = 4, 3
        real = TransformCache(decompose(np.arange(12.0), m, nb))
        cplx = TransformCache(decompose(np.arange(12.0) * 1j, m, nb))
        assert real.spectra.shape == (nb, m + 1)
        assert real.folded.shape == (nb + 1, m + 1)
        assert cplx.spectra.shape == (nb, 2 * m)
        assert cplx.folded.shape == (nb + 1, 2 * m)

    def test_recip_caches_keep_only_their_view(self, monkeypatch):
        recip_mod = importlib.import_module("blockseries.recip")
        made = []

        class Recording(TransformCache):
            def __init__(self, series, **roles):
                super().__init__(series, **roles)
                made.append(self)

        monkeypatch.setattr(recip_mod, "TransformCache", Recording)
        m, s = 4, 2
        fs = decompose(np.r_[1.0, np.full(3 * s * m - 1, 0.01)], m, 3 * s)
        out = recip_mod.recip_block_iter(fs, [1, -0.01, 0, 0], s, TransformLedger())
        assert not out.imag.any()
        inputs = [c for c in made if c.series is fs]
        partial = [c for c in made if c.series.capacity == s]
        assert len(inputs) == len(partial) == 1
        assert inputs[0].spectra is None and inputs[0].folded is not None
        assert partial[0].folded is None and partial[0].spectra is not None


class TestGuards:
    def test_complex_block_into_real_series(self):
        bs = decompose([1.0, 2.0], 2, 2)
        bs.num_blocks = 1
        with pytest.raises(ValueError, match="complex block to a real series"):
            bs.append([1, 1j])
        for bad in (lambda: bs.append(np.eye(2)), lambda: decompose(np.eye(2), 2, 2)):
            with pytest.raises(ValueError, match="coefficient sequence must be one-dimensional"):
                bad()

    def test_real_and_complex_caches_do_not_mix(self):
        led = TransformLedger()
        rc, _ = warm([1, 2], [1, 2], 2, 1, led)
        cc, _ = warm([1, 2j], [1, 2j], 2, 1, led)
        with pytest.raises(ValueError, match="mix real and complex"):
            combined_block([(rc, rc, 0, +1), (cc, cc, 0, -1)], led)
        with pytest.raises(ValueError, match="mix real and complex"):
            product_block(rc, cc, 0, led)

    def test_left_factor_needs_folded_rows(self):
        led = TransformLedger()
        fc = TransformCache(decompose([1, 2], 2, 1), folded=False)
        fc.ensure(0, led)
        with pytest.raises(ValueError, match="left factor's cache keeps no folded rows"):
            product_block(fc, fc, 0, led)

    def test_right_factor_needs_spectra_rows(self):
        led = TransformLedger()
        gc = TransformCache(decompose([1, 2], 2, 1), spectra=False)
        gc.ensure(0, led)
        with pytest.raises(ValueError, match="right factor's cache keeps no spectra rows"):
            product_block(gc, gc, 0, led)
        with pytest.raises(ValueError, match="cache keeps no spectra rows"):
            gc.spectrum(0)
