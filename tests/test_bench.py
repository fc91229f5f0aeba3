from blockseries.bench import run_bench, run_case


class TestRecords:
    def test_count_fields_deterministic(self):
        assert run_case("recip", 384, blocks=2, seed=5) == run_case("recip", 384, blocks=2, seed=5)

    def test_sqrt_counts_and_ratio(self):
        rec = run_case("sqrt", 512, blocks=4, seed=0)
        r, m = rec.blocks, rec.block_size
        assert sum(rec.forward.values()) == 2 * (r - 1) + 1
        assert sum(rec.inverse.values()) == 2 * (r - 1)
        assert set(rec.forward) | set(rec.inverse) == {2 * m}
        assert rec.cost_ratio == rec.cost_ratio_expected == (4 * r - 3) / (3 * r)

    def test_recip_counts_and_ratio(self):
        rec = run_case("recip", 768, blocks=4, seed=0)
        s, m = rec.blocks, rec.block_size
        assert sum(rec.forward.values()) == 7 * s - 1
        assert sum(rec.inverse.values()) == 6 * s - 2
        assert set(rec.forward) | set(rec.inverse) == {2 * m}
        assert rec.cost_ratio == rec.cost_ratio_expected == (13 * s - 3) / (9 * s)

    def test_sqrtrem_record(self):
        rec = run_case("sqrtrem", 64, seed=0)
        assert rec.max_error is not None and rec.max_error <= 1e-7
        assert rec.n == 64

    def test_oracle_cutoff(self):
        rec = run_case("sqrt", 4096, blocks=4, seed=0)
        assert rec.max_error is None


class TestRunBench:
    def test_baseline_rows_included(self):
        records = run_bench("recip", [96], [1, 2], seed=0)
        ops = [r.op for r in records]
        assert ops == ["recip", "recip", "recip_schonhage"]

    def test_sqrt_baseline(self):
        records = run_bench("sqrt", [64], [None], seed=0)
        assert [r.op for r in records] == ["sqrt", "sqrt_newton_coupled"]
