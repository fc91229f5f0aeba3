import json

import numpy as np
import pytest
from click.testing import CliRunner

from blockseries import oracle
from blockseries.cli import main
from blockseries.corpus import conditioned_monic


@pytest.fixture
def runner():
    return CliRunner()


def parse_coeffs(text):
    out = []
    for line in text.strip().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        out.append(complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0))
    return np.array(out)


class TestCompute:
    def test_recip_inline(self, runner):
        result = runner.invoke(main, ["compute", "recip", "--coeffs", "1,-1", "--n", "5"])
        assert result.exit_code == 0
        np.testing.assert_allclose(parse_coeffs(result.stdout), np.ones(5), atol=1e-12)

    def test_sqrt_perfect_square(self, runner):
        result = runner.invoke(main, ["compute", "sqrt", "--coeffs", "1,2,1", "--n", "4"])
        assert result.exit_code == 0
        np.testing.assert_allclose(parse_coeffs(result.stdout), [1, 1, 0, 0], atol=1e-12)

    def test_sqrt_binomial(self, runner):
        result = runner.invoke(main, ["compute", "sqrt", "--coeffs", "1,1", "--n", "4"])
        assert result.exit_code == 0
        np.testing.assert_allclose(
            parse_coeffs(result.stdout), [1, 0.5, -0.125, 0.0625], atol=1e-12
        )

    def test_file_roundtrip(self, runner, tmp_path):
        src = tmp_path / "f.txt"
        src.write_text("# input series\n1\n-0.5 0.25\n\n0.125\n")
        dst = tmp_path / "g.txt"
        result = runner.invoke(
            main, ["compute", "recip", "--in", str(src), "--n", "6", "--out", str(dst)]
        )
        assert result.exit_code == 0
        got = parse_coeffs(dst.read_text())
        f = np.array([1.0, -0.5 + 0.25j, 0.125])
        np.testing.assert_allclose(got, oracle.recip_recurrence(f, 6), atol=1e-10)

    def test_random_sqrtrem(self, runner, tmp_path):
        dst = tmp_path / "g.txt"
        result = runner.invoke(
            main,
            ["compute", "sqrtrem", "--random", "--n", "8", "--seed", "3", "--out", str(dst)],
        )
        assert result.exit_code == 0
        g = parse_coeffs(dst.read_text())
        rem = parse_coeffs((tmp_path / "g.txt.rem").read_text())
        assert len(g) == 9 and len(rem) == 8
        f = conditioned_monic(3, 16)
        resid = f - oracle.mul_schoolbook(g, g)
        resid[:8] -= rem
        assert np.abs(resid).max() <= 1e-8

    def test_sqrtrem_stdout_has_remainder_section(self, runner):
        result = runner.invoke(main, ["compute", "sqrtrem", "--coeffs", "1,2,1"])
        assert result.exit_code == 0
        assert "# remainder" in result.stdout

    def test_summary_line(self, runner):
        result = runner.invoke(
            main, ["compute", "recip", "--coeffs", "1,-1", "--n", "16"]
        )
        assert result.exit_code == 0
        assert "op=recip n=16" in result.stderr
        assert "forward[" in result.stderr

    def test_precondition_failure_exit_one(self, runner):
        for args in (["compute", "recip", "--coeffs", "2,1", "--n", "4"],
                     ["compute", "sqrt", "--random", "--n", "0"],
                     ["bench", "sqrt", "--n", "0"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, args
            assert "error:" in result.stderr, args
        # Past ceil(n / unit) = 10 blocks every further block would be padding.
        result = runner.invoke(
            main, ["compute", "sqrt", "--coeffs", "1,1", "--n", "10", "--blocks", "11"]
        )
        assert result.exit_code == 1
        assert "block count 11 is outside 1..10" in result.stderr
        result = runner.invoke(
            main, ["compute", "sqrt", "--coeffs", "1.000000000001,1", "--n", "3"]
        )
        assert result.exit_code == 1
        assert "constant term 1, got (1.000000000001+0j)" in result.stderr

    def test_missing_n_exit_one(self, runner):
        result = runner.invoke(main, ["compute", "sqrt", "--coeffs", "1,1"])
        assert result.exit_code == 1

    def test_no_source_usage_error(self, runner):
        result = runner.invoke(main, ["compute", "recip", "--n", "4"])
        assert result.exit_code == 2

    def test_two_sources_usage_error(self, runner):
        result = runner.invoke(
            main, ["compute", "recip", "--coeffs", "1", "--random", "--n", "4"]
        )
        assert result.exit_code == 2
        # --seed only selects a --random input; with --coeffs it would be ignored.
        result = runner.invoke(
            main, ["compute", "recip", "--coeffs", "1,1", "--n", "4", "--seed", "3"]
        )
        assert result.exit_code == 2
        assert "--seed" in result.output
        # The degree of a given input fixes sqrtrem's size; --n would be ignored.
        result = runner.invoke(main, ["compute", "sqrtrem", "--coeffs", "1,2,1", "--n", "8"])
        assert result.exit_code == 2
        assert "--n" in result.output

    def test_random_sqrtrem_at_2_15(self, runner, tmp_path):
        # Unconditioned random inputs overflow to non-finite roots at this size.
        n = 2**15
        dst = tmp_path / "g.txt"
        result = runner.invoke(
            main, ["compute", "sqrtrem", "--random", "--n", str(n), "--out", str(dst)]
        )
        assert result.exit_code == 0, result.output
        g = parse_coeffs(dst.read_text())
        rem = parse_coeffs((tmp_path / "g.txt.rem").read_text())
        f = conditioned_monic(0, 2 * n)
        resid = f - np.convolve(g, g)
        resid[:n] -= rem
        assert np.abs(resid).max() <= 1e-9

    def test_malformed_file_exit_one(self, runner, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("1\nnot-a-number\n")
        result = runner.invoke(main, ["compute", "recip", "--in", str(src), "--n", "4"])
        assert result.exit_code == 1
        assert "bad.txt:2" in result.stderr


class TestBench:
    def test_json_records(self, runner):
        result = runner.invoke(
            main, ["bench", "sqrt", "--n", "64,128", "--blocks", "2", "--format", "json"]
        )
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert [r["op"] for r in records] == [
            "sqrt", "sqrt_newton_coupled", "sqrt", "sqrt_newton_coupled",
        ]
        blockwise = records[0]
        assert sum(blockwise["forward"].values()) == 3  # 2(r-1)+1 for r=2
        assert json.loads(json.dumps(blockwise)) == blockwise

    def test_counts_stable_across_runs(self, runner):
        args = ["bench", "recip", "--n", "96", "--blocks", "2", "--format", "json"]
        a = [json.loads(x) for x in runner.invoke(main, args).stdout.strip().splitlines()]
        b = [json.loads(x) for x in runner.invoke(main, args).stdout.strip().splitlines()]
        for ra, rb in zip(a, b):
            ra.pop("wall_ns")
            rb.pop("wall_ns")
            assert ra == rb

    def test_csv_header(self, runner):
        result = runner.invoke(main, ["bench", "recip", "--n", "96", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("op,n,blocks,block_size,forward,inverse")
        assert len(lines) == 3  # header + recip row + baseline row

    def test_sqrt_at_2_15(self, runner):
        result = runner.invoke(main, ["bench", "sqrt", "--n", "32768", "--format", "json"])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert [r["op"] for r in records] == ["sqrt", "sqrt_newton_coupled"]
        r = records[0]["blocks"]
        assert sum(records[0]["forward"].values()) == 2 * r - 1

    def test_bad_list_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "sqrt", "--n", "64;128"])
        assert result.exit_code == 2


class TestSelftest:
    def test_quick_passes(self, runner):
        result = runner.invoke(main, ["selftest", "--quick"])
        assert result.exit_code == 0, result.output
        assert "selftest passed" in result.output

    def test_injected_fault_detected(self, runner):
        result = runner.invoke(main, ["selftest", "--quick", "--inject-fault"])
        assert result.exit_code == 1
        assert "FAIL" in result.output
