import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import blockseries
from blockseries import checks, cli, oracle
from blockseries.cli import main
from blockseries.corpus import conditioned_monic, conditioned_series


@pytest.fixture
def runner():
    return CliRunner()


def run_cli(*args):
    """`python -m blockseries.cli` in a process of its own, as a user runs it:
    outside pytest's warning filters, so any numpy warning reaches stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(blockseries.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "blockseries.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


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

    @pytest.mark.parametrize("source", ["--coeffs", "--in"])
    @pytest.mark.parametrize("op", ["sqrt", "recip", "sqrtrem"])
    def test_real_input_prints_real_output(self, runner, tmp_path, op, source):
        # Long enough for the transforms' half-length real path.
        f = conditioned_monic(5, 2000) if op == "sqrtrem" else conditioned_series(5, 2000)
        coeffs = [repr(c) for c in f.real.tolist()]
        args = ["compute", op]
        if source == "--coeffs":
            args += ["--coeffs", ",".join(coeffs)]
        else:
            (tmp_path / "f.txt").write_text("\n".join(coeffs) + "\n")
            args += ["--in", str(tmp_path / "f.txt")]
        if op != "sqrtrem":
            args += ["--n", "3000"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        lines = [line for line in result.stdout.splitlines() if not line.startswith("#")]
        assert len(lines) == (2001 if op == "sqrtrem" else 3000)
        assert all(len(line.split()) == 1 for line in lines)

    def test_summary_line(self, runner):
        result = runner.invoke(
            main, ["compute", "recip", "--coeffs", "1,-1", "--n", "16"]
        )
        assert result.exit_code == 0
        assert "op=recip n=16" in result.stderr
        assert "forward[" in result.stderr

    def test_precondition_failure_exit_one(self, runner):
        result = runner.invoke(main, ["compute", "recip", "--coeffs", "2,1", "--n", "4"])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        # Past ceil(n / unit) = 10 blocks every further block would be padding.
        result = runner.invoke(
            main, ["compute", "sqrt", "--coeffs", "1,1", "--n", "10", "--blocks", "11"]
        )
        assert result.exit_code == 1
        assert "block count 11 is outside 1..10" in result.stderr
        # The root of 1 + x^2 has 2 coefficients, and the message counts those.
        result = runner.invoke(main, ["compute", "sqrtrem", "--coeffs", "1,0,1", "--blocks", "5"])
        assert result.exit_code == 1
        assert "block count 5 is outside 1..2 for 2 coefficients" in result.stderr
        result = runner.invoke(
            main, ["compute", "sqrt", "--coeffs", "1.000000000001,1", "--n", "3"]
        )
        assert result.exit_code == 1
        assert "constant term 1, got (1.000000000001+0j)" in result.stderr

    def test_non_finite_input_exit_one(self, runner):
        result = runner.invoke(main, ["compute", "recip", "--coeffs", "1,inf", "--n", "4"])
        assert result.exit_code == 1
        assert "error: non-finite coefficient at index 1: (inf+0j)" in result.stderr
        # A finite input that overflows inside the iteration.
        result = runner.invoke(main, ["compute", "recip", "--coeffs", "1,1e200", "--n", "4"])
        assert result.exit_code == 1
        assert "error: non-finite value in a length-4 transform input" in result.stderr

    @pytest.mark.parametrize("args, error", [
        ("recip --coeffs 1,1e200 --n 4", r"non-finite value in a length-\d+ transform input"),
        ("sqrt --coeffs 1,1e300 --n 64", r"non-finite value in a length-\d+ transform input"),
        # No transform input is non-finite: only the op's check of its result sees it.
        ("sqrt --coeffs 1,1e69 --n 3", r"sqrt to order 3 overflowed float64: coefficient 2 is .*"),
    ], ids=["recip", "sqrt", "sqrt-result"])
    def test_overflow_prints_only_the_error_line(self, args, error):
        proc = run_cli("compute", *args.split())
        assert proc.returncode == 1 and proc.stdout == ""
        assert re.fullmatch(f"error: {error}\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("args", ["compute recip --coeffs 1,0.5", "bench recip"])
    def test_precision_too_large_to_allocate_exit_one(self, args):
        # numpy refuses petabytes at once; a size the kernel could overcommit is never tried.
        proc = run_cli(*args.split(), "--n", str(10**15))
        assert proc.returncode == 1
        assert re.fullmatch(r"error: Unable to allocate .*\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("coeffs, tok", [("1,,0.5", "''"), ("1, ,0.5", "' '"),
                                             ("1,abc", "'abc'")],
                             ids=["empty", "blank", "malformed"])
    def test_bad_inline_token_exit_one(self, runner, coeffs, tok):
        # Every token must parse: skipping one would silently shift the rest.
        result = runner.invoke(main, ["compute", "recip", "--coeffs", coeffs, "--n", "3"])
        assert result.exit_code == 1
        assert result.stderr == ("error: --coeffs token 2: expected a real or "
                                 f"complex number, got {tok}\n")

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


# Tokens for coefficient files: what `float` reads, and what it or loadtxt refuses.
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats().map("{:.17g}".format),
    st.sampled_from(["-0.0", "-0", "+0", "inf", "-inf", "+Infinity", "nan", "-nan", "NaN",
                     "5e-324", "-2.2250738585072014e-308", "1e999", "-1E-999", ".5", "5."]),
)
BAD_TOKENS = st.sampled_from(["1_0", "abc", "0x10", "\u0661", "1.5.2", "1e", "nan(1)", "--1"])


@st.composite
def coeff_files(draw):
    """File text with 1-column, 2-column or mixed-width data lines, comments,
    blank lines, padding and CRLF; about a quarter of the files also carry bad
    tokens and 3-token lines."""
    width = draw(st.sampled_from([1, 2, "mixed"]))
    bad = draw(st.integers(0, 3)) == 0
    token = st.one_of(NUMBERS, BAD_TOKENS) if bad else NUMBERS
    kinds = ["data"] * 4 + ["blank", "comment"] + (["three"] if bad else [])
    pad = st.sampled_from(["", " ", "\t", " \t "])
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "blank":
            lines.append(draw(pad))
        elif kind == "comment":
            lines.append(draw(pad) + "#" + draw(st.text("# 1.e-x", max_size=6)))
        else:
            w = 3 if kind == "three" else (draw(st.sampled_from([1, 2])) if width == "mixed"
                                          else width)
            seps = [draw(st.sampled_from([" ", "\t", "  ", " \t"])) for _ in range(w - 1)]
            body = draw(token) + "".join(sep + draw(token) for sep in seps)
            lines.append(draw(pad) + body + draw(pad) + draw(st.sampled_from(["", " # c", "#"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def read_outcome(read, path):
    """The array read, as dtype, shape and bit pattern (so -0.0 and nan count), or the error."""
    try:
        a = read(str(path))
    except ValueError as exc:
        return type(exc), str(exc)
    return a.dtype, a.shape, a.view(np.uint64).tobytes()


def reference_text(coeffs):
    """The per-coefficient format the bulk writer must reproduce byte for byte:
    `re im` on every line if any imaginary part is nonzero, else `re`."""
    cplx = any(c.imag for c in coeffs.tolist())
    lines = [f"{c.real:.17g} {c.imag:.17g}" if cplx else f"{c.real:.17g}"
             for c in coeffs.tolist()]
    return "\n".join(lines) + "\n"


def complex_from(re_, im):
    coeffs = np.zeros(len(re_), dtype=np.complex128)
    coeffs.real, coeffs.imag = re_, im
    return coeffs


SPECIALS = [0.0, -0.0, 1.0, -1.5, 1 / 3, 5e-324, -2.2250738585072014e-308,
            1.7976931348623157e308, np.inf, -np.inf, np.nan]


class TestCoeffFiles:
    @settings(max_examples=300, deadline=None)
    @given(text=coeff_files())
    def test_reader_matches_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("coeffs") / "f.txt"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = read_outcome(cli._read_coeff_lines, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may leave the reader
            got = read_outcome(cli._read_coeff_file, path)
        assert got == want

    @pytest.mark.parametrize("text", ["1\n-0.0\ninf\n5e-324\n", "1 0\n-0.5 inf\nnan -0.0\n",
                                      None], ids=["one-column", "two-column", "complex-result"])
    def test_one_width_file_takes_one_bulk_parse(self, tmp_path, monkeypatch, text):
        path = tmp_path / "f.txt"
        if text is None:  # its constant term 1 has a zero imaginary part
            g = blockseries.recip([1, 0.5j], 8, blockseries.TransformLedger())
            cli._write_coeffs(g, str(path), "recip to order 8")
        else:
            path.write_text(text)
        want = read_outcome(cli._read_coeff_lines, path)

        def no_line_reader(path):
            raise AssertionError("line reader called")

        monkeypatch.setattr(cli, "_read_coeff_lines", no_line_reader)
        assert read_outcome(cli._read_coeff_file, path) == want

    @pytest.mark.parametrize("text", ["", "# no coefficients\n\n"], ids=["empty", "comment-only"])
    def test_empty_file_prints_only_the_error_line(self, tmp_path, text):
        path = tmp_path / "f.txt"
        path.write_text(text)
        proc = run_cli("compute", "recip", "--in", str(path), "--n", "4")
        assert proc.returncode == 1
        assert proc.stderr == "error: series must have constant term 1, got an empty series\n"

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_writer_bytes_match_per_coefficient_format(self, tmp_path, capsys, kind):
        re_ = np.array(SPECIALS * len(SPECIALS) + np.random.default_rng(3).normal(size=50).tolist())
        im = np.repeat(SPECIALS, len(SPECIALS)).tolist() + [0.0] * 25 + [0.25] * 25
        if kind == "real":  # imaginary parts 0.0 and -0.0 only
            im = np.copysign(0.0, np.sin(np.arange(len(re_))))
        coeffs = complex_from(re_, im)
        want = reference_text(coeffs)
        cli._write_coeffs(coeffs, None, "header")
        assert capsys.readouterr().out == want
        cli._write_coeffs(coeffs, str(tmp_path / "g.txt"), "header")
        assert (tmp_path / "g.txt").read_text() == "# header\n" + want

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_roundtrip_is_bit_exact(self, tmp_path, kind):
        n = 2**17
        rng = np.random.default_rng(17)

        def draw():  # every binade, subnormals included
            return np.ldexp(rng.uniform(-1, 1, n), rng.integers(-1074, 1024, n))

        coeffs = complex_from(draw(), draw() if kind == "complex" else 0.0)
        coeffs.real[:4] = [-0.0, np.inf, -np.inf, 5e-324]
        if kind == "complex":
            coeffs.imag[::7] = 0.0
            coeffs.imag[3::7] = -0.0
            coeffs.imag[1] = -np.inf
        path = tmp_path / "g.txt"
        cli._write_coeffs(coeffs, str(path), "roundtrip")
        back = cli._read_coeff_file(str(path))
        assert back.view(np.uint64).tobytes() == coeffs.view(np.uint64).tobytes()


class TestBench:
    def test_json_records(self, runner):
        result = runner.invoke(main, ["bench", "sqrt", "--n", "64,128", "--blocks", "2"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert [r["op"] for r in records] == [
            "sqrt", "sqrt_newton_coupled", "sqrt", "sqrt_newton_coupled",
        ]
        blockwise = records[0]
        assert sum(blockwise["forward"].values()) == 3  # 2(r-1)+1 for r=2
        assert json.loads(json.dumps(blockwise)) == blockwise

    def test_counts_stable_across_runs(self, runner):
        args = ["bench", "recip", "--n", "96", "--blocks", "2"]
        a, b = runner.invoke(main, args), runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout

    def test_sqrt_at_2_15(self, runner):
        result = runner.invoke(main, ["bench", "sqrt", "--n", "32768"])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert [r["op"] for r in records] == ["sqrt", "sqrt_newton_coupled"]
        r = records[0]["blocks"]
        assert sum(records[0]["forward"].values()) == 2 * r - 1

    def test_bad_list_usage_error(self, runner):
        result = runner.invoke(main, ["bench", "sqrt", "--n", "64;128"])
        assert result.exit_code == 2
        assert "--n token 1: expected an integer, got '64;128'" in result.stderr

    @pytest.mark.parametrize("option, text, pos", [
        ("--n", "64,,128", 2), ("--n", "64,", 2), ("--n", "", 1), ("--blocks", ",", 1),
    ], ids=["inner", "trailing", "empty-list", "blocks-comma"])
    def test_empty_list_token_usage_error(self, runner, option, text, pos):
        # Every token must parse: skipping one would silently drop a case.
        args = ["--n", "64", option, text] if option == "--blocks" else [option, text]
        result = runner.invoke(main, ["bench", "sqrt", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"{option} token {pos}: expected an integer, got ''" in result.stderr

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_format_option_gone(self, runner, fmt):
        result = runner.invoke(main, ["bench", "sqrt", "--n", "64", "--format", fmt])
        assert result.exit_code == 2
        assert "No such option '--format'" in result.stderr


class TestOptionValues:
    @pytest.mark.parametrize("args", [
        ["bench", "sqrt", "--n", "64", "--seed", "-1"],
        ["compute", "sqrt", "--random", "--seed", "-1", "--n", "8"],
    ], ids=["bench", "compute"])
    def test_negative_seed_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "'--seed': -1 is not in the range" in result.stderr

    @pytest.mark.parametrize("n", ["0", "-5"])
    @pytest.mark.parametrize("cmd", [["bench", "sqrtrem"], ["compute", "sqrtrem", "--random"]],
                             ids=["bench", "compute"])
    def test_sqrtrem_half_degree_usage_error(self, runner, cmd, n):
        result = runner.invoke(main, [*cmd, "--n", n])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"--n must be >= 1 for sqrtrem (the half-degree), got {n}" in result.stderr

    @pytest.mark.parametrize("cmd", [["bench", "sqrt"], ["compute", "sqrt", "--random"]],
                             ids=["bench", "compute"])
    def test_precision_usage_error(self, runner, cmd):
        result = runner.invoke(main, [*cmd, "--n", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--n must be >= 1, got 0" in result.stderr


class TestSelftest:
    def test_quick_passes(self, runner):
        result = runner.invoke(main, ["selftest", "--quick"])
        assert result.exit_code == 0, result.output
        assert "selftest passed" in result.output

    def test_injected_fault_detected(self, runner):
        result = runner.invoke(main, ["selftest", "--quick", "--inject-fault"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as outside pytest: no error filter
    def test_runtime_warning_fails_the_check(self):
        ok, line = checks.run_check("overflow", lambda full: str(np.float64(1e308) * 10), True)
        assert not ok and line.startswith("FAIL  overflow") and "RuntimeWarning: overflow" in line
