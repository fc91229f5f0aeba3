"""Command-line interface: compute, bench, and selftest.

Coefficient files are plain text, one coefficient per line as `re` or
`re im`, with `#` starting a comment.  Bench emits newline-delimited JSON,
one deterministic count record per (n, blocks) combination plus a classical
baseline row per n.  Exit codes: 0 success, 1 failure, 2 usage error.
"""

from __future__ import annotations

import contextlib
import sys
import time
import warnings

import click
import numpy as np

from . import transform
from .bench import BLOCKWISE_OPS, OPS, format_counts, run_bench
from .recip import recip  # noqa: F401  (compute calls the entry points by name)
from .sqrt import sqrt, sqrt_rem  # noqa: F401
from .transform import TransformLedger


def _parse_coeff_line(line: str, lineno: int, path: str) -> complex:
    parts = line.split()
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"{path}:{lineno}: expected `re` or `re im`, got {line!r}")


def _read_coeff_lines(path: str) -> np.ndarray:
    coeffs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                coeffs.append(_parse_coeff_line(line, lineno, path))
    return np.array(coeffs, dtype=np.complex128)


def _read_coeff_file(path: str) -> np.ndarray:
    """One bulk parse when every line has the same width; otherwise the line reader.

    Every file `compute` writes has one width.  The line reader takes every
    file loadtxt refuses or warns on: mixed `re` and `re im` lines (as a
    hand-written file may have), more than 2 columns, tokens only ``float``
    accepts (``1_0``, non-ASCII digits), and files with no coefficient.  It
    alone names ``path:lineno`` in an error.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = np.loadtxt(path, comments="#", ndmin=2)
    except (ValueError, OSError, Warning):
        return _read_coeff_lines(path)
    if cols.shape[1] > 2:
        return _read_coeff_lines(path)
    coeffs = np.zeros(len(cols), dtype=np.complex128)
    # Not re + 1j*im: that turns an infinite imaginary part into a NaN real part.
    coeffs.real = cols[:, 0]
    if cols.shape[1] == 2:
        coeffs.imag = cols[:, 1]
    return coeffs


def _parse_inline_token(tok: str, pos: int) -> complex:
    with contextlib.suppress(ValueError):
        return complex(float(tok), 0.0)
    with contextlib.suppress(ValueError):
        return complex(tok.replace(" ", ""))
    raise ValueError(f"--coeffs token {pos}: expected a real or complex number, got {tok!r}")


def _parse_inline(text: str) -> np.ndarray:
    coeffs = [_parse_inline_token(tok, pos) for pos, tok in enumerate(text.split(","), 1)]
    return np.array(coeffs, dtype=np.complex128)


def _format_coeffs(coeffs: np.ndarray) -> str:
    """One `%.17g` line per coefficient of one width: `re` if every imaginary
    part is zero (-0.0 included), else `re im` on every line."""
    if not coeffs.imag.any():
        return "%.17g\n" * len(coeffs) % tuple(coeffs.real.tolist())
    pairs = np.column_stack([coeffs.real, coeffs.imag])
    return "%.17g %.17g\n" * len(coeffs) % tuple(pairs.ravel().tolist())


def _write_coeffs(coeffs: np.ndarray, out: str | None, header: str) -> None:
    text = _format_coeffs(coeffs)
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write(text)


def _counts(table) -> str:
    return format_counts(table) or "-"


def _parse_int_token(tok: str, pos: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise click.UsageError(f"{what} token {pos}: expected an integer, got {tok!r}")


def _parse_int_list(text: str, what: str) -> list[int]:
    return [_parse_int_token(tok, pos, what) for pos, tok in enumerate(text.split(","), 1)]


def _require_positive_n(op: str, ns: list[int]) -> None:
    """Every --n is a precision, or for sqrtrem a half-degree: it must be >= 1."""
    bad = [n for n in ns if n < 1]
    if bad:
        what = " for sqrtrem (the half-degree)" if op == "sqrtrem" else ""
        raise click.UsageError(f"--n must be >= 1{what}, got {bad[0]}")


@click.group()
@click.version_option(package_name="blockseries")
def main():
    """Power-series square roots and reciprocals with exact transform counts."""


@main.command()
@click.argument("op", type=click.Choice(BLOCKWISE_OPS))
@click.option("--coeffs", help="Inline input: comma-separated coefficients.")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False),
              help="Input coefficient file (one `re` or `re im` per line, # comments).")
@click.option("--random", "random_input", is_flag=True,
              help="Use a seeded random l1-conditioned input instead of a file (needs --n).")
@click.option("--n", "n", type=int,
              help="Output precision; for sqrtrem the half-degree of a --random input.")
@click.option("--blocks", type=int,
              help="Fix the block count (r or s); the block size follows from it.")
@click.option("--seed", type=click.IntRange(min=0), help="Seed for --random.  [default: 0]")
@click.option("--out", type=click.Path(dir_okay=False),
              help="Write the result here (sqrtrem also writes <out>.rem).")
def compute(op, coeffs, infile, random_input, n, blocks, seed, out):
    """Compute a reciprocal, square root, or square root with remainder."""
    sources = sum(x is not None and x is not False for x in (coeffs, infile, random_input))
    if sources != 1:
        raise click.UsageError("need exactly one of --coeffs, --in, --random")
    if seed is not None and not random_input:
        raise click.UsageError("--seed applies only to --random")
    if op == "sqrtrem" and n is not None and not random_input:
        raise click.UsageError("sqrtrem takes --n only with --random; "
                               "otherwise the degree comes from the input")
    if n is not None:
        _require_positive_n(op, [n])
    spec = OPS[op]
    try:
        if random_input:
            if n is None:
                raise ValueError("--random needs --n")
            f = spec.make_input(seed or 0, n)
        else:
            f = _parse_inline(coeffs) if coeffs is not None else _read_coeff_file(infile)
        if n is None and op != "sqrtrem":
            raise ValueError(f"{op} needs --n")

        ledger = TransformLedger()
        base = TransformLedger()
        # The entry point is looked up in this module, so rebinding cli.sqrt,
        # cli.recip or cli.sqrt_rem reaches the call.
        fn = globals()[spec.fn.__name__]
        t0 = time.perf_counter_ns()
        # A finite input can overflow inside the iteration; the transform's
        # non-finite check reports that as the one `error:` line below, so
        # numpy's own overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            result = spec.run(fn, f, n, ledger, blocks, base)
        wall = time.perf_counter_ns() - t0
        if op == "sqrtrem":
            g, rem = result
            n = len(g) - 1
            _write_coeffs(g, out, f"sqrtrem root of degree-{len(f) - 1} input")
            if out is None:
                click.echo("# remainder")
            _write_coeffs(rem, None if out is None else f"{out}.rem", "sqrtrem remainder")
            label = f"op=sqrtrem deg={len(f) - 1}"
        else:
            _write_coeffs(result, out, f"{op} to order {n}")
            label = f"op={op} n={n}"
        plan = spec.plan(n, blocks)
        click.echo(
            f"{label} block_size={plan.block_size} blocks={plan.blocks} "
            f"forward[{_counts(ledger.forward)}] inverse[{_counts(ledger.inverse)}] "
            f"base_transforms={base.total()} wall_ms={wall / 1e6:.2f}",
            err=True,
        )
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@main.command()
@click.argument("op", type=click.Choice(BLOCKWISE_OPS))
@click.option("--n", "ns", required=True, help="Comma-separated list of precisions.")
@click.option("--blocks", "blocks_list", help="Comma-separated block counts (default: auto).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def bench(op, ns, blocks_list, seed):
    """Print transform counts, weighted costs and oracle errors as JSON lines.

    Every field is deterministic; wall time is measured by perfbench.
    """
    n_values = _parse_int_list(ns, "--n")
    _require_positive_n(op, n_values)
    blocks_values = _parse_int_list(blocks_list, "--blocks") if blocks_list is not None else [None]
    try:
        records = run_bench(op, n_values, blocks_values, seed=seed)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    for rec in records:
        click.echo(rec.to_json())


@main.command()
@click.option("--quick/--full", default=True, help="Quick smoke run or the full suite.")
@click.option("--inject-fault", is_flag=True, hidden=True,
              help="Corrupt every transform result (detector sanity hook).")
def selftest(quick, inject_fault):
    """Run the invariant checks; exit 0 only if everything passes."""
    from .checks import run_selftest  # imported here to keep compute's start-up lean

    with transform.twiddle_fault() if inject_fault else contextlib.nullcontext():
        ok = run_selftest(full=not quick, echo=click.echo)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
