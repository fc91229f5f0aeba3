"""Command-line interface: compute, bench, and selftest.

Coefficient files are plain text, one coefficient per line as `re` or
`re im`, with `#` starting a comment.  Bench emits newline-delimited JSON or
CSV, one record per (n, blocks) combination plus a classical baseline row
per n.  Exit codes: 0 success, 1 failure, 2 usage error.
"""

from __future__ import annotations

import contextlib
import csv
import sys
import time

import click
import numpy as np

from . import transform
from .bench import BLOCKWISE_OPS, CSV_FIELDS, OPS, format_counts, run_bench
from .recip import recip  # noqa: F401  (compute calls the entry points by name)
from .sqrt import sqrt, sqrt_rem  # noqa: F401
from .transform import TransformLedger


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _format_coeff(c: complex) -> str:
    if c.imag:
        return f"{_fmt(c.real)} {_fmt(c.imag)}"
    return _fmt(c.real)


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


def _read_coeff_file(path: str) -> np.ndarray:
    coeffs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                coeffs.append(_parse_coeff_line(line, lineno, path))
    return np.array(coeffs, dtype=np.complex128)


def _parse_inline(text: str) -> np.ndarray:
    coeffs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            coeffs.append(complex(float(tok), 0.0))
        except ValueError:
            coeffs.append(complex(tok.replace(" ", "")))
    return np.array(coeffs, dtype=np.complex128)


def _write_coeffs(coeffs: np.ndarray, out: str | None, header: str) -> None:
    lines = [_format_coeff(c) for c in coeffs]
    if out is None:
        click.echo("\n".join(lines))
    else:
        with open(out, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write("\n".join(lines) + "\n")


def _counts(table) -> str:
    return format_counts(table) or "-"


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"bad {what} list: {text!r}")


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
@click.option("--seed", type=int, help="Seed for --random.  [default: 0]")
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
        # Real input means a real result; drop the roundoff imaginary part.
        real_input = not f.imag.any()
        # The entry point is looked up in this module, so rebinding cli.sqrt,
        # cli.recip or cli.sqrt_rem reaches the call.
        fn = globals()[spec.fn.__name__]
        t0 = time.perf_counter_ns()
        result = spec.run(fn, f, n, ledger, blocks, base)
        wall = time.perf_counter_ns() - t0
        parts = result if op == "sqrtrem" else (result,)
        if real_input:
            parts = [p.real.astype(np.complex128) for p in parts]
        if op == "sqrtrem":
            g, rem = parts
            n = len(g) - 1
            _write_coeffs(g, out, f"sqrtrem root of degree-{len(f) - 1} input")
            if out is None:
                click.echo("# remainder")
                click.echo("\n".join(_format_coeff(c) for c in rem))
            else:
                _write_coeffs(rem, f"{out}.rem", "sqrtrem remainder")
            label = f"op=sqrtrem deg={len(f) - 1}"
        else:
            _write_coeffs(parts[0], out, f"{op} to order {n}")
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
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--no-baselines", is_flag=True, help="Skip the classical comparison rows.")
def bench(op, ns, blocks_list, seed, fmt, no_baselines):
    """Measure transform counts, weighted costs, and wall times."""
    n_values = _parse_int_list(ns, "--n")
    blocks_values = _parse_int_list(blocks_list, "--blocks") if blocks_list else [None]
    try:
        records = run_bench(
            op, n_values, blocks_values, seed=seed, include_baselines=not no_baselines
        )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        for rec in records:
            click.echo(rec.to_json())
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(rec.to_csv_row())


@main.command()
@click.option("--quick/--full", default=True, help="Quick smoke run or the full suite.")
@click.option("--inject-fault", is_flag=True, hidden=True,
              help="Corrupt one FFT twiddle factor (detector sanity hook).")
def selftest(quick, inject_fault):
    """Run the invariant checks; exit 0 only if everything passes."""
    from .checks import run_selftest  # imported here to keep compute's start-up lean

    with transform.twiddle_fault() if inject_fault else contextlib.nullcontext():
        ok = run_selftest(full=not quick, echo=click.echo)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
