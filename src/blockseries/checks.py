"""Invariant checks behind the `selftest` CLI command and tests/test_checks.py.

Each check takes ``full`` (False for a quick smoke run), raises AssertionError
on a violated invariant and otherwise returns a detail string; the details
carry the maximum observed errors so a failing run points at the broken
layer.  Oracles and schedules are read from the op table in bench.py: each
check compares a ledger's ordered record, transform by transform, with the
schedule of the op or doubling base case that made it, and the counts checks
also assert the paper's totals 4r-3, 13s-3 and 5r-2 as literals.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from . import baselines, oracle
from .bench import OPS, max_abs, run_case
from .blockwise import TransformCache, combined_block, decompose, product_block
from .corpus import random_monic, random_series
from .recip import recip_block_iter
from .sqrt import rem_params, sqrt_block_iter, sqrt_rem
from .transform import TransformLedger, forward, inverse, is_supported, next_supported

# Sizes of the 20-seed correctness corpus that full mode adds.
CORPUS_SIZES = (16, 100, 512, 1024)


def _require(ok: bool, message: str) -> str:
    """Raise AssertionError(message) unless ok; return the message otherwise."""
    # Not an assert statement: checks must hold under python -O too.
    if not ok:
        raise AssertionError(message)
    return message


def block_of(coeffs, k: int, m: int) -> np.ndarray:
    """Block k of a coefficient vector, zero-padded to m."""
    out = np.zeros(m, dtype=np.complex128)
    seg = coeffs[k * m : (k + 1) * m]
    out[: len(seg)] = seg
    return out


def expect_phases(ledger: TransformLedger, schedule, where: str) -> None:
    """The ledger's record is the one the schedule states, transform by transform."""
    got, want = ledger.record, TransformLedger.of(schedule).record
    if got != want:
        at = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
        raise AssertionError(f"{where}: transform {at} is {got[at : at + 1]}, want "
                             f"{want[at : at + 1]} ({len(got)} recorded, want {len(want)})")


def transform_roundtrip(full: bool) -> str:
    sizes = [2, 3, 6, 8, 12, 27, 96, 108, 729, 1536]
    if full:
        sizes = [n for n in range(1, 2**14 + 1) if is_supported(n)]
    rng = np.random.default_rng(0)
    worst = 0.0
    led = TransformLedger()
    for n in sizes:
        p = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        worst = max(worst, max_abs(inverse(forward(p, n, led), led) - p))
    return _require(worst <= 1e-10, f"max roundtrip error {worst:.3e} (tol 1e-10)")


def transform_identities(full: bool) -> str:
    led = TransformLedger()
    errs = [
        max_abs(forward([1], 2, led) - [1, 1]),
        max_abs(forward([0, 1], 2, led) - [1, -1]),
        max_abs(forward([1, 2, 3, 4], 4, led) - [10, -2 - 2j, -2, -2 + 2j]),
    ]
    for m in [1, 2, 3, 6, 9, 16, 24] + ([4, 81, 128] if full else []):
        x = np.zeros(m + 1)
        x[m] = 1.0
        alt = np.where(np.arange(2 * m) % 2, -1.0, 1.0)
        errs.append(max_abs(forward(x, 2 * m, led) - alt))
    ok_sizes = [next_supported(k) for k in (1, 5, 8, 25, 100)] == [1, 6, 8, 27, 108]
    return _require(max(errs) <= 1e-12 and ok_sizes,
                    f"max identity error {max(errs):.3e}, sizes ok {ok_sizes}")


def convolution_theorem(full: bool) -> str:
    """The convolution theorem: inverse(forward(g1) * forward(g2)) is g1*g2 mod x^n - 1
    within 1e-9 * n/2, at every even supported n <= 8192 in full mode."""
    rng = np.random.default_rng(1)
    worst = 0.0
    sizes = [n for n in range(2, 8193, 2) if is_supported(n)] if full else [2, 6, 16, 54, 96]
    for n in sizes:
        g1 = rng.uniform(-1, 1, n)
        g2 = rng.uniform(-1, 1, n)
        led = TransformLedger()
        got = inverse(forward(g1, n, led) * forward(g2, n, led), led)
        _require(led.record == [n, n, -n], f"n={n}: ledger {led.record}, want {[n, n, -n]}")
        fullp = oracle.mul_schoolbook(g1, g2)
        want = fullp[:n].copy()
        want[: n - 1] += fullp[n:]
        worst = max(worst, max_abs(got - want) / (1e-9 * n / 2))
    return _require(worst <= 1.0, f"{len(sizes)} lengths, worst error/tolerance ratio {worst:.3e}")


def warm_caches(f, g, m, nb, ledger):
    """Caches of f's and g's nb blocks of size m, every spectrum computed."""
    fc = TransformCache(decompose(f, m, nb))
    gc = TransformCache(decompose(g, m, nb))
    for i in range(nb):
        fc.ensure(i, ledger)
        gc.ensure(i, ledger)
    return fc, gc


def _block_error(f, g, fc, gc, k: int, combined: bool, led: TransformLedger) -> float:
    """Error/tolerance of block k of f*g, or of f*f - f*g; asserts one inverse."""
    m = fc.block_size
    start = led.total()
    if combined:
        got = combined_block([(fc, fc, k, +1), (fc, gc, k, -1)], led)
        want = block_of(oracle.mul_schoolbook(f, f) - oracle.mul_schoolbook(f, g), k, m)
    else:
        got = product_block(fc, gc, k, led)
        want = block_of(oracle.mul_schoolbook(f, g), k, m)
    added = led.since(start).record
    _require(added == [-2 * m], f"m={m} k={k}: added {added}, want one inverse [{-2 * m}]")
    return max_abs(got - want) / (1e-9 * m * (k + 1))


def block_products(full: bool) -> str:
    rng = np.random.default_rng(3)
    worst, cases = 0.0, 0
    for m in [1, 2, 4, 8, 16]:
        for nb in [1, 3, 8] + ([4, 6] if full else []):
            led = TransformLedger()
            f = rng.uniform(-1, 1, m * nb)
            g = rng.uniform(-1, 1, m * nb)
            fc, gc = warm_caches(f, g, m, nb, led)
            for k in range(nb):
                worst = max(worst, _block_error(f, g, fc, gc, k, False, led))
            combined = range(nb) if full else [nb - 1]
            for k in combined:
                worst = max(worst, _block_error(f, g, fc, gc, k, True, led))
            cases += nb + len(combined)
    if full:
        # 200 randomized cases, product and combined blocks alternating.
        rng = np.random.default_rng(2024)
        for case in range(200):
            m = int(rng.choice([1, 2, 4, 8, 16]))
            nb = int(rng.integers(1, 9))
            k = int(rng.integers(0, nb))
            f = rng.uniform(-1, 1, m * nb)
            g = rng.uniform(-1, 1, m * nb)
            led = TransformLedger()
            fc, gc = warm_caches(f, g, m, nb, led)
            worst = max(worst, _block_error(f, g, fc, gc, k, case % 2 == 1, led))
        cases += 200
    return _require(worst <= 1.0, f"{cases} cases, worst error/tolerance ratio {worst:.3e}")


def _counts(op: str, m: int, top: int, letter: str, paper, formula: str) -> None:
    """The op's ledger at block parameter k = 1..top, block size m, holds
    paper(k) transforms in its schedule's order; the base case counts apart."""
    t0 = time.perf_counter()
    spec = OPS[op]
    for k in range(1, top + 1):
        n, led = spec.unit * k * m, TransformLedger()
        spec.run(spec.fn, spec.make_input(k, n), n, led, k, TransformLedger())
        where = f"{letter}={k}"
        _require(led.total() == paper(k), f"{where}: {led.total()} transforms, paper {formula}")
        expect_phases(led, spec.schedule(k, m), where)
    elapsed = time.perf_counter() - t0
    _require(elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s")


def sqrt_counts(full: bool) -> str:
    _counts("sqrt", 32, 16, "r", lambda r: 4 * r - 3, "4r-3")
    return "4r-3 transforms at 2m in phase order F (FIFI)*(r-1), r = 1..16"


def recip_counts(full: bool) -> str:
    _counts("recip", 16, 8, "s", lambda s: 13 * s - 3, "13s-3")
    return "13s-3 transforms at 2m in phase order F*(3s+1) (IFIF)*(s-1) (IF)*2s I*2s, s = 1..8"


def _correctness(op: str, residual, sizes: list[int], full: bool) -> str:
    """Oracle error and residual within 1e-8 * n on 3 seeds per size, plus the
    20-seed corpus in full mode."""
    t0 = time.perf_counter()
    spec = OPS[op]
    cases = {(n, seed) for n in sizes for seed in range(3)}
    if full:
        cases |= {(n, seed) for n in CORPUS_SIZES for seed in range(20)}
    worst = 0.0
    for n, seed in sorted(cases):
        f = spec.make_input(seed, n)
        g = spec.fn(f, n, TransformLedger())
        err = max(spec.error(f, n, g), max_abs(residual(f, g, n)))
        _require(err <= 1e-8 * n, f"n={n} seed={seed}: error {err:.3e} > 1e-8*n")
        worst = max(worst, err / (1e-8 * n))
    elapsed = time.perf_counter() - t0
    _require(elapsed < 30.0, f"took {elapsed:.1f}s, limit 30s")
    return f"worst error/tolerance ratio {worst:.3e} over n={sorted({n for n, _ in cases})}"


def _sqrt_residual(f, g, n):
    return oracle.mul_schoolbook(g, g)[:n] - f


def _recip_residual(f, g, n):
    unit = oracle.mul_schoolbook(f, g)[:n]
    unit[0] -= 1.0
    return unit


def sqrt_correctness(full: bool) -> str:
    sizes = [16, 100, 512] + ([1024, 4096] if full else [])
    return _correctness("sqrt", _sqrt_residual, sizes, full)


def recip_correctness(full: bool) -> str:
    return _correctness("recip", _recip_residual, [9, 96, 768] + ([3072] if full else []), full)


def sqrt_step_identity(full: bool) -> str:
    # In each iteration, twice the leading root block times the new block
    # must equal the input block minus the partial square's overshoot.
    m, r = 8, 5
    worst = 0.0
    for seed in (99, 7):
        fs = decompose(random_series(seed, r * m), m, r)
        g0 = oracle.sqrt_recurrence(fs.blocks[0], m)
        g = sqrt_block_iter(fs, g0, oracle.recip_recurrence(g0, m), r, TransformLedger())
        for k in range(1, r):
            prefix = g[: k * m]
            excess = block_of(oracle.mul_schoolbook(prefix, prefix), k, m)
            lhs = 2.0 * oracle.mul_schoolbook(g0, g[k * m : (k + 1) * m])[:m]
            worst = max(worst, max_abs(lhs - (fs.blocks[k] - excess)))
    return _require(worst <= 1e-10, f"max identity error {worst:.3e}")


def recip_structure(full: bool) -> str:
    """Phase record, correction blocks and division identity of the reciprocal."""
    cases = [(random_series(seed, 3 * s * m), m, s, 1e-10)
             for seed, m, s in ((123, 4, 3), (9, 4, 3), (11, 4, 3), (13, 4, 4))]
    cases.append(([1], 2, 1, 1e-12))  # unit input: every correction block is zero
    worst_corr = worst_div = 0.0
    for f, m, s, tol in cases:
        fs = decompose(f, m, 3 * s)
        g0 = oracle.recip_recurrence(fs.blocks[0], m)
        led = TransformLedger()
        g = recip_block_iter(fs, g0, s, led)
        expect_phases(led, OPS["recip"].schedule(s, m), f"s={s}")

        # The upper 2s output blocks are inv_low times the correction
        # -defect + defect_low^2 * X^s, where f * inv_low = 1 + defect * X^s.
        inv_low = g[: s * m]
        defect = oracle.mul_schoolbook(np.concatenate(fs.blocks), inv_low)[s * m : 3 * s * m]
        corr = -defect[: 2 * s * m]
        corr[s * m :] += oracle.mul_schoolbook(defect[: s * m], defect[: s * m])[: s * m]
        err = max_abs(g[s * m :] - oracle.mul_schoolbook(inv_low, corr)[: 2 * s * m])
        _require(err <= tol, f"s={s}: correction error {err:.3e} > {tol:g}")
        worst_corr = max(worst_corr, err)

        # Division loop: f0 * g_k cancels the partial product's overshoot.
        for k in range(1, s):
            partial = oracle.mul_schoolbook(np.concatenate(fs.blocks[: k + 1]), inv_low[: k * m])
            lhs = oracle.mul_schoolbook(fs.blocks[0], g[k * m : (k + 1) * m])[:m]
            worst_div = max(worst_div, max_abs(lhs + block_of(partial, k, m)))
    return _require(worst_div <= 1e-10, f"correction error {worst_corr:.3e}, "
                                        f"division identity error {worst_div:.3e}")


# (half-degree, block count) of sqrt_rem per way it forms the remainder's
# part of the square: the gap fill below r*m (r = 3, m = 24, slack 7); block
# r-1 plus the top of the last block's own square (r = 2, m = 48, slack 16);
# block r-1 alone (r = 4, m = 16, slack 15).
REMAINDER_CASES = ((64, None), (79, None), (48, 4))


def sqrt_remainder(full: bool) -> str:
    """Monic splits on each remainder path: shape, residual, and the +1F +rI
    extra cost."""
    errors = {n: [] for n, _ in REMAINDER_CASES}
    for n, blocks in REMAINDER_CASES:
        plan = rem_params(n, blocks)
        r, m = plan.blocks, plan.block_size
        for seed in range(10 if full else 5):
            f = random_monic(seed, 2 * n)
            led = TransformLedger()
            g, rem = sqrt_rem(f, led, blocks=blocks)
            where = f"n={n} seed={seed}"
            _require(led.total() == 5 * r - 2, f"{where}: {led.total()} transforms, paper 5r-2")
            expect_phases(led, OPS["sqrtrem"].schedule(r, m), where)
            _require(len(g) == n + 1 and len(rem) == n, f"{where}: lengths {len(g)}, {len(rem)}")
            _require(abs(g[-1] - 1.0) <= 1e-12, f"{where}: root not monic")
            errors[n].append(OPS["sqrtrem"].error(f, n, (g, rem)))
    worst = {n: float(np.max(e)) for n, e in errors.items()}  # np.max keeps a NaN
    detail = ", ".join(f"n={n} {w:.3e}" for n, w in worst.items())
    return _require(all(w <= 1e-7 for w in worst.values()), f"max residual {detail} (tol 1e-7)")


def baselines_check(full: bool) -> str:
    worst = 0.0
    for n in [256, 512] if full else [256]:
        f = OPS["recip_schonhage"].make_input(11, n)
        led = TransformLedger()
        e1 = OPS["recip_schonhage"].error(f, n, baselines.recip_schonhage(f, n, led))
        expect_phases(led, baselines.recip_schonhage_schedule(n), f"recip_schonhage n={n}")
        led = TransformLedger()
        g, ginv = baselines.sqrt_newton_coupled(f, n, led)
        expect_phases(led, baselines.sqrt_newton_coupled_schedule(n), f"sqrt_newton_coupled n={n}")
        e2 = OPS["sqrt_newton_coupled"].error(f, n, (g, ginv))
        err = max(e1, e2, max_abs(_recip_residual(g, ginv, n)))
        _require(err <= 1e-8 * n, f"n={n}: max baseline error {err:.3e}")
        worst = max(worst, err)
    return f"max baseline error {worst:.3e}"


def real_input(full: bool) -> str:
    """Real inputs give exactly real outputs from every op, odd lengths included."""
    top, extra = (70, [100, 2048, 3001, 2**16]) if full else (12, [100, 3001])
    for n in [*range(1, top + 1), *extra]:
        for op, spec in OPS.items():
            out = spec.run(spec.fn, spec.make_input(n, n), n, TransformLedger(), None, None)
            for part in out if isinstance(out, tuple) else (out,):
                _require(not part.imag.any(), f"{op} n={n}: imaginary part in the output")
    return f"{len(OPS)} ops exactly real at n = 1..{top}, {', '.join(map(str, extra))}"


def cost_crossover(full: bool) -> str:
    """Blockwise square root and reciprocal (base case included) beat their
    doubling comparators in weighted cost; both ops' cost ratios are within
    5% of the paper's count ratios."""
    m = 256
    rows = []
    for k in range(4, 9) if full else [4, 6]:
        for op, n in (("sqrt", k * m), ("recip", 3 * k * m)):
            case = run_case(op, n, blocks=k, seed=1)
            doubling = run_case(OPS[op].baseline, n, seed=1).weighted_cost
            total = case.weighted_cost + case.base_cost
            _require(total < doubling,
                     f"{op} k={k}: blockwise {total:.0f} >= doubling {doubling:.0f}")
            ratio, expected = case.cost_ratio, case.cost_ratio_expected
            _require(abs(ratio - expected) <= 0.05 * expected,
                     f"{op} k={k}: cost ratio {ratio:.4f}, expected {expected:.4f}")
            rows.append(f"{op} k={k}: {total:.0f} < {doubling:.0f}")
    return "; ".join(rows)


def determinism(full: bool) -> str:
    for op, seed, n in (("sqrt", 5, 300), ("sqrt", 5, 200), ("recip", 5, 300), ("recip", 6, 300)):
        f = random_series(seed, n)
        run = OPS[op].fn
        _require(np.array_equal(run(f, n, TransformLedger()), run(f, n, TransformLedger())),
                 f"{op} n={n}: outputs differ between runs")
    return "bit-identical repeated runs"


CHECKS = [
    ("transform-roundtrip", transform_roundtrip),
    ("transform-identities", transform_identities),
    ("cyclic-convolution", convolution_theorem),
    ("block-products", block_products),
    ("sqrt-counts", sqrt_counts),
    ("recip-counts", recip_counts),
    ("sqrt-correctness", sqrt_correctness),
    ("recip-correctness", recip_correctness),
    ("sqrt-step-identity", sqrt_step_identity),
    ("recip-structure", recip_structure),
    ("sqrt-remainder", sqrt_remainder),
    ("baselines", baselines_check),
    ("real-input", real_input),
    ("cost-crossover", cost_crossover),
    ("determinism", determinism),
]


def run_check(name: str, check, full: bool) -> tuple[bool, str]:
    """Run one check, failing it on a RuntimeWarning as pytest does; returns (ok, line)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ok, detail = True, check(full)
    except AssertionError as exc:
        ok, detail = False, str(exc)
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return ok, f"{'PASS' if ok else 'FAIL'}  {name:<22s} {detail}"


def run_selftest(full: bool, echo=print) -> bool:
    """Run every check, print one line each, return overall success."""
    all_ok = True
    for name, check in CHECKS:
        ok, line = run_check(name, check, full)
        all_ok &= ok
        echo(line)
    echo(f"selftest {'passed' if all_ok else 'FAILED'} ({'full' if full else 'quick'} mode)")
    return all_ok
