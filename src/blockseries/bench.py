"""Benchmark records: transform counts, weighted costs and oracle errors.

Every field is a pure function of (op, n, blocks, seed): the per-length
transform counts reproduce the 4r-3 / 13s-3 totals exactly, and
weighted_cost sums length * log2(length) over them, which stands in for time
in a way that can be compared across machines.  Wall time is measured by
perfbench, not here.

OPS is the one table of operations: each name's entry point, plan, seeded
input, oracle and schedule.  The CLI and the invariant checks read it too.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import baselines, oracle
from .corpus import RNG_NAME, conditioned_monic, conditioned_series
from .plan import RECIP, SQRT, BlockPlan
from .recip import choose_params as recip_params, recip
from .sqrt import choose_params as sqrt_params, rem_params, sqrt, sqrt_rem
from .transform import TransformLedger, transform_cost

# Largest n for which bench records include the O(n^2) oracle comparison.
ORACLE_CUTOFF = 2048


def _blockwise(fn, f, n, ledger, blocks, base):
    return fn(f, n, ledger, blocks=blocks, base_ledger=base)


def _with_remainder(fn, f, n, ledger, blocks, base):
    return fn(f, ledger, blocks=blocks, base_ledger=base)


def _doubling(fn, f, n, ledger, blocks, base):
    return fn(f, n, ledger)


def max_abs(x) -> float:
    return float(np.abs(x).max()) if len(x) else 0.0


def _sqrt_error(f, n, g) -> float:
    return max_abs(g - oracle.sqrt_recurrence(f, n))


def _recip_error(f, n, g) -> float:
    return max_abs(g - oracle.recip_recurrence(f, n))


def _remainder_error(f, n, out) -> float:
    g, rem = out
    resid = f - oracle.mul_schoolbook(g, g)
    resid[:n] -= rem
    return max_abs(resid)


@dataclass(frozen=True)
class Op:
    """An operation: how to call it and the oracle and schedule it must meet."""

    fn: Callable  # public entry point
    run: Callable  # (fn, f, n, ledger, blocks, base_ledger) -> output
    make_input: Callable[[int, int], np.ndarray]  # (seed, n) -> seeded input
    error: Callable  # (f, n, output) -> largest deviation from the O(n^2) oracle
    plan: Callable[[int, int | None], BlockPlan] | None = None  # None: doubling baseline
    schedule: Callable[[int, int], list] | None = None  # (blocks, block size) -> ledger runs
    unit: int | None = None  # output blocks per block for the cost ratio; None: no ratio
    baseline: str | None = None


OPS: dict[str, Op] = {
    "sqrt": Op(sqrt, _blockwise, conditioned_series, _sqrt_error, plan=sqrt_params,
               schedule=SQRT.schedule, unit=SQRT.unit, baseline="sqrt_newton_coupled"),
    "recip": Op(recip, _blockwise, conditioned_series, _recip_error, plan=recip_params,
                schedule=RECIP.schedule, unit=RECIP.unit, baseline="recip_schonhage"),
    # The square root's, then the last root block and the r high square blocks.
    "sqrtrem": Op(sqrt_rem, _with_remainder, lambda seed, n: conditioned_monic(seed, 2 * n),
                  _remainder_error, plan=rem_params,
                  schedule=lambda r, m: SQRT.schedule(r, m) + [(2 * m, "F", 1), (2 * m, "I", r)]),
    "recip_schonhage": Op(baselines.recip_schonhage, _doubling, conditioned_series, _recip_error),
    "sqrt_newton_coupled": Op(baselines.sqrt_newton_coupled, _doubling, conditioned_series,
                              lambda f, n, out: _sqrt_error(f, n, out[0])),
}
BLOCKWISE_OPS = [name for name, op in OPS.items() if op.plan is not None]


def format_counts(table: dict[int, int]) -> str:
    return " ".join(f"{k}:{table[k]}" for k in sorted(table))


@dataclass
class BenchRecord:
    op: str
    n: int
    blocks: int | None
    block_size: int | None
    forward: dict[int, int]
    inverse: dict[int, int]
    weighted_cost: float
    base_cost: float
    cost_ratio: float | None
    cost_ratio_expected: float | None
    max_error: float | None
    rng: str
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def run_case(
    op: str,
    n: int,
    blocks: int | None = None,
    seed: int = 0,
) -> BenchRecord:
    """Run one operation and collect its counts, costs and oracle error."""
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}")
    spec = OPS[op]
    ledger = TransformLedger()
    base = TransformLedger()
    f = spec.make_input(seed, n)
    out = spec.run(spec.fn, f, n, ledger, blocks, base)

    k = m = ratio = expected = None
    if spec.plan is not None:
        plan = spec.plan(n, blocks)
        k, m = plan.blocks, plan.block_size
    weighted = ledger.weighted_cost()
    if spec.unit is not None:
        ratio = weighted / (3 * spec.unit * k * transform_cost(2 * m))
        expected = TransformLedger.of(spec.schedule(k, m)).total() / (3 * spec.unit * k)
    return BenchRecord(
        op=op,
        n=n,
        blocks=k,
        block_size=m,
        forward=dict(sorted(ledger.forward.items())),
        inverse=dict(sorted(ledger.inverse.items())),
        weighted_cost=weighted,
        base_cost=base.weighted_cost(),
        cost_ratio=ratio,
        cost_ratio_expected=expected,
        max_error=spec.error(f, n, out) if n <= ORACLE_CUTOFF else None,
        rng=RNG_NAME,
        seed=seed,
    )


def run_bench(
    op: str,
    ns: list[int],
    blocks_list: list[int | None],
    seed: int = 0,
    include_baselines: bool = True,
) -> list[BenchRecord]:
    """One record per (n, blocks) pair, plus a baseline row per n."""
    records = []
    for n in ns:
        for blocks in blocks_list:
            records.append(run_case(op, n, blocks=blocks, seed=seed))
        if include_baselines and OPS[op].baseline:
            records.append(run_case(OPS[op].baseline, n, seed=seed))
    return records
