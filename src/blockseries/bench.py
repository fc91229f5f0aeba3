"""Benchmark records: transform counts, weighted costs, and wall times.

The interesting fields are machine-independent: the per-length transform
counts reproduce the 4r-3 / 13s-3 totals exactly, and weighted_cost sums
length * log2(length) over them, which stands in for time in a way that can
be compared across machines.  Only wall_ns varies between runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import baselines, oracle
from .corpus import RNG_NAME, conditioned_monic, conditioned_series
from .plan import RECIP, SQRT, choose_plan
from .recip import recip
from .sqrt import sqrt, sqrt_rem
from .transform import TransformLedger

# Largest n for which bench records include the O(n^2) oracle comparison.
ORACLE_CUTOFF = 2048

CSV_FIELDS = [
    "op",
    "n",
    "blocks",
    "block_size",
    "forward",
    "inverse",
    "weighted_cost",
    "base_cost",
    "cost_ratio",
    "cost_ratio_expected",
    "wall_ns",
    "max_error",
    "rng",
    "seed",
]


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
    wall_ns: int
    max_error: float | None
    rng: str
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "BenchRecord":
        raw = json.loads(line)
        # JSON object keys are strings; count tables are keyed by length.
        raw["forward"] = {int(k): v for k, v in raw["forward"].items()}
        raw["inverse"] = {int(k): v for k, v in raw["inverse"].items()}
        return cls(**raw)

    def to_csv_row(self) -> list[str]:
        def counts(table: dict[int, int]) -> str:
            return " ".join(f"{k}:{table[k]}" for k in sorted(table))

        def opt(v) -> str:
            return "" if v is None else str(v)

        return [
            self.op,
            str(self.n),
            opt(self.blocks),
            opt(self.block_size),
            counts(self.forward),
            counts(self.inverse),
            repr(self.weighted_cost),
            repr(self.base_cost),
            opt(self.cost_ratio),
            opt(self.cost_ratio_expected),
            str(self.wall_ns),
            opt(self.max_error),
            self.rng,
            str(self.seed),
        ]


def _transform_cost(length: int) -> float:
    return length * math.log2(length) if length > 1 else 0.0


def _residual_recip(f: np.ndarray, g: np.ndarray) -> float:
    r = oracle.mul_schoolbook(f, g)[: len(g)]
    r[0] -= 1.0
    return float(np.abs(r).max())


def run_case(
    op: str,
    n: int,
    blocks: int | None = None,
    block_size: int | None = None,
    seed: int = 0,
) -> BenchRecord:
    """Run one operation and collect its counts, costs, and timing."""
    ledger = TransformLedger()
    base = TransformLedger()
    ratio = expected = None
    max_error = None

    if op == "sqrt":
        plan = choose_plan(SQRT, n, blocks)
        m = block_size if block_size is not None else plan.block_size
        f = conditioned_series(seed, n)
        t0 = time.perf_counter_ns()
        g = sqrt(f, n, ledger, blocks=plan.blocks, block_size=m, base_ledger=base)
        wall = time.perf_counter_ns() - t0
        r_equiv, rec_blocks = plan.blocks, plan.blocks
        expected = (4 * plan.blocks - 3) / (3 * plan.blocks)
        if n <= ORACLE_CUTOFF:
            max_error = float(np.abs(g - oracle.sqrt_recurrence(f, n)).max())
    elif op == "recip":
        plan = choose_plan(RECIP, n, blocks)
        m = block_size if block_size is not None else plan.block_size
        f = conditioned_series(seed, n)
        t0 = time.perf_counter_ns()
        g = recip(f, n, ledger, blocks=plan.blocks, block_size=m, base_ledger=base)
        wall = time.perf_counter_ns() - t0
        r_equiv, rec_blocks = 3 * plan.blocks, plan.blocks
        expected = (13 * plan.blocks - 3) / (9 * plan.blocks)
        if n <= ORACLE_CUTOFF:
            max_error = float(np.abs(g - oracle.recip_recurrence(f, n)).max())
    elif op == "sqrtrem":
        f = conditioned_monic(seed, 2 * n)
        cap: dict = {}
        t0 = time.perf_counter_ns()
        g, rem = sqrt_rem(f, ledger, blocks=blocks, base_ledger=base, capture=cap)
        wall = time.perf_counter_ns() - t0
        m, rec_blocks, r_equiv = cap["block_size"], cap["blocks"], None
        if n <= ORACLE_CUTOFF:
            resid = f - oracle.mul_schoolbook(g, g)
            resid[:n] -= rem
            max_error = float(np.abs(resid).max())
    elif op == "recip_schonhage":
        f = conditioned_series(seed, n)
        t0 = time.perf_counter_ns()
        g = baselines.recip_schonhage(f, n, ledger)
        wall = time.perf_counter_ns() - t0
        m = rec_blocks = r_equiv = None
        if n <= ORACLE_CUTOFF:
            max_error = float(np.abs(g - oracle.recip_recurrence(f, n)).max())
    elif op == "sqrt_newton_coupled":
        f = conditioned_series(seed, n)
        t0 = time.perf_counter_ns()
        g, _ = baselines.sqrt_newton_coupled(f, n, ledger)
        wall = time.perf_counter_ns() - t0
        m = rec_blocks = r_equiv = None
        if n <= ORACLE_CUTOFF:
            max_error = float(np.abs(g - oracle.sqrt_recurrence(f, n)).max())
    else:
        raise ValueError(f"unknown op {op!r}")

    weighted = ledger.weighted_cost()
    if r_equiv is not None and m is not None:
        ratio = weighted / (3 * r_equiv * _transform_cost(2 * m))
    return BenchRecord(
        op=op,
        n=n,
        blocks=rec_blocks,
        block_size=m,
        forward=dict(sorted(ledger.forward.items())),
        inverse=dict(sorted(ledger.inverse.items())),
        weighted_cost=weighted,
        base_cost=base.weighted_cost(),
        cost_ratio=ratio,
        cost_ratio_expected=expected,
        wall_ns=wall,
        max_error=max_error,
        rng=RNG_NAME,
        seed=seed,
    )


def run_bench(
    op: str,
    ns: list[int],
    blocks_list: list[int | None],
    block_size: int | None = None,
    seed: int = 0,
    include_baselines: bool = True,
) -> list[BenchRecord]:
    """One record per (n, blocks) pair, plus a baseline row per n."""
    baseline_op = {"sqrt": "sqrt_newton_coupled", "recip": "recip_schonhage"}.get(op)
    records = []
    for n in ns:
        for blocks in blocks_list:
            records.append(run_case(op, n, blocks=blocks, block_size=block_size, seed=seed))
        if include_baselines and baseline_op:
            records.append(run_case(baseline_op, n, seed=seed))
    return records
