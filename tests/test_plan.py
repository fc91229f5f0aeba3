import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockseries import TransformLedger, baselines
from blockseries import plan as planner
from blockseries.bench import BLOCKWISE_OPS, OPS
from blockseries.checks import expect_phases
from blockseries.corpus import conditioned_series
from blockseries.recip import choose_params as recip_params
from blockseries.sqrt import choose_params as sqrt_params

REPLAN_NS = [*range(1, 5001), 2**16, 2**18, 2**18 + 1]
COUNT_NS = [1, 2, 4, 17, 999, 4097, 2**16]


# Largest explicit block count per op: ceil(n / unit) blocks of size 1, where
# sqrtrem plans the square root of n + 1 coefficients.
BLOCK_LIMIT = {"sqrt": lambda n: n, "recip": lambda n: -(-n // 3), "sqrtrem": lambda n: n + 1}
SCHEME = {"sqrt": planner.SQRT, "recip": planner.RECIP, "sqrtrem": planner.SQRT}


# n -> the default (blocks, block_size) of SQRT and of RECIP, for n = 2^k and
# 3 * 2^k, k = 6..20, and n = 10^2..10^6.  A change that moves a plan must
# update this table, so every moved plan shows in one diff.
PINNED_PLANS = {
    64: ((2, 32), (1, 24)),
    100: ((2, 54), (1, 36)),
    128: ((1, 128), (1, 48)),
    192: ((3, 64), (1, 64)),
    256: ((2, 128), (1, 96)),
    384: ((3, 128), (1, 128)),
    512: ((2, 256), (1, 192)),
    768: ((3, 256), (1, 256)),
    1000: ((2, 512), (1, 384)),
    1024: ((2, 512), (1, 384)),
    1536: ((3, 512), (1, 512)),
    2048: ((4, 512), (1, 729)),
    3072: ((3, 1024), (1, 1024)),
    4096: ((4, 1024), (1, 1458)),
    6144: ((6, 1024), (1, 2048)),
    8192: ((4, 2048), (1, 2916)),
    10000: ((5, 2048), (1, 3456)),
    12288: ((6, 2048), (2, 2048)),
    16384: ((8, 2048), (3, 1944)),
    24576: ((12, 2048), (2, 4096)),
    32768: ((8, 4096), (3, 3888)),
    49152: ((12, 4096), (2, 8192)),
    65536: ((16, 4096), (11, 2048)),
    98304: ((12, 8192), (4, 8192)),
    100000: ((25, 4096), (5, 6912)),
    131072: ((16, 8192), (11, 4096)),
    196608: ((12, 16384), (4, 16384)),
    262144: ((16, 16384), (11, 8192)),
    393216: ((24, 16384), (4, 32768)),
    524288: ((16, 32768), (11, 16384)),
    786432: ((24, 32768), (4, 65536)),
    1000000: ((31, 32768), (7, 49152)),
    1048576: ((16, 65536), (11, 32768)),
    1572864: ((24, 65536), (4, 131072)),
    3145728: ((24, 131072), (4, 262144)),
}


def check_op(op, n, f, blocks=None):
    """Run op at its plan; the main and base ledgers must hold their schedules."""
    spec = OPS[op]
    plan = spec.plan(n, blocks)
    led, base = TransformLedger(), TransformLedger()
    out = spec.run(spec.fn, f, n, led, blocks, base)
    where = f"{op} n={n} blocks={blocks}"
    expect_phases(led, spec.schedule(plan.blocks, plan.block_size), where)
    expect_phases(base, SCHEME[op].base_schedule(plan.block_size), f"{where} base case")
    return out


def tallies(schedule):
    led = TransformLedger.of(schedule)
    return sum(led.forward.values()), sum(led.inverse.values())


class TestPlanner:
    @pytest.mark.parametrize("choose", [sqrt_params, recip_params], ids=["sqrt", "recip"])
    def test_replan_stable(self, choose):
        # The CLI and the ops re-plan with the chosen block count as an override.
        for n in REPLAN_NS:
            plan = choose(n)
            assert choose(n, plan.blocks) == plan, n

    @pytest.mark.parametrize("n", COUNT_NS)
    def test_default_plan_counts(self, n):
        for op in BLOCKWISE_OPS:
            check_op(op, n, OPS[op].make_input(n, n))

    @pytest.mark.parametrize(
        "scheme,run",
        [(planner.SQRT, baselines.sqrt_newton_coupled), (planner.RECIP, baselines.recip_schonhage)],
        ids=["sqrt", "recip"],
    )
    def test_base_case_runs_the_modelled_schedule(self, scheme, run):
        # The planner prices exactly the transforms the base case performs, in order.
        for m in [1, 2, 3, 5, 64, 96, 1000]:
            led = TransformLedger()
            run(conditioned_series(m, m), m, led)
            assert led.record == TransformLedger.of(scheme.base_schedule(m)).record, m

    def test_schedules_hold_the_paper_counts(self):
        # Closed forms of the (forward, inverse) tallies; no op runs here.
        m = 7
        for k in range(1, planner.SQRT.max_blocks + 1):
            assert tallies(OPS["sqrt"].schedule(k, m)) == (2 * k - 1, 2 * k - 2), k
            assert tallies(OPS["sqrtrem"].schedule(k, m)) == (2 * k, 3 * k - 2), k
        for k in range(1, planner.RECIP.max_blocks + 1):
            assert tallies(OPS["recip"].schedule(k, m)) == (7 * k - 1, 6 * k - 2), k

    def test_pinned_plans(self):
        got = {n: tuple((p.blocks, p.block_size)
                        for p in (planner.choose_plan(planner.SQRT, n),
                                  planner.choose_plan(planner.RECIP, n)))
               for n in PINNED_PLANS}
        assert got == PINNED_PLANS

    def test_plan_cache_bounded(self):
        assert planner._cheapest_blocks.cache_info().maxsize == planner.PLAN_CACHE_SIZE
        assert planner.base_case_ns.cache_info().maxsize == planner.BASE_CACHE_SIZE


class TestDefaultPlanProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.data())
    def test_ops_match_oracles_and_counts(self, n, seed, data):
        # The default plan or an explicit block count up to the limit; the
        # accumulate passes grow like k^2, so counts above 64 are not drawn.
        # A complex input rotates every coefficient but the unit one, which
        # keeps the input's conditioning; a real input must give a real output.
        for op in BLOCKWISE_OPS:
            limit = BLOCK_LIMIT[op](n)
            blocks = data.draw(st.none() | st.integers(1, min(limit, 64)), label=op)
            real = data.draw(st.booleans(), label=f"{op} real")
            f = OPS[op].make_input(seed, n)
            if not real:
                f = np.where(f == 1, f, f * np.exp(0.7j))
            out = check_op(op, n, f, blocks)
            assert OPS[op].error(f, n, out) <= 1e-9
            if real:
                assert not any(part.imag.any() for part in (out if op == "sqrtrem" else [out]))
            with pytest.raises(ValueError, match="outside"):
                OPS[op].plan(n, limit + 1)
