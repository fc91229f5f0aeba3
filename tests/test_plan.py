from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockseries import TransformLedger, baselines
from blockseries import plan as planner
from blockseries.bench import BLOCKWISE_OPS, OPS
from blockseries.checks import expect_counts
from blockseries.corpus import conditioned_series
from blockseries.recip import choose_params as recip_params
from blockseries.sqrt import choose_params as sqrt_params

REPLAN_NS = [*range(1, 5001), 2**16, 2**18, 2**18 + 1]
COUNT_NS = [1, 2, 4, 17, 999, 4097, 2**16]


def check_op(op, n, f):
    """Run op at its default plan; the ledger must hold its exact count split."""
    spec = OPS[op]
    plan = spec.plan(n, None)
    led = TransformLedger()
    out = spec.run(spec.fn, f, n, led, None, None, None)
    expect_counts(led, 2 * plan.block_size, spec.counts(plan.blocks), f"{op} n={n}")
    return out


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
        for m in [1, 2, 3, 5, 64, 96, 1000]:
            led = TransformLedger()
            run(conditioned_series(m, m), m, led)
            lengths = Counter(
                length for _, _, length in baselines.doubling_schedule(m, scheme.base_span)
            )
            assert led.forward + led.inverse == Counter(
                {length: c * scheme.base_step_transforms for length, c in lengths.items()}
            )

    def test_plan_cache_bounded(self):
        assert planner._cheapest_blocks.cache_info().maxsize == planner.PLAN_CACHE_SIZE
        assert planner.base_case_ns.cache_info().maxsize == planner.BASE_CACHE_SIZE


class TestDefaultPlanProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_ops_match_oracles_and_counts(self, n, seed):
        for op in BLOCKWISE_OPS:
            f = OPS[op].make_input(seed, n)
            assert OPS[op].error(f, n, check_op(op, n, f)) <= 1e-9
