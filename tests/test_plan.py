from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockseries import TransformLedger, baselines, oracle, recip, sqrt, sqrt_rem
from blockseries import plan as planner
from blockseries.corpus import conditioned_monic, conditioned_series
from blockseries.recip import choose_params as recip_params
from blockseries.sqrt import choose_params as sqrt_params

REPLAN_NS = [*range(1, 5001), 2**16, 2**18, 2**18 + 1]
COUNT_NS = [1, 2, 4, 17, 999, 4097, 2**16]


def single_length(table, length, count):
    assert dict(+table) == ({length: count} if count else {})


def check_sqrt(n, f):
    plan = sqrt_params(n)
    led = TransformLedger()
    g = sqrt(f, n, led)
    r, m = plan.blocks, plan.block_size
    single_length(led.forward, 2 * m, 2 * r - 1)
    single_length(led.inverse, 2 * m, 2 * r - 2)
    assert led.total() == 4 * r - 3
    return g


def check_recip(n, f):
    plan = recip_params(n)
    led = TransformLedger()
    g = recip(f, n, led)
    s, m = plan.blocks, plan.block_size
    single_length(led.forward, 2 * m, 7 * s - 1)
    single_length(led.inverse, 2 * m, 6 * s - 2)
    assert led.total() == 13 * s - 3
    return g


def check_sqrt_rem(n, f):
    plan = sqrt_params(n + 1)
    m = plan.block_size
    r = min(plan.blocks, -(-(n + 1) // m))
    led = TransformLedger()
    g, rem = sqrt_rem(f, led)
    single_length(led.forward, 2 * m, 2 * r)
    single_length(led.inverse, 2 * m, 3 * r - 2)
    assert led.total() == 5 * r - 2
    return g, rem


class TestPlanner:
    @pytest.mark.parametrize("choose", [sqrt_params, recip_params], ids=["sqrt", "recip"])
    def test_replan_stable(self, choose):
        # The CLI and the ops re-plan with the chosen block count as an override.
        for n in REPLAN_NS:
            plan = choose(n)
            assert choose(n, plan.blocks) == plan, n

    @pytest.mark.parametrize("n", COUNT_NS)
    def test_default_plan_counts(self, n):
        check_sqrt(n, conditioned_series(n, n))
        check_recip(n, conditioned_series(n, n))
        check_sqrt_rem(n, conditioned_monic(n, 2 * n))

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
        f = conditioned_series(seed, n)
        g = check_sqrt(n, f)
        assert np.abs(g - oracle.sqrt_recurrence(f, n)).max() <= 1e-9
        g = check_recip(n, f)
        assert np.abs(g - oracle.recip_recurrence(f, n)).max() <= 1e-9
        f = conditioned_monic(seed, 2 * n)
        g, rem = check_sqrt_rem(n, f)
        resid = f - oracle.mul_schoolbook(g, g)
        resid[:n] -= rem
        assert np.abs(resid).max() <= 1e-9
