"""Self-check of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selfcheck.py

Shows that the correctness gate catches a corrupted FFT, that the traced
layer counts add up to the package's own ledgers, and that the layer self
times add up to each traced call's wall time.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

IN_PROCESS = ("large", "many_blocks", "small")


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def bench(request, tmp_path_factory):
    workload = inputs.build(request.param, seed=7)
    workdir = tmp_path_factory.mktemp(request.param)
    bench = run.Bench(workload, workdir if request.param == "cli_file" else None)
    bench.setup()
    return bench


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_twiddle_fault_fails_every_in_process_call(bench):
    if bench.workload.name not in IN_PROCESS:
        pytest.skip("CLI requests run in child processes the fault does not reach")
    with import_module("blockseries.transform").twiddle_fault():
        calls = bench.run(0, traced=False)
    assert calls and all(c.problem is not None for c in calls)


def test_untraced_run_is_correct(bench):
    calls = bench.run(0, traced=False)
    assert [c.problem for c in calls if c.problem] == []
    metrics = run.end_to_end(calls, [1.0], 1024)
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_traced_counts_and_self_times_add_up(bench):
    calls = bench.run(0, traced=True)
    assert [c.problem for c in calls if c.problem] == []
    traced = [c for c in calls if c.trace is not None]
    assert len(traced) == len(calls) // 2
    for c in traced:
        t = c.trace
        assert sum(t.self_ns.values()) == t.wall_ns
        assert set(t.self_ns) <= set(spans.LAYERS)
        if c.trace.calls["cli"]:
            ledgered = sum(c.forward.values()) + sum(c.inverse.values()) + c.base_transforms
            assert sum(t.forward.values()) + sum(t.inverse.values()) == ledgered
        else:
            assert t.forward == c.forward + c.base_forward
            assert t.inverse == c.inverse + c.base_inverse
        if c.op in inputs.BLOCKWISE_OPS and not c.trace.calls["cli"]:
            # the base case's transforms are exactly those inside its span
            assert t.base_forward == c.base_forward
            assert t.base_inverse == c.base_inverse
    metrics = run.per_layer(calls)
    assert list(metrics) == run.per_layer_names()
    assert metrics["trace.missed_transforms"] == 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
