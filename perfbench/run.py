"""Benchmark of the blockseries package, driven through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The workload's requests (see ``inputs.py``) are issued in
a closed loop, one at a time on one thread, until ``--seconds`` have passed
and a whole unit of requests is done.  Every call is checked (exact transform
counts, ledger-free residual) outside the timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a separate traced run with ``--trace 1``.  The line
before it records the environment and the call counts.
"""

from __future__ import annotations

import os

# Single-threaded by construction; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import import_module  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from inputs import BLOCKWISE_OPS, CLI, OPS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

# The layer that holds each blockwise op's glue code.
GLUE = {"sqrt": "sqrt", "recip": "recip", "sqrtrem": "sqrt"}

END_TO_END = {
    **{f"{op}_s": "s" for op in OPS},
    "coeffs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> list[str]:
    """Names of the traced run's metrics, in output order."""
    names = []
    transform = ["forward_calls", "inverse_calls", "self_s", "share", "weighted_cost",
                 "ns_per_nlogn", "distinct_lengths"]
    for op in OPS:
        names += [f"{op}.transform.{s}" for s in transform]
        if op in BLOCKWISE_OPS:
            names += [f"{op}.blockwise.{s}" for s in ("calls", "self_s", "share")]
            names += [f"{op}.baselines.{s}"
                      for s in ("calls", "busy_s", "self_s", "share", "weighted_cost")]
            names += [f"{op}.{GLUE[op]}.{s}" for s in ("self_s", "share")]
            names += [f"{op}.cli.{s}" for s in ("self_s", "share")]
            names.append(f"{op}.ledger.cost_ratio")
        else:
            names += [f"{op}.baselines.{s}" for s in ("self_s", "share")]
        names += [f"{op}.residual.max", f"{op}.trace.overhead"]
    names.append("trace.missed_transforms")
    return names


PER_LAYER_UNITS = {
    "calls": "count", "forward_calls": "count", "inverse_calls": "count",
    "distinct_lengths": "count", "missed_transforms": "count",
    "self_s": "s", "busy_s": "s", "share": "ratio", "weighted_cost": "nlog2n",
    "ns_per_nlogn": "ns", "cost_ratio": "ratio", "max": "abs", "overhead": "ratio",
}


@dataclass
class Call:
    """One issued request: what it cost and whether it passed the gate."""

    op: str
    wall_ns: int
    coeffs: int = 0
    residual: float = float("inf")
    problem: str | None = None
    forward: Counter = field(default_factory=Counter)  # main ledger, by length
    inverse: Counter = field(default_factory=Counter)
    base_transforms: int = 0
    cost_ratio: float | None = None
    trace: spans.CallTrace | None = None
    # In-process calls also keep the base ledger by length.
    base_forward: Counter = field(default_factory=Counter)
    base_inverse: Counter = field(default_factory=Counter)


class Bench:
    """One workload's inputs and the means to issue its requests."""

    def __init__(self, workload: inputs.Workload, workdir: Path | None):
        self.workload = workload
        self.paths: dict[int, tuple[Path, Path]] = {}
        if workdir is not None:
            for i, req in enumerate(workload.requests):
                if req.kind == CLI:
                    src = workdir / f"in{i}.txt"
                    _write_coeffs(src, req.f)
                    self.paths[i] = (src, workdir / f"out{i}.txt")

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Import the package and call each (op, size) once; returns seconds.

        Warms the package's per-length plan tables so that no timed call pays
        for them.  CLI requests are warmed through the same library calls.
        """
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        bs = import_module("blockseries")
        if Path(bs.__file__).resolve().parent != (SRC / "blockseries").resolve():
            raise SystemExit(f"error: blockseries imported from {bs.__file__}, not {SRC}")
        if any(req.kind == CLI for req in self.workload.requests):
            import_module("blockseries.cli")
        seen = set()
        for req in self.workload.requests:
            key = (req.op, req.n, req.blocks)
            if key not in seen:
                seen.add(key)
                _invoke(req, *_ledgers())
        return time.perf_counter() - t0

    # -- issuing requests -------------------------------------------------

    def run(self, seconds: float, traced: bool) -> list[Call]:
        """Issue requests until ``seconds`` have passed and a unit is done.

        Traced runs issue each request twice, untraced and traced, in
        alternating order, so ``trace.overhead`` compares like with like.
        """
        reqs, unit = self.workload.requests, self.workload.unit
        calls: list[Call] = []
        start = time.perf_counter()
        i = 0
        while True:
            idx = i % len(reqs)
            if not traced:
                calls.append(self.issue(idx, None))
            else:
                pair = [None, spans.CallTrace()]
                if i % 2:
                    pair.reverse()
                calls += [self.issue(idx, t, traced_run=True) for t in pair]
            i += 1
            if i % unit == 0 and time.perf_counter() - start >= seconds:
                return calls

    def issue(self, idx: int, trace: spans.CallTrace | None, traced_run: bool = False) -> Call:
        req = self.workload.requests[idx]
        if req.kind == CLI and not traced_run:
            call, out = self._cli_child(idx)
        elif req.kind == CLI:
            call, out = self._cli_in_process(idx, trace)
        else:
            call, out = self._api(req, trace)
        if call.problem is not None:
            return call
        call.residual, call.problem = gate.check(
            req.op, req.n, req.blocks, req.f, out, call.forward, call.inverse)
        call.coeffs = _coeff_count(req.op, out)
        if req.op in BLOCKWISE_OPS:
            call.cost_ratio = gate.cost_ratio(
                req.op, req.n, req.blocks, gate.weighted_cost(call.forward, call.inverse))
        return call

    def _api(self, req: inputs.Request, trace):
        ledger, base = _ledgers()
        call = Call(req.op, 0, trace=trace)
        out = None
        try:
            with _installed(trace):
                t0 = time.perf_counter_ns()
                if req.op in GLUE:
                    out = _span(trace, GLUE[req.op], _invoke, req, ledger, base)
                else:
                    out = _invoke(req, ledger, base)
                call.wall_ns = time.perf_counter_ns() - t0
        except Exception as exc:  # a failing op is counted, not fatal
            call.problem = f"{type(exc).__name__}: {exc}"
        call.forward, call.inverse = Counter(ledger.forward), Counter(ledger.inverse)
        call.base_forward, call.base_inverse = Counter(base.forward), Counter(base.inverse)
        call.base_transforms = base.total()
        return call, out

    def _cli_args(self, idx: int) -> list[str]:
        req = self.workload.requests[idx]
        src, dst = self.paths[idx]
        args = ["compute", req.op, "--in", str(src), "--out", str(dst)]
        if req.op != "sqrtrem":
            args += ["--n", str(req.n)]
        return args

    def _cli_child(self, idx: int):
        """One `blockseries compute` request in a fresh process, as users pay."""
        req = self.workload.requests[idx]
        call = Call(req.op, 0)
        cmd = [sys.executable, "-m", "blockseries.cli", *self._cli_args(idx)]
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            call.problem = f"timed out after {CHILD_TIMEOUT_S} s"
            return call, None
        call.wall_ns = time.perf_counter_ns() - t0
        if proc.returncode != 0:
            call.problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return call, None
        return self._cli_result(idx, call, proc.stderr)

    def _cli_in_process(self, idx: int, trace: spans.CallTrace | None):
        """The same request through ``cli.main`` in this process.

        Traced runs issue both twins of a CLI request this way, so that
        ``trace.overhead`` compares in-process calls with each other.
        """
        req = self.workload.requests[idx]
        cli = sys.modules["blockseries.cli"]
        call = Call(req.op, 0, trace=trace)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    _installed(trace):
                t0 = time.perf_counter_ns()
                _span(trace, "cli", cli.main, self._cli_args(idx), standalone_mode=False)
                call.wall_ns = time.perf_counter_ns() - t0
        except SystemExit as exc:
            call.problem = f"exit {exc.code}: {err.getvalue().strip()[-300:]}"
            return call, None
        except Exception as exc:  # a failing request is counted, not fatal
            call.problem = f"{type(exc).__name__}: {exc}"
            return call, None
        return self._cli_result(idx, call, err.getvalue())

    def _cli_result(self, idx: int, call: Call, stderr: str):
        """Read the output files and the ledger counts from the summary line."""
        req = self.workload.requests[idx]
        match = _SUMMARY.search(stderr)
        if match is None:
            call.problem = f"no transform summary in stderr: {stderr.strip()[-300:]}"
            return call, None
        call.forward, call.inverse = _parse_counts(match[1]), _parse_counts(match[2])
        call.base_transforms = int(match[3])
        dst = self.paths[idx][1]
        try:
            out = _read_coeffs(dst)
            if req.op == "sqrtrem":
                out = (out, _read_coeffs(Path(f"{dst}.rem")))
        except (OSError, ValueError) as exc:
            call.problem = f"unreadable output: {exc}"
            return call, None
        return call, out


_SUMMARY = re.compile(r"forward\[([^\]]*)\] inverse\[([^\]]*)\] base_transforms=(\d+)")


def _parse_counts(text: str) -> Counter:
    if text == "-":
        return Counter()
    return Counter({int(k): int(v) for k, v in (item.split(":") for item in text.split())})


def _write_coeffs(path: Path, f: np.ndarray) -> None:
    cols = np.column_stack([f.real, f.imag]) if f.imag.any() else f.real
    np.savetxt(path, cols, fmt="%.17g")


def _read_coeffs(path: Path) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts:
                vals.append(complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0))
    return np.array(vals, dtype=np.complex128)


def _installed(trace: spans.CallTrace | None):
    return contextlib.nullcontext() if trace is None else spans.installed(trace)


def _span(trace: spans.CallTrace | None, layer: str, fn, *args, **kwargs):
    if trace is None:
        return fn(*args, **kwargs)
    return trace.call(layer, fn, *args, **kwargs)


def _ledgers():
    ledger_cls = sys.modules["blockseries"].TransformLedger
    return ledger_cls(), ledger_cls()


def _invoke(req: inputs.Request, ledger, base):
    """Call the op through the public API; names are looked up per call so
    that traced runs see the rebound comparators."""
    bs = sys.modules["blockseries"]
    baselines = sys.modules["blockseries.baselines"]
    if req.op == "sqrt":
        return bs.sqrt(req.f, req.n, ledger, blocks=req.blocks, base_ledger=base)
    if req.op == "recip":
        return bs.recip(req.f, req.n, ledger, blocks=req.blocks, base_ledger=base)
    if req.op == "sqrtrem":
        return bs.sqrt_rem(req.f, ledger, blocks=req.blocks, base_ledger=base)
    if req.op == "doubling_sqrt":
        return baselines.sqrt_newton_coupled(req.f, req.n, ledger)
    return baselines.recip_schonhage(req.f, req.n, ledger)


def _coeff_count(op: str, out) -> int:
    if op == "sqrtrem":
        return len(out[0]) + len(out[1])
    if op == "doubling_sqrt":
        return len(out[0])
    return len(out)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- metrics ------------------------------------------------------------------


def _median_s(values_ns) -> float:
    return statistics.median(values_ns) / 1e9


def end_to_end(calls: list[Call], setup_s: list[float], rss_kb: int) -> dict:
    metrics = {f"{op}_s": _median_s([c.wall_ns for c in calls if c.op == op]) for op in OPS}
    main = [c for c in calls if c.op in BLOCKWISE_OPS]
    metrics["coeffs_per_s"] = sum(c.coeffs for c in main) / (sum(c.wall_ns for c in main) / 1e9)
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = rss_kb / 1024
    return metrics


def per_layer(calls: list[Call]) -> dict:
    metrics = {}
    missed = 0
    for op in OPS:
        traced = [c for c in calls if c.op == op and c.trace is not None]
        plain = [c for c in calls if c.op == op and c.trace is None]
        traces = [c.trace for c in traced]
        n = len(traces)
        wall = sum(t.wall_ns for t in traces)
        fwd = sum((t.forward for t in traces), Counter())
        inv = sum((t.inverse for t in traces), Counter())
        cost = gate.weighted_cost(fwd, inv)
        m = {
            "transform.forward_calls": sum(fwd.values()) / n,
            "transform.inverse_calls": sum(inv.values()) / n,
            "transform.weighted_cost": cost / n,
            "transform.ns_per_nlogn": sum(t.self_ns["transform"] for t in traces) / cost,
            "transform.distinct_lengths": len(set(fwd) | set(inv)),
            "residual.max": max(c.residual for c in traced + plain),
            "trace.overhead": sum(c.wall_ns for c in traced) / sum(c.wall_ns for c in plain) - 1,
        }
        layers = ["transform", "baselines"]
        if op in BLOCKWISE_OPS:
            layers += ["blockwise", GLUE[op], "cli"]
            ratios = [c.cost_ratio for c in traced + plain if c.cost_ratio is not None]
            m.update({
                "blockwise.calls": sum(t.calls["blockwise"] for t in traces) / n,
                "baselines.calls": sum(t.calls["baselines"] for t in traces) / n,
                "baselines.busy_s": _median_s([t.busy_ns["baselines"] for t in traces]),
                "baselines.weighted_cost": gate.weighted_cost(
                    *(t.base_forward for t in traces), *(t.base_inverse for t in traces)) / n,
                "ledger.cost_ratio": statistics.fmean(ratios) if ratios else 0.0,
            })
        for name in layers:
            self_ns = [t.self_ns[name] for t in traces]
            m[f"{name}.self_s"] = _median_s(self_ns)
            m[f"{name}.share"] = sum(self_ns) / wall
        metrics.update({f"{op}.{k}": v for k, v in m.items()})
        for c in traced:
            ledgered = sum(c.forward.values()) + sum(c.inverse.values()) + c.base_transforms
            missed += ledgered - sum(c.trace.forward.values()) - sum(c.trace.inverse.values())
    metrics["trace.missed_transforms"] = missed
    return {name: metrics[name] for name in per_layer_names()}


def _unit(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# -- entry point --------------------------------------------------------------


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """``first`` plus the set-up time of further fresh processes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True, cwd=ROOT)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(args, calls: list[Call]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": dict(Counter(c.op for c in calls)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this fresh process and print it")
    args = parser.parse_args(argv)

    if not (SRC / "blockseries" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a blockseries checkout",
              file=sys.stderr)
        return 2

    workload = inputs.build(args.workload, args.seed)
    uses_cli = any(r.kind == CLI for r in workload.requests)
    with contextlib.ExitStack() as stack:
        workdir = None
        if uses_cli and not args.setup_probe:
            workdir = Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)))
        bench = Bench(workload, workdir)
        first_setup = bench.setup()
        if args.setup_probe:
            print(repr(first_setup))
            return 0
        calls = bench.run(args.seconds, traced=bool(args.trace))
        who = resource.RUSAGE_CHILDREN if uses_cli else resource.RUSAGE_SELF
        rss_kb = resource.getrusage(who).ru_maxrss
        if args.trace:
            metrics = per_layer(calls)
        else:
            metrics = end_to_end(calls, setup_samples(args.workload, args.seed, first_setup),
                                 rss_kb)

    failed = [c for c in calls if c.problem is not None]
    for c in failed[:10]:
        print(f"failed {c.op}: {c.problem}", file=sys.stderr)
    print(json.dumps({"env": environment(args, calls)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
