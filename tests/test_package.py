"""The package's public names (a stale `__all__` entry breaks only a star import),
the names perfbench rebinds, and the modules importing it loads."""

import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import blockseries
from blockseries.bench import OPS
from blockseries.transform import TransformLedger

PUBLIC = {
    "sqrt", "recip", "sqrt_rem", "recip_schonhage", "sqrt_newton_coupled",
    "forward", "inverse", "TransformLedger", "UnsupportedLengthError", "is_supported",
    "next_supported", "BlockPlan", "choose_params", "Poly", "Spectrum",
}
BLOCK_LAYER = ("BlockSeries", "TransformCache", "decompose", "product_block", "combined_block",
               "MissingSpectrumError", "sqrt_block_iter", "recip_block_iter")
# The modules perfbench/spans.py rebinds forward and inverse in, and the other
# names perfbench binds or calls, by module.
ROUTED = ("sqrt", "recip", "blockwise", "baselines")
BOUND = {
    "sqrt": ("product_block", "choose_params"),
    "recip": ("product_block", "combined_block", "choose_params"),
    "baselines": ("recip_schonhage", "sqrt_newton_coupled"),
    "cli": ("sqrt", "recip", "sqrt_rem"),
    "transform": ("twiddle_fault",),
}


def test_all_names_resolve():
    missing = [name for name in blockseries.__all__ if not hasattr(blockseries, name)]
    assert not missing
    assert len(set(blockseries.__all__)) == len(blockseries.__all__)


def test_public_api_is_the_ops_and_the_transform():
    assert set(blockseries.__all__) == PUBLIC
    assert [name for name in BLOCK_LAYER if hasattr(blockseries, name)] == []


def test_star_import():
    namespace = {}
    exec("from blockseries import *", namespace)
    assert set(blockseries.__all__) <= namespace.keys()


def test_perfbench_bound_names_resolve():
    # blockseries.sqrt is the function, so the modules are reached by name.
    for modname, names in BOUND.items():
        mod = importlib.import_module(f"blockseries.{modname}")
        assert [name for name in names if not callable(getattr(mod, name, None))] == [], modname


@pytest.mark.parametrize("op", list(OPS))
def test_every_transform_passes_through_the_rebound_names(op, monkeypatch):
    calls = Counter()
    for modname in ROUTED:
        mod = importlib.import_module(f"blockseries.{modname}")
        for name in ("forward", "inverse"):
            def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    spec = OPS[op]
    for n in (5, 100, 777):
        for complex_input in (False, True):
            f = spec.make_input(1, n)
            if complex_input:  # the constant term (sqrtrem: leading) stays 1
                f = f + 0j
                f[1:-1] += 1e-3j
            calls.clear()
            ledger, base = TransformLedger(), TransformLedger()
            spec.run(spec.fn, f, n, ledger, None, base)
            ledgered = Counter({"forward": ledger.forward.total() + base.forward.total(),
                                "inverse": ledger.inverse.total() + base.inverse.total()})
            assert calls == ledgered, (n, complex_input)
            assert ledgered.total() > 0


def test_checks_and_cli_load_no_unittest():
    code = ("import sys, blockseries.checks, blockseries.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'unittest'))")
    env = dict(os.environ, PYTHONPATH=str(Path(blockseries.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"
