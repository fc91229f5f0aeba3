"""The package's public names (a stale `__all__` entry breaks only a star import),
and the modules importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import blockseries


def test_all_names_resolve():
    missing = [name for name in blockseries.__all__ if not hasattr(blockseries, name)]
    assert not missing
    assert len(set(blockseries.__all__)) == len(blockseries.__all__)


def test_star_import():
    namespace = {}
    exec("from blockseries import *", namespace)
    assert set(blockseries.__all__) <= namespace.keys()


def test_checks_and_cli_load_no_unittest():
    code = ("import sys, blockseries.checks, blockseries.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'unittest'))")
    env = dict(os.environ, PYTHONPATH=str(Path(blockseries.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"
