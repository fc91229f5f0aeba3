"""The package's public names: a stale `__all__` entry breaks only a star import."""

import blockseries


def test_all_names_resolve():
    missing = [name for name in blockseries.__all__ if not hasattr(blockseries, name)]
    assert not missing
    assert len(set(blockseries.__all__)) == len(blockseries.__all__)


def test_star_import():
    namespace = {}
    exec("from blockseries import *", namespace)
    assert set(blockseries.__all__) <= namespace.keys()
