"""The public API: what riccatilab exports must exist."""

import riccatilab as rl


def test_every_exported_name_resolves():
    assert [name for name in rl.__all__ if not hasattr(rl, name)] == []
    assert len(set(rl.__all__)) == len(rl.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from riccatilab import *", namespace)
    assert set(rl.__all__) <= namespace.keys()
