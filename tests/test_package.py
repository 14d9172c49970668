"""The package's public name list."""

from collections import Counter

import abstractnet


def test_all_names_resolve_once():
    missing = [name for name in abstractnet.__all__ if not hasattr(abstractnet, name)]
    repeated = [name for name, n in Counter(abstractnet.__all__).items() if n > 1]
    assert not missing, missing
    assert not repeated, repeated
    namespace = {}
    exec("from abstractnet import *", namespace)
    assert set(abstractnet.__all__) <= set(namespace)
