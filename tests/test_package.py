"""The package's public name list, and where it draws random numbers."""

import ast
from collections import Counter
from pathlib import Path

import abstractnet

SRC = Path(abstractnet.__file__).parent


def test_all_names_resolve_once():
    missing = [name for name in abstractnet.__all__ if not hasattr(abstractnet, name)]
    repeated = [name for name, n in Counter(abstractnet.__all__).items() if n > 1]
    assert not missing, missing
    assert not repeated, repeated
    namespace = {}
    exec("from abstractnet import *", namespace)
    assert set(abstractnet.__all__) <= set(namespace)


def test_generators_come_only_from_seeded_rng():
    # every seed passes errors.check_int: no module builds a generator itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        functions = [
            node for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "default_rng" in line:
                owner = [f.name for f in functions if f.lineno <= lineno <= f.end_lineno]
                found.append((path.name, owner[-1] if owner else None))
    assert found == [("errors.py", "seeded_rng")]
