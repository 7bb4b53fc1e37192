"""The benchmark's traced functions exist in the program.

``bench/spans.py`` wraps every ``(module, function)`` in its ``TRACED``
table by name, so removing or renaming one of them breaks a traced
benchmark run. The table is read with ``ast`` rather than imported, so
this test leaves ``bench/`` untouched.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TRACED table in {SPANS}")


TRACED = traced_names()


@pytest.mark.parametrize("module,function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(module, function):
    target = getattr(importlib.import_module(f"monopart.{module}"), function, None)
    assert callable(target), f"bench/spans.py traces monopart.{module}.{function}, which is gone"
