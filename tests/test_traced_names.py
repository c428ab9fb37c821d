"""The benchmark's traced functions exist under the names it looks up.

``bench/tracing.py`` wraps each ``(module, name)`` of its ``TRACED`` table on
the ``stairspec`` module of that name; a renamed or deleted function would
break ``bench/run.py --trace 1``.  The table is read from the source with
``ast``, so the benchmark module is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TRACED table in {TRACING}")


TRACED = _traced()


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    target = getattr(importlib.import_module(f"stairspec.{module}"), name, None)
    assert callable(target), f"stairspec.{module}.{name}"
