"""The benchmark's lookups into ``stairspec`` exist under the names it uses.

``bench/tracing.py`` wraps each ``(module, name)`` of its ``TRACED`` table on
the ``stairspec`` module of that name, and the timing wrapper of each tail
class's own ``rises``; ``bench/workloads.py`` and ``bench/tracing.py`` call
``<alias>.<name>`` on modules bound by ``from stairspec import <module> as
<alias>``.  A renamed or deleted name would break ``bench/run.py`` while the
rest of the suite stays green.  Both files are read from the source with
``ast``, so the benchmark modules are neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _assigned(path: Path, name: str) -> ast.expr:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise AssertionError(f"no {name} table in {path}")


def _module_lookups(path: Path) -> list[tuple[str, str]]:
    """Each ``(module, name)`` read as ``<alias>.<name>`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "stairspec"
        for alias in node.names
    }
    return sorted({
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    })


TRACED = list(ast.literal_eval(_assigned(TRACING, "TRACED")))
LOOKUPS = sorted(set(_module_lookups(BENCH / "workloads.py") + _module_lookups(TRACING)))
TAIL_KINDS = [value.attr for value in _assigned(TRACING, "TAIL_KINDS").values]


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    target = getattr(importlib.import_module(f"stairspec.{module}"), name, None)
    assert callable(target), f"stairspec.{module}.{name}"


def test_workloads_look_up_names():
    # A parse that found nothing would pass the resolution test vacuously.
    assert len(_module_lookups(BENCH / "workloads.py")) >= 17


@pytest.mark.parametrize("module,name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_benchmark_lookup_resolves(module, name):
    assert hasattr(importlib.import_module(f"stairspec.{module}"), name), (
        f"stairspec.{module}.{name}"
    )


@pytest.mark.parametrize("name", TAIL_KINDS)
def test_traced_tail_kind_defines_rises(name):
    cls = getattr(importlib.import_module("stairspec.diagram"), name)
    assert "rises" in cls.__dict__, f"stairspec.diagram.{name}.rises"
