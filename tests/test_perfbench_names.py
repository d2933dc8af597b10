"""Every qracdiscord name the benchmark harness reaches for still exists.

``perfbench/tracing.py`` wraps the functions listed in ``LAYERS`` and
``perfbench/probes.py`` imports kernels directly; a traced run fails at
start-up if one of them is renamed or deleted. These tests only read the
perfbench sources, so they run without starting the harness.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def layer_names():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return [(f"qracdiscord.{m}", name) for m, names in layers.items() for name in names]
    raise AssertionError("no LAYERS table in perfbench/tracing.py")


def imported_names():
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qracdiscord"):
                names += [(node.module, alias.name) for alias in node.names]
    return names


def resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule, as in ``from qracdiscord import cli``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_perfbench_name_resolves():
    names = layer_names() + imported_names()
    assert len(names) > 40
    missing = [f"{module}.{name}" for module, name in names if not resolves(module, name)]
    assert not missing
