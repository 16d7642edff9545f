"""The layer names that the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` looks each name of its ``LAYERS`` tuple up with
``getattr`` and no default, so a renamed or removed function would break
``perfbench/run.py --trace 1``.  The tuple and the prefix-to-module map
``MODULES`` are read from the syntax tree, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _literal(name):
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def test_every_traced_layer_is_an_attribute_of_its_module():
    modules, layers = _literal("MODULES"), _literal("LAYERS")
    assert len(layers) >= 20
    missing = []
    for layer in layers:
        prefix, _, attr = layer.partition(".")
        module = importlib.import_module(f"g2satake.{modules[prefix]}")
        if not callable(getattr(module, attr, None)):
            missing.append(layer)
    assert missing == []
