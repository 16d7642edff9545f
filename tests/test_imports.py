"""Import hygiene, checked on the syntax tree (no linter is required).

Every imported name must be read somewhere in its module, and no
``g2satake`` module may import a private (underscore) name from a sibling
module: helpers shared between modules are public.  Package ``__init__``
files only re-export and are skipped.  The package itself declares no
runtime dependency.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "g2satake").glob("*.py"))
MODULES = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def _imports(tree):
    """(bound name, imported name, node) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


def unused_imports(source):
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound for bound, _, _ in _imports(tree) if bound not in read)


def private_sibling_imports(source):
    """``from .module import _name``: a private name of another module."""
    return sorted(f"{node.module}.{name}"
                  for _, name, node in _imports(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level
                  and node.module and name.startswith("_"))


def test_checks_see_what_they_look_for():
    src = ("import os\nfrom math import comb, gcd\n"
           "from .igusa import _helper, public\nfrom . import _kernels\n"
           "print(gcd, public, _helper, _kernels)\n")
    assert unused_imports(src) == ["comb", "os"]
    assert private_sibling_imports(src) == ["igusa._helper"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_names_between_modules(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def test_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
