"""The package's imports agree with its declared runtime dependencies, and
every public name it ships is declared in ``mixsar.__all__`` or used."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import mixsar

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixsar"


def _normalize(name):
    return re.sub(r"[-_.]+", "_", name).lower()


def _third_party_imports():
    """Top-level modules imported by src/mixsar/*.py, less stdlib and mixsar."""
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return {_normalize(r) for r in roots - set(sys.stdlib_module_names) - {"mixsar"}}


def _declared_dependencies():
    """Distribution names in pyproject.toml's [project].dependencies."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {_normalize(re.match(r"[A-Za-z0-9_.-]+", dep).group()) for dep in deps}


def test_every_runtime_import_is_declared_and_every_dependency_imported():
    imported, declared = _third_party_imports(), _declared_dependencies()
    assert imported, "expected at least numpy"
    assert imported - declared == set(), "imported by src/mixsar but not declared"
    assert declared - imported == set(), "declared but imported nowhere in src/mixsar"


def _public_definitions(tree):
    """Module-level functions and classes whose names have no leading underscore."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(node, skip=None):
    """Names that ``node`` calls, reads as an attribute, imports or subclasses.
    Annotations and docstrings are not code, and nothing under ``skip`` counts."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found.add(node.func.id)
        elif isinstance(node, ast.ClassDef):
            found.update(base.id for base in node.bases if isinstance(base, ast.Name))
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            stack.extend(c for c in (child if isinstance(child, list) else [child])
                         if isinstance(c, ast.AST))
    return found


def test_every_public_name_is_declared_or_used():
    # __init__ only re-exports, so its imports do not count as uses
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    unused = []
    for name, tree in modules.items():
        for node in _public_definitions(tree):
            used = set().union(*(_references(t, skip=node) for t in modules.values()))
            if node.name not in used and node.name not in mixsar.__all__:
                unused.append(f"{name}.{node.name}")
    assert not unused, f"public but neither in mixsar.__all__ nor used in src/mixsar: {unused}"


def test_the_package_defines_nothing_and_star_import_binds_the_defining_objects():
    assert _public_definitions(ast.parse((SRC / "__init__.py").read_text())) == []
    namespace = {}
    exec("from mixsar import *", namespace)
    for name in mixsar.__all__:
        obj = namespace[name]
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
