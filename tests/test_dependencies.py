"""The package's imports agree with its declared runtime dependencies, every
public name it ships is declared in ``mixsar.__all__`` or used, and no module
imports another's private names."""

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
           ast.DictComp, ast.GeneratorExp)


def _local_bindings(scope):
    """Names a function, lambda or comprehension binds in its own scope: its
    arguments or targets, and what its body assigns, defines or imports."""
    bound = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        bound.update(a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg] if a)
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        stack = [generator.target for generator in scope.generators]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):  # nested scopes bind their own
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _bare_uses(tree, skip):
    """Names that a module reads bare where no enclosing function binds them.
    Annotations and docstrings are not code, and nothing under ``skip`` counts."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, shadowed = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                found.add(node.id)
        if isinstance(node, _SCOPES):
            shadowed = shadowed | _local_bindings(node)
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            stack.extend((c, shadowed) for c in (child if isinstance(child, list) else [child])
                         if isinstance(c, ast.AST))
    return found


def _uses_from(tree, module):
    """Names of ``module`` that another module's tree imports with ``from .module
    import name``, or reads as an attribute of a name bound by ``from . import
    module``; the absolute forms through ``mixsar`` count alike."""
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ("mixsar" if node.level else "", node.module)))
            for alias in node.names:
                if source == f"mixsar.{module}":
                    found.add(alias.name)
                elif source == "mixsar" and alias.name == module:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add(node.attr)
    return found


def test_every_public_name_is_declared_or_used():
    # __init__ only re-exports, so its imports do not count as uses
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    unused = []
    for name, tree in modules.items():
        imported = set().union(*(_uses_from(other, name)
                                 for stem, other in modules.items() if stem != name))
        for node in _public_definitions(tree):
            used = imported | _bare_uses(tree, skip=node)
            if node.name not in used and node.name not in mixsar.__all__:
                unused.append(f"{name}.{node.name}")
    assert not unused, f"public but neither in mixsar.__all__ nor used in src/mixsar: {unused}"


def test_no_module_imports_a_private_name_from_another():
    """An underscore name is used only in the module that defines it."""
    assert _uses_from(ast.parse("from .spatial import _edges"), "spatial") == {"_edges"}
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    crossing = [f"{stem} uses {name}.{used}" for stem, tree in modules.items()
                for name in modules if name != stem
                for used in sorted(_uses_from(tree, name)) if used.startswith("_")]
    assert not crossing, crossing


def test_the_package_defines_nothing_and_star_import_binds_the_defining_objects():
    assert _public_definitions(ast.parse((SRC / "__init__.py").read_text())) == []
    namespace = {}
    exec("from mixsar import *", namespace)
    for name in mixsar.__all__:
        obj = namespace[name]
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
