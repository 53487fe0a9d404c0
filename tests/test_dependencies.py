"""The package's imports and its declared runtime dependencies agree."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _normalize(name):
    return re.sub(r"[-_.]+", "_", name).lower()


def _third_party_imports():
    """Top-level modules imported by src/mixsar/*.py, less stdlib and mixsar."""
    roots = set()
    for path in sorted((ROOT / "src" / "mixsar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return {_normalize(r) for r in roots - set(sys.stdlib_module_names) - {"mixsar"}}


def _declared_dependencies():
    """Distribution names in pyproject.toml's [project].dependencies."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {_normalize(re.match(r"[A-Za-z0-9_.-]+", dep).group()) for dep in deps}


def test_every_runtime_import_is_declared_and_every_dependency_imported():
    imported, declared = _third_party_imports(), _declared_dependencies()
    assert imported, "expected at least numpy"
    assert imported - declared == set(), "imported by src/mixsar but not declared"
    assert declared - imported == set(), "declared but imported nowhere in src/mixsar"
