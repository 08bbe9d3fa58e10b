"""Export hygiene: ``__all__`` lists and the package namespace stay in step."""

import ast
import importlib
import pkgutil
from pathlib import Path

import coopsense

MODULES = [
    importlib.import_module(f"coopsense.{info.name}")
    for info in pkgutil.iter_modules(coopsense.__path__)
]


def test_every_exported_name_exists():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names: {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(coopsense.__file__).read_text(encoding="utf-8"))
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"coopsense.{node.module}")
            stale += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in module.__all__
            ]
    assert not stale, f"coopsense/__init__.py imports unexported names: {stale}"
