"""Export hygiene: ``__all__`` lists and the package namespace stay in step,
and importing the package stays light."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_loads_neither_numpy_random_nor_a_process_pool():
    # a serial run imports numpy.random at its first draw and only a pooled
    # run needs concurrent.futures.process; importing the package needs neither
    heavy = {"numpy.random", "concurrent.futures.process"}
    probe = f"import sys, coopsense; print(sorted({heavy!r} & set(sys.modules)))"
    src = str(Path(coopsense.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
