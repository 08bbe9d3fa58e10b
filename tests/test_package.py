"""Export hygiene: ``__all__`` lists and the package namespace stay in step,
and importing the package stays light."""

import ast
import importlib
import multiprocessing
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def fresh_python(code):
    """Standard output of ``code`` run in a fresh interpreter that imports
    this checkout's coopsense."""
    src = str(Path(coopsense.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_import_loads_neither_numpy_random_nor_a_process_pool():
    # a serial run imports numpy at its first draw and only a pooled run
    # needs concurrent.futures; importing the package needs neither
    heavy = {"numpy", "numpy.random", "concurrent.futures",
             "concurrent.futures.process"}
    probe = f"import sys, coopsense; print(sorted({heavy!r} & set(sys.modules)))"
    assert fresh_python(probe).strip() == "[]"


# validation, the closed forms and a serial SweepDraws before its first read
# never draw, so none of them loads numpy
NUMPY_FREE = {
    **{
        f"spec-{name}": (
            "from coopsense.cli_experiments import load_spec, "
            "resolve_spec_path, validate_spec\n"
            "from coopsense.montecarlo import nominal_rates\n"
            f"path = resolve_spec_path({name!r})\n"
            "assert validate_spec(path) == []\n"
            "nominal_rates(load_spec(path).cells[0])"
        )
        for name in ("fig2", "fig3", "fig4")
    },
    "cli-validate": (
        "from coopsense.cli_experiments import main\n"
        "assert main(['validate', 'fig2']) == 0"
    ),
    "cli-optimize-n": (
        "from coopsense.cli_experiments import main\n"
        "assert main(['optimize-n', '--k', '10', '--pf', '0.1', '--pd', '0.9', "
        "'--alpha', '0.5']) == 0"
    ),
    "sweep-draws-serial": (
        "from coopsense.cli_experiments import load_spec, resolve_spec_path\n"
        "from coopsense.montecarlo import SweepDraws\n"
        "SweepDraws(load_spec(resolve_spec_path('fig2')).cells)"
    ),
}


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_path_leaves_numpy_unloaded(code):
    output = fresh_python(f"{code}\nimport sys; print('numpy' in sys.modules)")
    assert output.splitlines()[-1] == "False"


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the parent's modules",
)
def test_pooled_run_loads_numpy_before_its_workers_fork():
    # numpy.random is a lazy submodule: importing numpy alone would leave
    # every forked worker to import it at its first draw
    probe = """
import concurrent.futures, json, sys, tempfile
from pathlib import Path

seen = []

class ProbedPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        seen.append("numpy.random" in sys.modules)
        super().__init__(max_workers)

concurrent.futures.ProcessPoolExecutor = ProbedPool
from coopsense.cli_experiments import resolve_spec_path, run_experiment

document = json.loads(resolve_spec_path("fig3").read_text(encoding="utf-8"))
document["sweep"]["values"] = [-10]
document["scenario"]["trials"] = 100
with tempfile.TemporaryDirectory() as tmp:
    spec = Path(tmp) / "fig3.json"
    spec.write_text(json.dumps(document), encoding="utf-8")
    run_experiment(spec, out_path=Path(tmp) / "fig3.csv", workers=2, quiet=True)
print(seen)
"""
    assert fresh_python(probe).strip() == "[True]"
