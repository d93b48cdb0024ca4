"""Cold-start guard: no entry point loads SciPy.

The package's one normal-tail function (the gamma p-value) is an in-repo
port of Cephes ``ndtr`` (``repro.stats.normal``), so NumPy is the only
run-time dependency; SciPy serves the tests as an oracle.  These tests
keep it out of the package: one imports every entry point in a fresh
interpreter and checks that no ``scipy`` module was loaded, the other
scans the source for any import of ``scipy``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = (
    "repro",
    "repro.adapters",
    "repro.serve.cli",
    "repro.stream.cli",
    "repro.shard.cli",
    "repro.obs.cli",
    "repro.experiments.runner",
)


def test_entry_points_do_not_load_scipy():
    script = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(completed.stdout.splitlines()[-1]) == []


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "scipy" or alias.name.startswith("scipy.") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return node.module == "scipy" or node.module.startswith("scipy.")
    return False


def test_no_source_module_imports_scipy():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_scipy(node)
    ]
    assert offenders == []
