"""Cold-start guard: no entry point loads ``scipy.stats``.

``scipy.stats`` costs most of a second and tens of MB to import, and the
only scipy function the package needs is ``scipy.special.ndtr`` (the
gamma p-value).  These tests keep the heavy import from creeping back:
one imports every entry point in a fresh interpreter, the other scans
the source for any import of ``scipy.stats``.
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


def test_entry_points_do_not_load_scipy_stats():
    script = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy.stats' or m.startswith('scipy.stats.'))))\n"
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


def _imports_scipy_stats(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(
            alias.name == "scipy.stats" or alias.name.startswith("scipy.stats.")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module == "scipy.stats" or node.module.startswith("scipy.stats."):
            return True
        return node.module == "scipy" and any(alias.name == "stats" for alias in node.names)
    return False


def test_no_source_module_imports_scipy_stats():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_scipy_stats(node)
    ]
    assert offenders == []
