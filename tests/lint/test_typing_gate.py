"""The static-typing leg of the lint gate.

mypy itself is an optional extra (``pip install .[lint]``) and runs in
the CI lint job; this module keeps two guarantees testable everywhere:

* the strict-typed packages stay fully annotated (checked by AST, so it
  holds even where mypy is not installed), and
* when mypy *is* available, the configured strict run passes.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Packages mypy.ini holds to disallow_untyped_defs.
STRICT_TREES = [
    REPO / "src" / "repro" / "core",
    REPO / "src" / "repro" / "lint",
]


def _untyped_defs(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        missing = [
            arg.arg
            for arg in args
            if arg.annotation is None and arg.arg not in ("self", "cls")
        ]
        if node.args.vararg and node.args.vararg.annotation is None:
            missing.append("*" + node.args.vararg.arg)
        if node.args.kwarg and node.args.kwarg.annotation is None:
            missing.append("**" + node.args.kwarg.arg)
        if missing or node.returns is None:
            yield f"{path}:{node.lineno} {node.name} ({', '.join(missing) or 'return'})"


def test_strict_packages_are_fully_annotated():
    offenders = []
    for root in STRICT_TREES:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            offenders.extend(_untyped_defs(path))
    assert not offenders, "untyped defs in strict-typed packages:\n" + "\n".join(
        offenders
    )


def test_mypy_strict_run_passes():
    if shutil.which("mypy") is None:
        pytest.skip("mypy not installed (optional .[lint] extra)")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO / "mypy.ini"),
            str(REPO / "src" / "repro"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stdout + result.stderr
