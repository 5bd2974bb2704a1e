"""Every module-level import in the package is used, and the CLI
starts without the standard library's heavy record machinery.

The benchmark's CLI tracer wraps each library function cli.py imports,
so an unused import there is a wrapper nothing calls; anywhere else it
is dead code. __init__.py is exempt because it re-exports.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import freeset_lab

MODULES = sorted(
    p for p in Path(freeset_lab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_only_unused_names():
    source = (
        "import os\n"
        "import json\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return json.dumps(x)\n"
    )
    assert _unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted(Path(freeset_lab.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    assert "dataclasses" not in names


def test_cli_starts_without_dataclasses_or_inspect():
    # a fresh interpreter: this one has long since imported both
    src = str(Path(freeset_lab.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import freeset_lab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
