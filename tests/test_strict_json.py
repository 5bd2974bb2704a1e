"""No input document or CLI array is read through int().

int() accepts true and truncates 1.5, so loaders read integers through
funcgraph.json_int/json_ints instead. This guard fails on any int(...)
call inside a from_json method, a CLI handler or loader in any module
(`_run_*`, `_load_*`), or anywhere in cli.py. `type=int` on an argparse
option names int without calling it, so it is unaffected.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import freeset_lab

MODULES = sorted(Path(freeset_lab.__file__).parent.glob("*.py"))


def _int_calls(source: str, whole_module: bool) -> list[int]:
    """Lines of int(...) calls in from_json methods and CLI handlers and
    loaders, or anywhere if whole_module."""
    tree = ast.parse(source)
    scopes = [tree] if whole_module else [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and re.fullmatch(r"from_json|_run_\w+|_load_\w+", node.name)
    ]
    return sorted(
        node.lineno
        for scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
    )


def test_checker_flags_only_int_calls_in_scope():
    source = (
        "class C:\n"
        "    @classmethod\n"
        "    def from_json(cls, doc):\n"
        "        return cls(int(doc['n']))\n"
        "    def size(self):\n"
        "        return int('3')\n"
        "def _run_x(args):\n"
        "    return int(args.n)\n"
        "parser.add_argument('--n', type=int)\n"
    )
    assert _int_calls(source, whole_module=False) == [4, 8]
    assert _int_calls(source, whole_module=True) == [4, 6, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_input_is_read_through_int(path):
    source = path.read_text(encoding="utf-8")
    assert _int_calls(source, whole_module=path.name == "cli.py") == []
