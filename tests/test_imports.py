"""Every import in the package and its tests is used where it stands,
every public name, member and slot field is read by something that
reaches a verdict, every private def or class is named by package code,
no verifier names the constructor it checks, and each CLI call loads
only the modules its subcommand needs.

cli.py imports funcgraph alone. Its command table names each leaf's
handler by module and function, and a call imports only that module, so
an import nobody reads compiles a module for nothing; anywhere else it
is dead code. The benchmark's CLI tracer wraps the library functions
bound in cli's namespace, which are funcgraph's alone.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import freeset_lab

MODULES = sorted(Path(freeset_lab.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _imports(node: ast.AST):
    """The import statements in node's own scope, not in a nested def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            yield from _imports(child)


def _unused_in(scope: ast.AST) -> list[str]:
    imported = []
    for node in _imports(scope):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def _unused_imports(source: str) -> list[str]:
    """Names imported at module level, `if TYPE_CHECKING:` included, that
    the module never reads."""
    return sorted(_unused_in(ast.parse(source)))


def _unused_local_imports(source: str) -> list[str]:
    """`function.name` for each name imported inside a function that the
    function itself never reads."""
    return sorted(
        f"{node.name}.{name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in _unused_in(node)
    )


def test_checker_flags_only_unused_names():
    source = (
        "import os\n"
        "import json\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return json.dumps(x)\n"
    )
    assert _unused_imports(source) == ["Sequence", "os"]


def test_checker_flags_a_function_import_its_function_never_reads():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return g()\n"
        "def g():\n"
        "    from json import dumps\n"
        "    return dumps(1)\n"
    )
    assert _unused_imports(source) == ["Fraction"]
    assert _unused_local_imports(source) == ["f.dumps", "f.loads"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_function_level_imports(path):
    assert _unused_local_imports(path.read_text(encoding="utf-8")) == []


def _public_definitions(tree: ast.Module):
    """Names that the module's top-level defs, classes and assignments bind
    and that carry no leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if not name.startswith("_"))


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, except a def's or class's own name read
    inside its body, so a recursive orphan is still an orphan."""
    read = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        read.update(
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own
        )
    return read


def _unreached(package: dict[str, str], readers: list[str]) -> list[str]:
    """`module.name` for each public top-level name of the package modules
    (module name to source) that neither they nor the readers ever read."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        read |= _names_read(tree)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in read
    )


def test_reachability_checker_ignores_a_names_own_def():
    package = {
        "a": "LIMIT = 3\ndef f(n):\n    return f(n - 1)\ndef g():\n    return LIMIT\n",
        "b": "from .a import g\nclass C:\n    pass\ndef _h():\n    return g()\n",
    }
    assert _unreached(package, []) == ["a.f", "b.C"]
    assert _unreached(package, ["x = C()"]) == ["a.f"]


def test_every_public_name_reaches_a_verdict():
    """Each public top-level name is read by the CLI, by another package
    module, by its own module outside its def, or by an acceptance
    criterion; a name nothing reads changes no report."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    assert _unreached(package, [acceptance]) == []


def _private_definitions(tree: ast.Module):
    """Names of the module's top-level defs and classes that carry a
    leading underscore and are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node.name


def _names_in_tables(tree: ast.Module) -> set[str]:
    """The function part of each "module.function" string in the module."""
    return {
        n.value.rsplit(".", 1)[1]
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and re.fullmatch(r"\w+\.\w+", n.value)
    }


def _orphaned_private(package: dict[str, str]) -> list[str]:
    """`module.name` for each private top-level def or class that no
    package module names outside its own definition, by a read or by a
    "module.function" table string."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    named = set()
    for tree in trees.values():
        named |= _names_read(tree) | _names_in_tables(tree)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in named
    )


def test_private_name_checker_flags_an_orphan():
    package = {
        "a": "def _used():\n    return 1\n"
        "def _orphan(n):\n    return _orphan(n - 1)\n"
        "class _Row:\n    pass\n"
        "def _tabled():\n    return 2\n"
        "def f():\n    return _used()\n",
        "b": 'TABLE = {"x": "a._tabled", "y": "_Row is unread"}\n',
    }
    assert _orphaned_private(package) == ["a._Row", "a._orphan"]


def test_every_private_name_is_named_by_package_code():
    """The public-name checks skip private names, so a helper its last
    caller dropped would stay unseen without this."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert _orphaned_private(package) == []


def _attributes_read(node: ast.AST) -> Counter:
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _members(trees: dict[str, ast.Module]):
    """(`module.Class`, name, def) for each method and property of each
    package class, and (`module.Class`, field, None) for each name in its
    __slots__."""
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            owner = f"{module}.{cls.name}"
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield owner, node.name, node
                elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in node.targets
                ):
                    for field in ast.literal_eval(node.value):
                        yield owner, field, None


def _unread_members(package: dict[str, str], readers: list[str]) -> list[str]:
    """`module.Class.name` for each public method, property or slot field of
    a package class whose name is read as an attribute nowhere but in its
    own def."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    read = sum(
        map(_attributes_read, [*trees.values(), *map(ast.parse, readers)]), Counter()
    )
    return sorted(
        f"{owner}.{name}"
        for owner, name, node in _members(trees)
        if not name.startswith("_")
        and read[name] == (_attributes_read(node)[name] if node else 0)
    )


# Hooks that build or check a record, and the Record base, whose dunders
# are the contract every record keeps (tests/test_records.py).
_NOT_PROTOCOL = {"__init__", "__post_init__", "__init_subclass__"}


def _protocol_dunders(package: dict[str, str]) -> list[str]:
    """`module.Class.__name__` for each dunder a package class other than
    Record defines for Python to call on its instances (`len(x)`, `x in s`,
    `f(x)`): no attribute names it, so the member check cannot see it."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    return sorted(
        f"{owner}.{name}"
        for owner, name, _ in _members(trees)
        if name.startswith("__") and name.endswith("__")
        and name not in _NOT_PROTOCOL and owner != "funcgraph.Record"
    )


def _shared_members(package: dict[str, str]) -> list[str]:
    """Public member names defined on more than one package class. The
    member check matches names alone, so a read of any one of them keeps
    them all."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    owners = Counter(
        name for _, name, _ in _members(trees) if not name.startswith("_")
    )
    return sorted(name for name, count in owners.items() if count > 1)


def test_member_checker_ignores_a_members_own_def():
    package = {
        "a": "class C:\n    def f(self):\n        return self.f()\n"
        "    @property\n    def g(self):\n        return 1\n"
        "    def _h(self):\n        return 2\n",
    }
    assert _unread_members(package, []) == ["a.C.f", "a.C.g"]
    assert _unread_members(package, ["C().g"]) == ["a.C.f"]


def test_member_checker_sees_fields_dunders_and_shared_names():
    package = {
        "a": "class C:\n    __slots__ = ('x', 'y', '_z')\n"
        "    def __len__(self):\n        return 0\n"
        "    def __post_init__(self):\n        pass\n"
        "    def to_json(self):\n        return self.x\n",
        "b": "class D:\n    __slots__ = ('y',)\n"
        "    def to_json(self):\n        return 1\n",
    }
    assert _unread_members(package, []) == [
        "a.C.to_json", "a.C.y", "b.D.to_json", "b.D.y"
    ]
    assert _unread_members(package, ["d.y.to_json()"]) == []
    assert _protocol_dunders(package) == ["a.C.__len__"]
    assert _shared_members(package) == ["to_json", "y"]


def _package_and_readers() -> tuple[dict[str, str], list[str]]:
    """The package modules by name, and the sources of the acceptance
    criteria and the benchmark, which read the package from outside."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [Path(__file__).with_name("test_acceptance.py")]
    readers += sorted((Path(__file__).parents[1] / "bench").glob("*.py"))
    return package, [path.read_text(encoding="utf-8") for path in readers]


def test_every_public_member_reaches_a_verdict():
    """Each public method, property or slot field of a package class is
    read as an attribute by the package, an acceptance criterion or the
    benchmark; a member nothing reads changes no report."""
    assert _unread_members(*_package_and_readers()) == []


def test_protocol_dunders_are_pinned():
    """Python calls these without naming them, so no attribute check sees
    them; each must have a reader outside the tests. The benchmark's
    `len(found)` sizes a fragmenting set."""
    package, _ = _package_and_readers()
    assert _protocol_dunders(package) == ["funcgraph.Subset.__len__"]


def test_names_shared_by_classes_are_pinned():
    """A name defined on two classes counts as read for both when either is
    read. A new shared name is reviewed here before it joins the list."""
    package, _ = _package_and_readers()
    assert _shared_members(package) == [
        "block_count", "elements", "from_json", "to_json", "values", "window"
    ]


# module: {verifier: the constructors and constructor helpers it checks}.
# A verifier that names one of them would agree with it by construction.
_FREESETS_CONSTRUCTORS = {
    "max_free_subset",
    "katetov_partition",
    "_family_adjacency",
    "_mis_size",
    "find_unsplit_set",
}
_SEPARATION = {
    "funcgraph": {"verify_orbits": {"orbit_decomposition"}},
    "freesets": {
        "is_maximal_free": _FREESETS_CONSTRUCTORS,
        "verify_coloring": _FREESETS_CONSTRUCTORS,
    },
    "involutions": {
        "verify_decomposition": {
            "_walk", "_complete", "decompose_into_involutions"
        },
    },
    "partitions": {
        "verify_escape": {"escape_intervals"},
        # its window check included: a window other than g's is refused
        # without localizing g
        "verify_localization": {"localized_function"},
    },
    "boundedfam": {
        "verify_meeting": {"meeting_function", "build_block_system"},
        "verify_freeness_claim": {
            "shadow_set", "_shadow_elements", "meeting_function", "build_block_system"
        },
        "selector_free_check": {"bad_set", "_shadow_elements"},
        "verify_shadows": {
            "shadow_set", "bad_set", "_shadow_elements", "build_block_system",
            "build_ed_blocks",
        },
    },
    "rosenthal": {
        "verify_fragmentation": {"fragments", "find_fragmenting_set", "_join"},
    },
}


@pytest.mark.parametrize("module", list(_SEPARATION))
def test_no_verifier_names_the_constructor_it_checks(module):
    path = Path(freeset_lab.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for verifier, constructors in _SEPARATION[module].items():
        assert constructors <= defs.keys(), verifier
        named = {n.id for n in ast.walk(defs[verifier]) if isinstance(n, ast.Name)}
        assert not named & constructors, verifier


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


_FN = '{"n": 4, "values": [1, 2, 3, 0]}'
_CLI = ["freeset_lab.cli", "freeset_lab.funcgraph"]
# name: (argv, what the child has loaded after cli.main(argv)); an empty
# argv reports after `import freeset_lab` and then `import freeset_lab.cli`
_LOADS = {
    "package-then-cli": ([], [[], _CLI]),
    "orbits": (["orbits", "--fn", _FN], [_CLI]),
    "free": (["free", "--set", "[0]", "--fn", _FN], [_CLI]),
    "batch-orbits": (
        ["batch", "--op", "orbits", "--seed", "1", "--count", "2", "--n", "8"],
        [_CLI],
    ),
    "involutions-decompose": (
        ["involutions", "decompose", "--fn", _FN],
        [[*_CLI, "freeset_lab.involutions"]],
    ),
    "ed-member": (
        ["ed", "member", "--depth", "2", "--set", "[0]", "--k", "1"],
        [["fractions", "freeset_lab.boundedfam", *_CLI, "freeset_lab.rosenthal"]],
    ),
    "partition-escape": (
        ["partition", "escape", "--fn", _FN],
        [[*_CLI, "freeset_lab.partitions"]],
    ),
    "blocks-build": (
        ["blocks", "build", "--g", "2", "--depth", "2"],
        [["fractions", "freeset_lab.boundedfam", *_CLI]],
    ),
}
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})

def loaded():
    names = [m for m in sys.modules if m.startswith("freeset_lab.") or m == "fractions"]
    print(json.dumps(sorted(names)))

argv = {argv!r}
if argv:
    from freeset_lab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(code)
else:
    import freeset_lab
    loaded()
    import freeset_lab.cli
loaded()
"""


@pytest.fixture(scope="module")
def loaded_modules() -> dict[str, list]:
    """Each case's child output, one parsed JSON value a line. The children
    run side by side, since each pays for a whole interpreter start."""
    src = str(Path(freeset_lab.__file__).parent.parent)
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", _CHILD.format(src=src, argv=argv)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name, (argv, _) in _LOADS.items()
    }
    out = {}
    for name, child in children.items():
        stdout, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr
        out[name] = [json.loads(line) for line in stdout.splitlines()]
    return out


@pytest.mark.parametrize("name", list(_LOADS))
def test_each_subcommand_loads_only_its_modules(loaded_modules, name):
    argv, expected = _LOADS[name]
    lines = loaded_modules[name]
    if argv:
        code, *lines = lines
        assert code == 0
    assert lines == expected
