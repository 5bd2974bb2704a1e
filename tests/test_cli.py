"""Exit codes, report shape, and determinism of the command surface.

Reports go to stdout as a single JSON document; 0 means the verifier
agreed, 1 means a property failed, 2 means the input never got that
far, 3 means the program itself failed. Batch reports must be reproducible byte for byte once the timing
field is masked.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeset_lab
from freeset_lab import boundedfam, cli, freesets, involutions, partitions, rosenthal
from freeset_lab.cli import main
from freeset_lab.funcgraph import (
    FiniteFunction,
    OrbitDecomposition,
    Subset,
    random_fpf_function,
)

TIMING = re.compile(r'"elapsed_seconds": [0-9.e+-]+')


def _run(capsys, *argv) -> tuple[int, dict, str]:
    code = main(list(argv))
    raw = capsys.readouterr().out
    return code, json.loads(raw), raw


# === exit codes ===


def test_ok_run_exits_zero(capsys):
    code, doc, _ = _run(capsys, "orbits", "--fn", '{"n": 4, "values": [1, 2, 3, 0]}')
    assert code == 0
    assert doc["ok"] is True
    assert doc["op"] == "orbits"


def test_violation_exits_one(capsys):
    code, doc, _ = _run(
        capsys,
        "free",
        "--set",
        "[0, 1]",
        "--fn",
        '{"n": 3, "values": [1, 2, 0]}',
    )
    assert code == 1
    assert doc["ok"] is False
    assert doc["result"]["per_function"] == [{"intersection": [1], "size": 1}]
    assert doc["violations"] == [{"function": 0, "size": 1}]


def test_malformed_function_exits_two(capsys):
    code, doc, _ = _run(capsys, "orbits", "--fn", '{"n": 3, "values": [0, 1, 2]}')
    assert code == 2
    assert "error" in doc


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["orbits", "--fn", '{"n": 2, "values": [1.5, 0]}'],
            "values[0] is 1.5, not an integer",
        ),
        (
            ["orbits", "--fn", '{"n": 2, "values": [true, 0]}'],
            "values[0] is true, not an integer",
        ),
        (
            ["orbits", "--fn", "[1,0]"],
            'a function must be a JSON object {"n": N, "values": [...]}',
        ),
        (
            ["free", "--set", "[0, 1.0]", "--fn", '{"n": 3, "values": [1, 2, 0]}'],
            "set[1] is 1.0, not an integer",
        ),
        (
            [
                "involutions",
                "combine",
                *["--part", '{"n": 2, "pairing": [1, false], "exceptions": []}'] * 4,
                "--blocks",
                '{"endpoints": [0, 1]}',
                "--colors",
                "[0]",
            ],
            "pairing[1] is false, not an integer",
        ),
    ],
    ids=["float-value", "bool-value", "array-function", "float-set", "bool-pairing"],
)
def test_non_integer_input_exits_two(capsys, argv, error):
    code, doc, _ = _run(capsys, *argv)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"] == error


_PART1 = '{"n": 1, "pairing": [0], "exceptions": [0]}'
_SUCC34 = json.dumps({"n": 34, "values": list(range(1, 35))})


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["oracle", "unsplit", "--coloring", '{"n": 3, "colors": [true, 0.5, 2]}'],
            "colors[0] is true, not an integer",
        ),
        (
            ["oracle", "unsplit", "--coloring", "[1,2]"],
            'a coloring must be a JSON object {"n": N, "colors": [...]}',
        ),
        (
            ["orbits", "--fn", '{"n": 3}'],
            'a function must be a JSON object {"n": N, "values": [...]}',
        ),
        (
            [
                "rosenthal",
                "search",
                "--matrix",
                '{"k": 2, "n": 2, "row_bound": "1", "entries": ["01", "10"]}',
                "--eps",
                "1",
            ],
            "entries must be a JSON array of arrays",
        ),
        (
            [
                "rosenthal",
                "search",
                "--matrix",
                '{"k": 2.0, "n": 2, "row_bound": "1", "entries": [["0", "1"], ["1", "0"]]}',
                "--eps",
                "1",
            ],
            "k is 2.0, not an integer",
        ),
        (
            [
                "involutions",
                "combine",
                *["--part", _PART1] * 4,
                "--blocks",
                '{"endpoints": [0, 1]}',
                "--colors",
                "[true]",
            ],
            "colors[0] is true, not an integer",
        ),
        (
            [
                "involutions",
                "combine",
                *["--part", _PART1] * 4,
                "--blocks",
                '{"endpoints": [0, 1.5]}',
                "--colors",
                "[0]",
            ],
            "endpoints[1] is 1.5, not an integer",
        ),
        (
            ["partition", "fp", "--partition", '{"n": 2, "parts": [1, false]}'],
            "parts[1] is false, not an integer",
        ),
        (
            [
                "blocks",
                "verify",
                "--g",
                "2",
                "--depth",
                "2",
                "--fn",
                _SUCC34,
                "--h",
                "[0, 0, 0, 0, 0, 1.5]",
            ],
            "h[5] is 1.5, not an integer",
        ),
        (["blocks", "build", "--g", "true", "--depth", "2"], "g is true, not an integer"),
        (["blocks", "build", "--g", "1.5", "--depth", "2"], "g is 1.5, not an integer"),
        (
            ["blocks", "build", "--g", "[2, true]", "--depth", "1"],
            "g[1] is true, not an integer",
        ),
        (["orbits", "--fn", "[" * 100_000], "JSON document nested too deeply"),
        (
            [
                "involutions",
                "combine",
                *["--part", '{"n": 4, "pairing": [1, 0, 3, 2], "exceptions": [7]}'] * 4,
                "--blocks",
                '{"endpoints": [0, 3]}',
                "--colors",
                "[0]",
            ],
            "exception 7 outside the window",
        ),
        (
            [
                "free",
                "--set",
                "[0]",
                "--fn",
                '{"n": 4, "values": [1, 2, 3, 0]}',
                "--threshold",
                "-1",
            ],
            "--threshold is -1, must be at least 0",
        ),
        (
            [
                "rosenthal",
                "search",
                "--matrix",
                '{"k": 2, "n": 2, "row_bound": "1", "entries": [["0", "1"], ["1", "0"]]}',
                "--eps",
                "1",
                "--min-size",
                "-3",
            ],
            "--min-size is -3, must be at least 0",
        ),
        (
            [
                "oracle",
                "unsplit",
                "--coloring",
                '{"n": 3, "colors": [0, 1, 2]}',
                "--min-size",
                "-1",
            ],
            "--min-size is -1, must be at least 0",
        ),
        (
            ["oracle", "unsplit", "--coloring", '{"n": 0, "colors": []}'],
            "window must be positive",
        ),
        (
            [
                "dominates",
                "--i",
                '{"endpoints": [0, 5]}',
                "--j",
                '{"endpoints": [0, 2, 5]}',
                "--n",
                "-7",
            ],
            "window is -7, must be at least 0",
        ),
        (
            ["ed", "member", "--depth", "2", "--set", "[]", "--k", "-1"],
            "--k is -1, must be at least 0",
        ),
    ],
    ids=[
        "coloring-entries",
        "coloring-shape",
        "function-missing-key",
        "matrix-string-row",
        "matrix-size",
        "colors",
        "endpoints",
        "parts",
        "h",
        "g-bool",
        "g-float",
        "g-array",
        "deep-nesting",
        "exception-outside-window",
        "negative-threshold",
        "search-negative-min-size",
        "unsplit-negative-min-size",
        "unsplit-empty-coloring",
        "dominates-negative-window",
        "member-negative-k",
    ],
)
def test_malformed_document_exits_two_naming_the_field(capsys, argv, error):
    code, doc, _ = _run(capsys, *argv)
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"] == error


_BATCH = ["batch", "--op", "katetov", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["partition", "fp", "--partition", '{"n": 2, "parts": [1, 1000000000000]}'],
            "every part index up to the maximum must be used",
        ),
        (
            ["ed", "build", "--fin", "--depth", "1000000000000"],
            "blocks too large to materialize",
        ),
        (
            ["ed", "member", "--fin", "--depth", "1000000000000", "--set", "[0]", "--k", "1"],
            "blocks too large to materialize",
        ),
        (
            ["blocks", "build", "--g", "100000", "--depth", "2"],
            "F(1) is too large to report",
        ),
        (
            [
                "blocks",
                "verify",
                "--g",
                "100000",
                "--depth",
                "2",
                "--fn",
                _SUCC34,
                "--h",
                "[0]",
            ],
            "F(1) is too large to report",
        ),
        (
            ["blocks", "build", "--g", json.dumps([2] + [2**3000] * 5), "--depth", "2"],
            "F(1) is too large to report",
        ),
        (["ed", "build", "--depth", "30000"], "is too large to report"),
        (
            ["ed", "member", "--depth", "2", "--set", "[1, 2]", "--k", "1e10000000"],
            "past the cap of 4300",
        ),
        (
            ["ed", "member", "--depth", "2", "--set", "[1, 2]", "--k", "1e4300"],
            "past the cap of 4300",
        ),
        (
            ["ed", "member", "--depth", "2", "--set", "[1, 2]", "--k", "1" * 4400],
            "past the cap of 4300",
        ),
        (
            _BATCH + ["--count", "99999999999999999999", "--n", "10"],
            "past the cap of 10000000",
        ),
        (_BATCH + ["--count", "1", "--n", "400000000"], "past the cap of 10000000"),
        (
            _BATCH + ["--count", "100001", "--n", "1"],
            "batch of 100001 instances is past the cap of 100000",
        ),
    ],
    ids=[
        "part-label",
        "fin-build",
        "fin-member",
        "g-constant",
        "g-verify",
        "g-array",
        "ed-depth",
        "k-exponent",
        "k-value",
        "k-literal",
        "batch-count",
        "batch-n",
        "batch-instances",
    ],
)
def test_oversized_input_is_refused_before_the_work(capsys, argv, error):
    code, doc, _ = _run(capsys, *argv)
    assert code == 2
    assert error in doc["error"]
    assert doc["elapsed_seconds"] < 1


def test_unbounded_or_unwritable_arguments_are_usage_errors(tmp_path, capsys):
    # with no --fn every set is free and nothing bounds --n
    assert main(["oracle", "freeset", "--n", "100000000", "--mode", "greedy"]) == 2
    out = tmp_path / "missing" / "report.json"
    fn = '{"n": 2, "values": [1, 0]}'
    assert main(["orbits", "--fn", fn, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err


def test_usage_error_leaves_the_out_file_untouched(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text('{"earlier": "report"}\n', encoding="utf-8")
    assert main(["orbits", "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == '{"earlier": "report"}\n'
    fresh = tmp_path / "fresh.json"
    assert main(["orbits", "--out", str(fresh)]) == 2
    assert not fresh.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--fn" in captured.err


def test_internal_fault_exits_three(capsys, monkeypatch):
    def broken(fn):
        raise TypeError("boom")

    monkeypatch.setattr(cli, "orbit_decomposition", broken)
    code = main(["orbits", "--fn", '{"n": 2, "values": [1, 0]}'])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3
    assert list(doc) == ["schema", "command", "op", "ok", "error", "elapsed_seconds"]
    assert doc["ok"] is False
    assert doc["error"] == "internal fault: TypeError: boom"
    assert captured.err == ""


def test_a_rejected_cover_with_no_unexplained_edge_fails(capsys, monkeypatch):
    # a malformed cover of a function with no in-window edge comes back
    # as (False, ()); the report must still fail
    def rejects(fn, res):
        return False, ()

    monkeypatch.setattr(involutions, "verify_decomposition", rejects)
    fn = '{"n": 1, "values": [1]}'
    code, doc, _ = _run(capsys, "involutions", "decompose", "--fn", fn)
    assert code == 1
    assert doc["ok"] is False and doc["violations"]


def test_handlers_read_the_layer_module_at_call_time(capsys, monkeypatch):
    # a handler lives in its layer module and reads the module's names
    # when it runs, so patching the layer module reaches the CLI
    def broken(fn):
        raise TypeError("boom")

    monkeypatch.setattr(involutions, "decompose_into_involutions", broken)
    code = main(["involutions", "decompose", "--fn", '{"n": 2, "values": [1, 0]}'])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"] == "internal fault: TypeError: boom"


_real_combine = involutions.combine_on_blocks
_real_localize = partitions.localized_function
_real_part_fp = partitions.partition_function
_real_ed_blocks = boundedfam.build_ed_blocks


def _empty_d(parts, blocks, colors):
    d, combined = _real_combine(parts, blocks, colors)
    return Subset(d.window, ()), combined


def _no_bad_set(blocks, fn, n):
    return boundedfam.BadSetBlock((), Fraction(0))


def _one_point_more(g, subset):
    values = _real_localize(g, subset).values
    return FiniteFunction(values + (g.window + 1,))


def _one_point_less(g, subset):
    return FiniteFunction(_real_localize(g, subset).values[:-1])


def _d_past_the_blocks(parts, blocks, colors):
    d, combined = _real_combine(parts, blocks, colors)
    return Subset.of(d.window, (*d.elements, 4, 5)), combined


def _last_point_off_its_part(partition):
    values = _real_part_fp(partition).values
    return FiniteFunction((*values[:-1], partition.window))


def _last_block_one_too_big(depth):
    real = _real_ed_blocks(depth)
    sizes = (*real.sizes[:-1], real.sizes[-1] + 1)
    return boundedfam._with_starts(sizes, real.unit_masses)


_G10 = '{"n": 10, "values": [2, 2, 3, 5, 5, 6, 8, 8, 9, 5]}'
_SPLIT = ['{"n": 4, "colors": [0, 1, 0, 1]}', '{"n": 4, "colors": [0, 1, 1, 0]}']
_PART3 = '{"n": 3, "pairing": [1, 0, 2], "exceptions": [2]}'

# "leaf" or "leaf: case": (argv, layer, constructor, a well-formed wrong output)
_BROKEN = {
    "partition localize": (
        ["--fn", _G10, "--set", "[0, 3, 6, 9]"],
        partitions, "localized_function",
        lambda g, subset: FiniteFunction(tuple(range(1, g.window + 1))),
    ),
    "partition localize: longer window": (
        ["--fn", _G10, "--set", "[0, 3, 6, 9]"],
        partitions, "localized_function", _one_point_more,
    ),
    "partition localize: shorter window": (
        ["--fn", _G10, "--set", "[0, 3, 6, 9]"],
        partitions, "localized_function", _one_point_less,
    ),
    "katetov": (
        ["--fn", '{"n": 5, "values": [1, 2, 3, 4, 0]}'],
        freesets, "katetov_partition",
        lambda fn: freesets.Coloring(fn.window, (0,) * fn.window),
    ),
    "oracle unsplit": (
        ["--coloring", _SPLIT[0], "--coloring", _SPLIT[1]],
        freesets, "find_unsplit_set",
        lambda colorings, min_size: (Subset(4, (0, 1)), (0, 0)),
    ),
    "rosenthal check": (
        ["--matrix", '{"k": 2, "n": 2, "row_bound": "1", '
         '"entries": [["0", "1"], ["1", "0"]]}', "--set", "[0, 1]", "--eps", "1"],
        rosenthal, "fragments",
        lambda matrix, subset, eps: rosenthal.Fragmentation(True, None, None),
    ),
    "involutions combine": (
        [*["--part", _PART3] * 4,
         "--blocks", '{"endpoints": [0, 3]}', "--colors", "[0]"],
        involutions, "combine_on_blocks", _empty_d,
    ),
    # each part pairs 4 with 5, but no block holds them
    "involutions combine: D past the blocks": (
        [*["--part", '{"n": 7, "pairing": [1, 0, 3, 2, 5, 4, 6], "exceptions": [6]}'] * 4,
         "--blocks", '{"endpoints": [0, 3]}', "--colors", "[0]"],
        involutions, "combine_on_blocks", _d_past_the_blocks,
    ),
    # cli binds funcgraph's names when it is imported, so it is patched there
    "orbits": (
        ["--fn", '{"n": 4, "values": [1, 2, 3, 0]}'],
        cli, "orbit_decomposition",
        lambda fn: OrbitDecomposition(fn.window, ()),
    ),
    "oracle freeset": (
        ["--n", "4", "--fn", '{"n": 4, "values": [1, 2, 3, 0]}'],
        freesets, "max_free_subset", lambda family, n, mode: Subset(n, ()),
    ),
    "rosenthal search": (
        ["--matrix", '{"k": 3, "n": 3, "row_bound": "1", '
         '"entries": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}', "--eps", "1"],
        rosenthal, "find_fragmenting_set",
        lambda matrix, eps, min_size, mode: Subset(matrix.dim, (0,)),
    ),
    "ed badset": (
        ["--depth", "2", "--fn", json.dumps({"n": 15, "values": list(range(1, 16))})],
        boundedfam, "bad_set", _no_bad_set,
    ),
    # four canonical pairings cover the edge 0 -> 1 and drop 1 -> 2
    "involutions decompose": (
        ["--fn", '{"n": 3, "values": [1, 2, 3]}'],
        involutions, "decompose_into_involutions",
        lambda fn: involutions.DecompositionResult(
            (involutions.Involution(3, (1, 0, 2), (2,)),) * 4, (), 1
        ),
    ),
    "partition fp": (
        ["--partition", '{"n": 6, "parts": [0, 1, 0, 1, 2, 2]}'],
        partitions, "partition_function", _last_point_off_its_part,
    ),
    # unit blocks: the shift-2 function sends 0 past h_1 = 1, which the
    # forward check refuses
    "partition escape": (
        ["--fn", '{"n": 10, "values": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}'],
        partitions, "escape_intervals",
        lambda fn: partitions.IntervalPartition(tuple(range(fn.window + 1))),
    ),
    # I_0 = [0, 2) is one position longer than the minimal [0, 1), and
    # I_1 = [2, 6) then falls short of the 9 positions it needs
    "blocks build": (
        ["--g", "2", "--depth", "2"],
        boundedfam, "build_block_system",
        lambda g, depth: boundedfam.BlockSystem(
            g, depth, (0, 2, 6), (4, 16), (0, 4, 20)
        ),
    ),
    "ed build": (
        ["--depth", "3"],
        boundedfam, "build_ed_blocks", _last_block_one_too_big,
    ),
    "blocks verify": (
        ["--g", "2", "--depth", "2", "--fn", _SUCC34, "--h", json.dumps([0] * 6)],
        boundedfam, "shadow_set", lambda system, fn, n: boundedfam.ShadowSet((), 0, 1),
    ),
    "batch": (
        ["--op", "katetov", "--seed", "1", "--count", "2", "--n", "9"],
        freesets, "katetov_partition",
        lambda fn: freesets.Coloring(fn.window, (0,) * fn.window),
    ),
}

# The leaves no broken constructor has yet been shown to fail: each wants
# a _BROKEN row, and a new leaf joins one list or the other.
_NO_BROKEN_ROW = ("free", "dominates", "ed member")


@pytest.mark.parametrize("key", list(_BROKEN))
def test_a_broken_constructor_fails_its_leaf(capsys, monkeypatch, key):
    # the wrong output must bring a violation the true one does not
    argv, layer, constructor, wrong = _BROKEN[key]
    leaf = key.split(":")[0].split()
    _, true, _ = _run(capsys, *leaf, *argv)
    monkeypatch.setattr(layer, constructor, wrong)
    code, doc, _ = _run(capsys, *leaf, *argv)
    assert code == 1 and doc["ok"] is False
    assert [v for v in doc["violations"] if v not in true["violations"]]


def test_every_leaf_has_a_broken_row_or_waits_for_one():
    leaves = [
        name if isinstance(entry, tuple) else f"{name} {sub}"
        for name, (_, entry) in cli._TABLE.items()
        for sub in ([None] if isinstance(entry, tuple) else entry)
    ]
    rows = {key.split(":")[0] for key in _BROKEN}
    assert len(leaves) == 19
    assert not rows & set(_NO_BROKEN_ROW)
    assert sorted(rows | set(_NO_BROKEN_ROW)) == sorted(leaves)


def _named_functions() -> list[str]:
    """Every "module.function" that a _TABLE leaf or a batch row names."""
    leaves = []
    for _, entry in cli._TABLE.values():
        leaves += [entry] if isinstance(entry, tuple) else entry.values()
    return [handler for handler, _ in leaves] + list(cli._BATCH_ROWS.values())


def test_every_entry_resolves_to_a_function_of_its_module():
    for path in _named_functions():
        module, name = path.split(".")
        function = cli._resolve(path)
        assert inspect.isfunction(function), path
        assert function.__module__ == f"freeset_lab.{module}", path
        assert function.__name__ == name, path


def test_every_handler_and_row_builder_is_named_once():
    # the public-name reachability check skips private names, so an
    # orphaned handler would go unseen without this
    package = Path(freeset_lab.__file__).parent
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and re.fullmatch(r"_run_\w+|_\w+_row", node.name)
    ]
    assert sorted(_named_functions()) == sorted(defined)


# === pinned reports ===


_C4 = '{"n": 4, "values": [1, 2, 3, 0]}'
_C5 = '{"n": 5, "values": [1, 2, 3, 4, 0]}'
_M3 = (
    '{"k": 3, "n": 3, "row_bound": "1", '
    '"entries": [["0", "1/2", "1/2"], ["1/4", "0", "1/4"], ["0", "0", "0"]]}'
)
_BATCH_ARGS = ["--seed", "3", "--count", "3", "--n", "9"]

# "leaf" or "leaf: case": (argv, SHA-256 of the report with its timing
# masked). One small valid call per leaf and per batch op, inline JSON
# only, so no report holds a temporary path; each must pass and print
# the same bytes.
_PINNED = {
    "orbits": (
        ["--fn", '{"n": 7, "values": [1, 2, 0, 4, 5, 6, 7]}'],
        "37492c474c4ce3ea499d3a3dc25d388ef9192b2f283dd982506e3034d8be8a5b",
    ),
    "free": (
        ["--set", "[0, 2]", "--fn", _C4],
        "5279e70ea79e2519630b4cbf368f20f2a9a9ff64a79773e73fca6792d588b5b8",
    ),
    "katetov": (
        ["--fn", _C5],
        "fc10244e96afe785bec4d6f666b353dc5fc5be82d312def66bfa433fa3f819f7",
    ),
    "involutions decompose": (
        ["--fn", '{"n": 7, "values": [1, 2, 0, 4, 5, 6, 3]}'],
        "d36e6e20360919c780ec8e1dff60eb494ed7806f63c057a5663bb606e865ee32",
    ),
    "involutions combine": (
        [*["--part", _PART3] * 4, "--blocks", '{"endpoints": [0, 3]}', "--colors", "[0]"],
        "3c7961a8faad79a9120625a16178a295e6fb3a0990fb72d3cebbd7b924052f79",
    ),
    "rosenthal check": (
        ["--matrix", _M3, "--set", "[0, 2]", "--eps", "1"],
        "8b4b854cc7795a6dd11e9cdf9f8c383c2369245f3f71eb423790c8a1cbecb496",
    ),
    "rosenthal search: exact": (
        ["--matrix", _M3, "--eps", "1/2", "--mode", "exact"],
        "d0f87351f42a514cbccc5ca48582c653437e62675f23082b1fa0f6cc3dfa8f43",
    ),
    "rosenthal search: greedy": (
        ["--matrix", _M3, "--eps", "1/2", "--mode", "greedy"],
        "c21f4b405f7babe2646e9d595b74c57df41ddded6d6f38a7e74696c35112918f",
    ),
    "partition fp": (
        ["--partition", '{"n": 6, "parts": [0, 1, 0, 1, 2, 2]}'],
        "9d6434041f2c208c5b392b48fc130a6e508ba263ed840938bb97f1937ac6cbf9",
    ),
    "partition escape": (
        ["--fn", '{"n": 10, "values": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}'],
        "48aa9af892e9a70a62c875610b672711f3bbabe394ba4b9f99dbf93a836c1ba6",
    ),
    "partition localize": (
        ["--fn", _G10, "--set", "[0, 3, 6, 9]"],
        "30db3943a7f49697639ac706f4375060a845f28436bc6bb28f3647e7ff3ec426",
    ),
    "dominates": (
        ["--i", '{"endpoints": [0, 4, 8, 12]}',
         "--j", '{"endpoints": [0, 2, 4, 6, 8, 10, 12]}', "--n", "12"],
        "8f44e42c60346a3af987f798f9bf182eacf7ef96c0ab5af3de970ba312cf55c6",
    ),
    "blocks build": (
        ["--g", "2", "--depth", "2"],
        "100b619a2a730a9844bb26ab08c5ee7dd088910b2b6d49329ddbdd62d0877046",
    ),
    # h codes the points 1 and 2, joined by the successor's edge 1 -> 2
    "blocks verify": (
        ["--g", "2", "--depth", "2", "--fn", _SUCC34, "--h", "[1, 0, 0, 0, 0, 0]"],
        "23be9f1b81413b6bdc42f475f0257306ae2fb35e3619ef8677a1dbaaff600a94",
    ),
    "ed build": (
        ["--depth", "3"],
        "bf0f43c69dc5a927097b3183871e55a0070d911ab7e4e0e5afeaa3b88e9c3c0e",
    ),
    "ed build: fin": (
        ["--depth", "3", "--fin"],
        "b7b4ea61f12d634d025b4e096ac207688b2dab9755bb0b3e76145d50fb0f5d25",
    ),
    "ed badset": (
        ["--depth", "2", "--fn", json.dumps({"n": 15, "values": list(range(1, 16))})],
        "ffe6063ee0562786e77be84c65b8f89415f90732db122113fa932ef2c108c1d3",
    ),
    "ed member": (
        ["--depth", "2", "--set", "[0, 1, 3]", "--k", "2"],
        "1f5a50e39a776180843ab1553795c5af285d71cb700bef4debfcef1702682dbd",
    ),
    "oracle freeset: exact": (
        ["--n", "5", "--fn", _C5, "--mode", "exact"],
        "d3d8b0ce34c3ddd8931674f6b9f8e6997d56af54d8a86b0266b1aaf013198d71",
    ),
    "oracle freeset: greedy": (
        ["--n", "5", "--fn", _C5, "--fn", '{"n": 5, "values": [2, 3, 4, 0, 1]}',
         "--mode", "greedy"],
        "2eede81c59b282fc9cb034038186f6aea95c2add1a250ec6a85dbef629c0d406",
    ),
    "oracle unsplit": (
        ["--coloring", '{"n": 4, "colors": [0, 1, 0, 1]}',
         "--coloring", '{"n": 4, "colors": [0, 1, 0, 0]}', "--min-size", "2"],
        "02cfe74eb6055fce94f850e10c5d6e426184ed15635420b7e6c71cf54658df50",
    ),
    "batch: involutions-decompose": (
        ["--op", "involutions-decompose", *_BATCH_ARGS],
        "688d3dddd774b7556b98fdf52f5a9e134c6959a5c3c0cf96e049ffc92f9ef032",
    ),
    "batch: katetov": (
        ["--op", "katetov", *_BATCH_ARGS],
        "7708a4d5c74fc46c911341a0bccb57f655326e65d05629e758fcfdc172eef745",
    ),
    "batch: orbits": (
        ["--op", "orbits", *_BATCH_ARGS],
        "b4bae58c80a2aa6eb9649aa09ae85bbbc9b9af34139f49d11964241823b5d5e7",
    ),
    "batch: escape": (
        ["--op", "escape", *_BATCH_ARGS],
        "df750524e3725965159489ccc6185c5fc108f9388165f29894443deab95119e6",
    ),
}


@pytest.mark.parametrize("key", list(_PINNED))
def test_a_success_report_keeps_its_digest(capsys, key):
    argv, digest = _PINNED[key]
    code, doc, raw = _run(capsys, *key.split(":")[0].split(), *argv)
    assert code == 0 and doc["ok"] is True
    masked = TIMING.sub('"elapsed_seconds": 0', raw)
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


def test_every_leaf_and_batch_op_has_a_pinned_report():
    leaves = {" ".join(path) for path, _ in _leaves(cli._build_parser())}
    assert {key.split(":")[0] for key in _PINNED} == leaves
    ops = {argv[1] for key, (argv, _) in _PINNED.items() if key.startswith("batch")}
    assert ops == set(cli._BATCH_ROWS)


def _matrix(bound="1", entry="1") -> str:
    rows = [["0", entry], ["1", "0"]]
    return json.dumps({"k": 2, "n": 2, "row_bound": bound, "entries": rows})


@pytest.mark.parametrize(
    "argv",
    [
        ["rosenthal", "check", "--matrix", _matrix(), "--set", "[0]", "--eps", "1/0"],
        ["rosenthal", "search", "--matrix", _matrix(), "--eps", "1/0"],
        ["ed", "member", "--depth", "2", "--set", "[1, 2]", "--k", "1/0"],
        ["rosenthal", "search", "--matrix", _matrix(entry="1/0"), "--eps", "1"],
        ["rosenthal", "search", "--matrix", _matrix(bound="1/0"), "--eps", "1"],
    ],
    ids=["eps-check", "eps-search", "k", "matrix-entry", "row-bound"],
)
def test_zero_denominator_exits_two(capsys, argv):
    code, doc, _ = _run(capsys, *argv)
    assert code == 2
    assert doc["ok"] is False
    assert "'1/0'" in doc["error"]


@pytest.mark.parametrize("command", [["check", "--set", "[0, 1, 2, 3]"], ["search"]])
@pytest.mark.parametrize(
    "row, bound",
    [
        (["0", f"1/{3**4000}", f"1/{7**2300}", f"1/{11**1800}"], "1"),
        (["0", f"{10**4299 - 1}/{3**4000}", f"1/{7**2300}", "0"], str(10**4299)),
        (["0", f"{10**4299 - 1}/{3**4000}", f"1/{7**2300}", "0"], "1"),
    ],
    ids=["scale", "sum", "sum-over-bound"],
)
def test_matrix_row_past_the_integer_cap_exits_two(capsys, command, row, bound):
    doc = {"k": 4, "n": 4, "row_bound": bound, "entries": [row] + [["0"] * 4] * 3}
    argv = ["rosenthal", command[0], "--matrix", json.dumps(doc), *command[1:]]
    code, report, _ = _run(capsys, *argv, "--eps", "1e-4000")
    assert code == 2
    assert report["ok"] is False
    assert "past the cap of 4300" in report["error"]


def test_missing_file_exits_two(capsys):
    code, doc, _ = _run(capsys, "orbits", "--fn", "no-such-file.json")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert "argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert main([]) == 2
    assert "the following arguments are required: command" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# === report shape ===


def test_report_key_order(capsys):
    _, doc, raw = _run(capsys, "katetov", "--fn", '{"n": 4, "values": [1, 0, 3, 0]}')
    assert list(doc) == [
        "schema",
        "command",
        "op",
        "ok",
        "result",
        "violations",
        "elapsed_seconds",
    ]
    assert doc["schema"] == 2
    assert doc["command"][0] == "katetov"


def test_batch_report_carries_instances(capsys):
    code, doc, _ = _run(
        capsys,
        "batch",
        "--op",
        "katetov",
        "--seed",
        "5",
        "--count",
        "6",
        "--n",
        "30",
    )
    assert code == 0
    assert doc["op"] == "katetov"
    assert [row["index"] for row in doc["instances"]] == list(range(6))
    assert [row["seed"] for row in doc["instances"]] == list(range(5, 11))
    assert doc["result"]["passed"] == 6
    assert list(doc)[-1] == "elapsed_seconds"


def test_out_flag_duplicates_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    _, _, raw = _run(
        capsys,
        "orbits",
        "--fn",
        '{"n": 4, "values": [1, 2, 3, 0]}',
        "--out",
        str(out),
    )
    assert out.read_text() == raw


# Characters json must escape or spell out, and any others.
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\n\té€😀') | st.characters(), max_size=6
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**300), 10**300)
    | st.floats()
    | _TEXT
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda members: st.lists(members, max_size=4)
    | st.lists(members, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, members, max_size=4),
    max_leaves=40,
)


@settings(deadline=None, max_examples=400)
@given(_DOCUMENTS)
def test_reports_print_as_json_dumps_with_indent_two(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


# === parsers ===


def _leaves(parser, path=()):
    """(command path, parser) for each leaf parser under `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, (*path, name))


def _required_argv(leaf) -> list[str]:
    """A value for each required option of a leaf: its first choice, or 1."""
    argv = []
    for action in leaf._actions:
        if action.required:
            argv += [action.option_strings[0], (action.choices or ["1"])[0]]
    return argv


def _parse(parser, argv, capsys):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        args = vars(parser.parse_args(argv))
        args["out_parser"] = args["out_parser"].prog
    except SystemExit as exc:
        args = exc.code
    captured = capsys.readouterr()
    return args, captured.out, captured.err


@pytest.mark.parametrize(
    "path", [path for path, _ in _leaves(cli._build_parser())], ids=" ".join
)
def test_one_command_parser_reads_as_the_full_one(capsys, path):
    full, own = cli._build_parser(), cli._build_parser(path[0])
    assert [p for p, _ in _leaves(own)] == [
        p for p, _ in _leaves(full) if p[0] == path[0]
    ]
    leaf, own_leaf = dict(_leaves(full))[path], dict(_leaves(own))[path]
    assert own.format_usage() == full.format_usage()
    assert own_leaf.format_usage() == leaf.format_usage()
    assert own_leaf.format_help() == leaf.format_help()
    argv = [*path, *_required_argv(leaf)]
    for case in (argv, argv + ["--out", "r.json"], argv + ["--bogus"], list(path)):
        assert _parse(own, case, capsys) == _parse(full, case, capsys)


# The op names, command order and batch ops as literals, so deriving them
# from the command table cannot rename a report's "op".
_LEAF_OPS = [
    "orbits",
    "free",
    "katetov",
    "involutions-decompose",
    "involutions-combine",
    "rosenthal-check",
    "rosenthal-search",
    "partition-fp",
    "partition-escape",
    "partition-localize",
    "dominates",
    "blocks-build",
    "blocks-verify",
    "ed-build",
    "ed-badset",
    "ed-member",
    "oracle-freeset",
    "oracle-unsplit",
]
_COMMANDS = (
    "orbits",
    "free",
    "katetov",
    "involutions",
    "rosenthal",
    "partition",
    "dominates",
    "blocks",
    "ed",
    "oracle",
    "batch",
)
_BATCH_OPS = ("involutions-decompose", "katetov", "orbits", "escape")


def test_derived_names_keep_their_literals():
    leaves = dict(_leaves(cli._build_parser()))
    assert len(leaves) == 19
    batch = leaves.pop(("batch",))
    assert [leaf.get_default("op") for leaf in leaves.values()] == _LEAF_OPS
    assert cli.COMMANDS == _COMMANDS
    (op,) = [a for a in batch._actions if a.dest == "op"]
    assert op.required and tuple(op.choices) == _BATCH_OPS
    for name in _BATCH_OPS:
        argv = ["--op", name, "--seed", "1", "--count", "1", "--n", "1"]
        assert batch.parse_args(argv).op == name


@pytest.mark.parametrize(
    "argv, built",
    [
        (["orbits", "--fn", '{"n": 2, "values": [1, 0]}'], 2),
        (["involutions", "decompose", "--fn", '{"n": 2, "values": [1, 0]}'], 4),
        ([], 26),
        (["--help"], 26),
        (["frobnicate"], 26),
    ],
    ids=["orbits", "involutions-decompose", "no-argv", "help", "unknown"],
)
def test_a_call_builds_only_its_commands_parsers(monkeypatch, capsys, argv, built):
    built_now = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built_now
        built_now += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    main(argv)
    assert built_now == built


def test_readme_cli_examples_parse():
    # each `freeset-lab` line of the CLI block, `\` continuations joined
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [
        shlex.split(line)[1:] for line in lines if line.startswith("freeset-lab ")
    ]
    assert {argv[0] for argv in examples} == set(cli.COMMANDS)
    for argv in examples:
        for parser in (cli._build_parser(), cli._build_parser(argv[0])):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")


# === determinism ===


def test_batch_reruns_are_byte_identical_modulo_timing(capsys):
    args = (
        "batch",
        "--op",
        "involutions-decompose",
        "--seed",
        "42",
        "--count",
        "12",
        "--n",
        "64",
    )
    _, _, first = _run(capsys, *args)
    _, _, second = _run(capsys, *args)
    assert TIMING.sub("T", first) == TIMING.sub("T", second)


# === module entry point ===


def test_python_dash_m_runs():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(freeset_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "freeset_lab",
            "orbits",
            "--fn",
            '{"n": 3, "values": [1, 2, 0]}',
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True


# === a couple of end-to-end flows ===


def test_rosenthal_check_round_trip(capsys):
    code, doc, _ = _run(
        capsys,
        "rosenthal",
        "check",
        "--matrix",
        '{"k": 2, "n": 2, "row_bound": "1", "entries": [["0", "1"], ["1", "0"]]}',
        "--set",
        "[0]",
        "--eps",
        "1/2",
    )
    assert code == 0
    assert doc["result"] == {"fragments": True, "eps": "1/2"}


def test_rosenthal_search_none_is_ok(capsys):
    code, doc, _ = _run(
        capsys,
        "rosenthal",
        "search",
        "--matrix",
        '{"k": 3, "n": 3, "row_bound": "1", '
        '"entries": [["1/3","1/3","1/3"],["1/3","1/3","1/3"],["1/3","1/3","1/3"]]}',
        "--eps",
        "1/3",
        "--min-size",
        "2",
    )
    assert code == 0
    assert doc["result"]["set"] is None


def test_blocks_verify_flow(capsys, tmp_path):
    fn_doc = {"n": 34, "values": [k + 1 for k in range(34)]}
    fn_path = tmp_path / "succ.json"
    fn_path.write_text(json.dumps(fn_doc))
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps([0] * 6))
    code, doc, _ = _run(
        capsys,
        "blocks",
        "verify",
        "--g",
        "2",
        "--depth",
        "2",
        "--fn",
        str(fn_path),
        "--h",
        str(h_path),
    )
    assert code == 0
    assert doc["result"]["coded_points"] == [0, 2]


def test_blocks_verify_rejects_a_wrong_shadow_set(capsys, tmp_path, monkeypatch):
    # the successor's shadow in block 1 is {2}; a constructor that returns
    # empty sets still meets them and certifies every claim by definition,
    # so only the definitional shadow check can refuse it
    fn_path = tmp_path / "succ.json"
    fn_path.write_text(json.dumps({"n": 34, "values": [k + 1 for k in range(34)]}))
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps([0] * 6))
    argv = ["blocks", "verify", "--g", "2", "--depth", "2"]
    argv += ["--fn", str(fn_path), "--h", str(h_path)]
    real = boundedfam.shadow_set

    def empty(system, fn, n):
        shadow = real(system, fn, n)
        return boundedfam.ShadowSet((), shadow.size_bound, shadow.capacity)

    monkeypatch.setattr(boundedfam, "shadow_set", empty)
    code, doc, _ = _run(capsys, *argv)
    assert code == 1
    assert doc["violations"] == [{"block": 1, "reason": "shadow set mismatch"}]
    assert doc["result"]["shadow_sizes"] == [0, 0]


def test_blocks_verify_takes_the_shadow_bound_from_the_system(
    capsys, tmp_path, monkeypatch
):
    # true shadow sets with a false recorded bound: the bound is
    # 2 * start(J_n) < |I_n| from the block system, not the record's fields
    fn_path = tmp_path / "succ.json"
    fn_path.write_text(json.dumps({"n": 34, "values": [k + 1 for k in range(34)]}))
    argv = ["blocks", "verify", "--g", "2", "--depth", "2"]
    argv += ["--fn", str(fn_path), "--h", json.dumps([0] * 6)]
    real = boundedfam.shadow_set

    def false_bound(system, fn, n):
        return boundedfam.ShadowSet(real(system, fn, n).elements, 0, 1)

    monkeypatch.setattr(boundedfam, "shadow_set", false_bound)
    code, doc, _ = _run(capsys, *argv)
    assert code == 0
    assert doc["ok"] is True and doc["violations"] == []


def test_blocks_verify_reads_no_recorded_bound():
    tree = ast.parse(Path(boundedfam.__file__).read_text(encoding="utf-8"))
    (handler,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_run_blocks_verify"
    ]
    read = {n.attr for n in ast.walk(handler) if isinstance(n, ast.Attribute)}
    assert not read & {"within_bounds", "size_bound", "capacity"}


def test_ed_badset_checks_each_bad_set_by_its_definition(
    capsys, tmp_path, monkeypatch
):
    # empty bad sets weigh nothing, so only B_f(n) = S_f(n) over the
    # measured blocks can refuse them: every block whose true bad set has
    # points is named
    blocks = boundedfam.build_ed_blocks(4)
    real = boundedfam.bad_set
    monkeypatch.setattr(boundedfam, "bad_set", _no_bad_set)
    fn_path = tmp_path / "f.json"
    for seed in range(20):
        fn = random_fpf_function(seed, blocks.starts[-1], injective=True)
        fn_path.write_text(json.dumps(fn.to_json()))
        argv = ["ed", "badset", "--depth", "4", "--fn", str(fn_path)]
        code, doc, _ = _run(capsys, *argv)
        wrong = [n for n in range(5) if real(blocks, fn, n).elements]
        assert code == 1 and doc["ok"] is False, seed
        assert doc["violations"] == [
            {"block": n, "reason": "bad set mismatch"} for n in wrong
        ]


def test_ed_member_flow(capsys):
    code, doc, _ = _run(
        capsys,
        "ed",
        "member",
        "--depth",
        "2",
        "--set",
        "[1, 2]",
        "--k",
        "1",
    )
    assert code == 1
    assert doc["result"]["member"] is False
    assert doc["result"]["max_block_mass"] == "2"
