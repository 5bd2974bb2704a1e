"""Exit codes, report shape, and determinism of the command surface.

Reports go to stdout as a single JSON document; 0 means the verifier
agreed, 1 means a property failed, 2 means the input never got that
far, 3 means the program itself failed. Batch reports must be reproducible byte for byte once the timing
field is masked.
"""

from __future__ import annotations

import argparse
import ast
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
from freeset_lab.funcgraph import FiniteFunction, Subset, random_fpf_function

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


_PART = '{"n": 1, "pairing": [0], "exceptions": [0]}'
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
                *["--part", _PART] * 4,
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
                *["--part", _PART] * 4,
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
    # a handler imports its layer's names when it runs, so patching the
    # layer module reaches the CLI
    def broken(fn):
        raise TypeError("boom")

    monkeypatch.setattr(involutions, "decompose_into_involutions", broken)
    code = main(["involutions", "decompose", "--fn", '{"n": 2, "values": [1, 0]}'])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"] == "internal fault: TypeError: boom"


_real_combine = involutions.combine_on_blocks


def _empty_d(parts, blocks, colors):
    d, combined = _real_combine(parts, blocks, colors)
    return Subset(d.window, ()), combined


def _no_bad_set(blocks, fn, n):
    return boundedfam.BadSetBlock(n, (), Fraction(0))


_SPLIT = ['{"n": 4, "colors": [0, 1, 0, 1]}', '{"n": 4, "colors": [0, 1, 1, 0]}']
_PART = '{"n": 3, "pairing": [1, 0, 2], "exceptions": [2]}'

# leaf: (argv, layer, constructor, a well-formed wrong output)
_BROKEN = {
    "partition localize": (
        ["--fn", '{"n": 10, "values": [2, 2, 3, 5, 5, 6, 8, 8, 9, 5]}',
         "--set", "[0, 3, 6, 9]"],
        partitions, "localized_function",
        lambda g, subset: FiniteFunction(tuple(range(1, g.window + 1))),
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
        [*["--part", _PART] * 4,
         "--blocks", '{"endpoints": [0, 3]}', "--colors", "[0]"],
        involutions, "combine_on_blocks", _empty_d,
    ),
    "ed badset": (
        ["--depth", "2", "--fn", json.dumps({"n": 15, "values": list(range(1, 16))})],
        boundedfam, "bad_set", _no_bad_set,
    ),
}


@pytest.mark.parametrize("leaf", list(_BROKEN))
def test_a_broken_constructor_fails_its_leaf(capsys, monkeypatch, leaf):
    # the wrong output must bring a violation the true one does not
    argv, layer, constructor, wrong = _BROKEN[leaf]
    _, true, _ = _run(capsys, *leaf.split(), *argv)
    monkeypatch.setattr(layer, constructor, wrong)
    code, doc, _ = _run(capsys, *leaf.split(), *argv)
    assert code == 1 and doc["ok"] is False
    assert [v for v in doc["violations"] if v not in true["violations"]]


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
        return boundedfam.ShadowSet(n, (), shadow.size_bound, shadow.capacity)

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
        return boundedfam.ShadowSet(n, real(system, fn, n).elements, 0, 1)

    monkeypatch.setattr(boundedfam, "shadow_set", false_bound)
    code, doc, _ = _run(capsys, *argv)
    assert code == 0
    assert doc["ok"] is True and doc["violations"] == []


def test_blocks_verify_reads_no_recorded_bound():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
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
