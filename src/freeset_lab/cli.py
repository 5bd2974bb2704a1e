"""Command-line surface: one JSON report per invocation.

Every subcommand prints a single JSON document with a stable key order,
exactly as `json.dumps(report, indent=2)` would print it. A handler
returns the report's `result` and `violations`; `ok` is true exactly
when `violations` is empty, with exit 0, and a failed property is exit
1. Exit 2 is malformed input (loaders raise ValueError for all of it)
and 3 any other exception; both set `ok` false. Malformed input
includes a negative count or bound (`free --threshold`, `--min-size`,
`dominates --n`, `ed member --k`) and a size past a cap, such as a
batch of more than 10^7 points or more than 10^5 instances. Verdicts
are always recomputed from scratch; nothing trusts a constructor's own
claim. A leaf whose only option is `--fn` is called with the loaded
function, and a batch op runs such a leaf's handler on seeded functions
one after another and reports them in index order: each instance's
`ok` is the handler's verdict, and identical seeds give byte-identical
reports up to the timing field. Each command is one entry of `_TABLE`,
which holds its help text, handlers and options, and from which every
parser, every `op` name and `COMMANDS` are derived. A call builds the
argument parsers of its own command alone. The table names each leaf's
handler, and `_BATCH_VERDICTS` the handler each batch op runs, by
module and function; a call imports only the module that holds what it
runs, so it compiles no other layer's handlers.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

# funcgraph is the one layer every subcommand uses, and the only one the
# handlers here need; every other handler lives in its layer's module.
from .funcgraph import (
    MAX_MATERIALIZED_POSITIONS,
    FiniteFunction,
    _load_fn,
    _load_set,
    image_overlap,
    orbit_decomposition,
    random_fpf_function,
    verify_orbits,
)

SCHEMA = 2
# Each instance is a report row: 10^5 of them print about 11 MB.
MAX_BATCH_COUNT = 100_000


# === handlers that need funcgraph alone ===
# Each handler, here or in a layer module, returns its report's "result"
# and "violations"; main sets "ok" exactly when the violations are empty.


def _run_orbits(fn: FiniteFunction) -> dict:
    orbits = orbit_decomposition(fn)
    complaints = verify_orbits(fn, orbits)
    result = {"orbits": [{"kind": o.kind, "nodes": list(o.nodes)} for o in orbits]}
    return {"result": result, "violations": list(complaints)}


def _run_free(args) -> dict:
    if args.threshold < 0:
        raise ValueError(f"--threshold is {args.threshold}, must be at least 0")
    family = [_load_fn(t) for t in args.fn]
    window = min(f.window for f in family)
    subset = _load_set(args.set, window)
    overlaps = [list(image_overlap(subset, f).elements) for f in family]
    violations = [
        {"function": i, "size": len(ov)}
        for i, ov in enumerate(overlaps)
        if len(ov) > args.threshold
    ]
    result = {
        "per_function": [{"intersection": ov, "size": len(ov)} for ov in overlaps]
    }
    return {"result": result, "violations": violations}


# === batch mode ===
# op: ("module.function" of the handler of a leaf whose only option is
# --fn, whether the seeded draw is an injection, the instance's counts
# read off the handler's result and violations). A batch op runs that
# handler on each drawn function; an instance's ok is the handler's.


def _orbit_counts(result: dict, violations: list) -> dict:
    kinds = [o["kind"] for o in result["orbits"]]
    return {"cycles": kinds.count("cycle"), "paths": kinds.count("path")}


_BATCH_VERDICTS = {
    "involutions-decompose": ("involutions._run_inv_decompose", True, lambda r, v: {
        "case": r["case"], "uncovered": len(r["uncovered"])}),
    "katetov": ("freesets._run_katetov", False, lambda r, v: {
        "classes": len(set(r["colors"])), "violations": len(v)}),
    "orbits": ("cli._run_orbits", True, _orbit_counts),
    "escape": ("partitions._run_part_escape", True, lambda r, v: {
        "blocks": len(r["endpoints"]) - 1}),
}


def _run_batch(args) -> dict:
    count = args.count
    if count <= 0:
        raise ValueError("count must be positive")
    if count * args.n > MAX_MATERIALIZED_POSITIONS:
        raise ValueError(
            f"batch of {count} x {args.n} points is past the cap of "
            f"{MAX_MATERIALIZED_POSITIONS}"
        )
    if count > MAX_BATCH_COUNT:
        raise ValueError(
            f"batch of {count} instances is past the cap of {MAX_BATCH_COUNT}"
        )
    path, injective, counts = _BATCH_VERDICTS[args.op]
    verdict = _resolve(path)
    instances = []
    for i in range(count):
        leaf = verdict(random_fpf_function(args.seed + i, args.n, injective))
        row = {"index": i, "seed": args.seed + i, "ok": not leaf["violations"]}
        instances.append({**row, **counts(leaf["result"], leaf["violations"])})
    violations = [{"index": r["index"]} for r in instances if not r["ok"]]
    result = {
        "op": args.op,
        "count": count,
        "n": args.n,
        "passed": count - len(violations),
    }
    return {"result": result, "violations": violations, "instances": instances}


# === report emission ===


# Exact types, so a subclass of any of them, like any other value, takes
# the member-by-member path.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """Encodes a container of scalars at `depth` with json.dumps(indent=2)'s
    line breaks between its members, in one call of the C encoder."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


def _dumps(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte, as printed `depth` levels
    down, for a document whose keys are strings. Only containers that hold
    containers are walked in Python; a container of scalars is one C call."""
    if isinstance(value, dict):
        members = value.values()
    elif isinstance(value, (list, tuple)):
        members = value
    else:
        return _flat_encoder(depth).encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = "\n" + "  " * (depth + 1)
    outer = inner[:-2]
    if _SCALARS.issuperset(map(type, members)):
        text = _flat_encoder(depth).encode(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(value, dict):
        items = [
            encode_basestring_ascii(k) + ": " + _dumps(m, depth + 1)
            for k, m in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_dumps(m, depth + 1) for m in value]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


# === dispatch plumbing ===


_REQ = {"required": True}
_REQ_INT = {"type": int, "required": True}
_REQ_LIST = {"action": "append", "required": True}
_ZERO = {"type": int, "default": 0}
_MODE = {"choices": ("exact", "greedy"), "default": "exact"}
_FLAG = {"action": "store_true"}

# command: (help, leaf) or (help, {subcommand: leaf}), where a leaf is
# ("module.function" of its handler, {option: add_argument keywords}).
# A leaf's op is its command path joined by "-"; batch's required --op
# overrides it. A new command or leaf is one entry here.
_TABLE = {
    "orbits": ("orbit decomposition", ("cli._run_orbits", {"--fn": _REQ})),
    "free": ("intersection report for a set", ("cli._run_free", {
        "--set": _REQ, "--fn": _REQ_LIST, "--threshold": _ZERO})),
    "katetov": ("three-class free partition", (
        "freesets._run_katetov", {"--fn": _REQ})),
    "involutions": ("involution covers", {
        "decompose": ("involutions._run_inv_decompose", {"--fn": _REQ}),
        "combine": ("involutions._run_inv_combine", {
            "--part": _REQ_LIST, "--blocks": _REQ, "--colors": _REQ}),
    }),
    "rosenthal": ("fragmentation checks", {
        "check": ("rosenthal._run_ros_check", {
            "--matrix": _REQ, "--set": _REQ, "--eps": _REQ}),
        "search": ("rosenthal._run_ros_search", {
            "--matrix": _REQ, "--eps": _REQ, "--min-size": _ZERO, "--mode": _MODE}),
    }),
    "partition": ("partition machinery", {
        "fp": ("partitions._run_part_fp", {"--partition": _REQ}),
        "escape": ("partitions._run_part_escape", {"--fn": _REQ}),
        "localize": ("partitions._run_part_localize", {"--fn": _REQ, "--set": _REQ}),
    }),
    "dominates": ("interval domination", ("partitions._run_dominates", {
        "--i": _REQ, "--j": _REQ, "--n": _REQ_INT})),
    "blocks": ("coded block systems", {
        "build": ("boundedfam._run_blocks_build", {"--g": _REQ, "--depth": _REQ_INT}),
        "verify": ("boundedfam._run_blocks_verify", {
            "--g": _REQ, "--depth": _REQ_INT, "--fn": _REQ, "--h": _REQ}),
    }),
    "ed": ("measured block families", {
        "build": ("boundedfam._run_ed_build", {"--depth": _REQ_INT, "--fin": _FLAG}),
        "badset": ("boundedfam._run_ed_badset", {"--depth": _REQ_INT, "--fn": _REQ}),
        "member": ("boundedfam._run_ed_member", {
            "--depth": _REQ_INT, "--set": _REQ, "--k": _REQ, "--fin": _FLAG}),
    }),
    # freeset's --fn is required: with no function every set is free, and
    # --n alone is unbounded
    "oracle": ("exhaustive searches", {
        "freeset": ("freesets._run_oracle_freeset", {
            "--n": _REQ_INT, "--fn": _REQ_LIST, "--mode": _MODE}),
        "unsplit": ("freesets._run_oracle_unsplit", {
            "--coloring": _REQ_LIST, "--min-size": _ZERO}),
    }),
    "batch": ("seeded instance sweeps", ("cli._run_batch", {
        "--op": {"required": True, "choices": tuple(_BATCH_VERDICTS)},
        "--seed": _REQ_INT, "--count": _REQ_INT, "--n": _REQ_INT})),
}

# every command, in the order the full parser lists them
COMMANDS = tuple(_TABLE)


def _resolve(path: str) -> Callable:
    """The function a "module.function" entry names in this package; its
    module is imported by the first call that runs one of its handlers."""
    module, name = path.split(".")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _add_leaf(p: argparse.ArgumentParser, leaf: tuple, op: str) -> None:
    handler, options = leaf
    p.add_argument("--out", help="also write the report to this path")
    for flag, keywords in options.items():
        p.add_argument(flag, **keywords)
    on_fn = list(options) == ["--fn"]  # its handler takes the loaded --fn
    p.set_defaults(handler=handler, op=op, on_fn=on_fn, out_parser=p)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parsers: all of them, or when `command` names a command,
    the top-level parser and that command's alone. Every usage line then
    still lists all commands, so a parse prints the same text either way."""
    parser = argparse.ArgumentParser(
        prog="freeset-lab",
        description="Constructions and oracles for free sets of window functions.",
    )
    if command not in _TABLE:
        command = None
    # Only the full parser can fail on the command itself, and a metavar
    # would rename it in that error ("required: command", "argument
    # command: invalid choice").
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, entry) in _TABLE.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if isinstance(entry, tuple):
            _add_leaf(p, entry, name)
            continue
        group = p.add_subparsers(dest="subcommand", required=True)
        for leaf_name, leaf in entry.items():
            _add_leaf(group.add_parser(leaf_name), leaf, f"{name}-{leaf_name}")
    return parser


def _check_out(args: argparse.Namespace) -> None:
    """--out, opened only once the arguments parse, so a usage error leaves
    the file as it was; an unwritable path is a usage error of its own.
    Append mode truncates nothing, so an input that --out names is read
    whole; the report replaces it after the handler returns."""
    if args.out is None:
        return
    try:
        open(args.out, "a", encoding="utf-8").close()
    except OSError as exc:
        args.out_parser.error(f"argument --out: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        _check_out(args)
    except SystemExit as exc:
        return 2 if exc.code else 0
    started = time.perf_counter()
    try:
        payload = _resolve(args.handler)(_load_fn(args.fn) if args.on_fn else args)
    except (ValueError, OSError) as exc:
        payload, code = {"error": str(exc) or type(exc).__name__}, 2
    except Exception as exc:
        error = f"internal fault: {type(exc).__name__}: {exc}"
        payload, code = {"error": error}, 3
    else:
        code = 1 if payload["violations"] else 0
    ok = code == 0  # no error and no violation
    report = {"schema": SCHEMA, "command": argv, "op": args.op, "ok": ok, **payload}
    report["elapsed_seconds"] = time.perf_counter() - started
    text = _dumps(report)
    print(text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text + "\n")
    return code
