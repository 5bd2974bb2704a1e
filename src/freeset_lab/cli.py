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
claim. Batch mode runs seeded instances one after another and reports
them in index order, so identical seeds give byte-identical reports up
to the timing field. Each command is one entry of `_TABLE`, which holds
its help text, handlers and options, and from which every parser, every
`op` name and `COMMANDS` are derived. A call builds the argument
parsers of its own command alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

# funcgraph is the one layer every subcommand uses; each handler imports
# the rest of what it needs, so a call compiles only those modules.
from .funcgraph import (
    MAX_MATERIALIZED_POSITIONS,
    FiniteFunction,
    Subset,
    image_overlap,
    json_int,
    json_ints,
    orbit_decomposition,
    random_fpf_function,
    verify_orbits,
)

if TYPE_CHECKING:
    from .boundedfam import GrowthFunction
    from .rosenthal import Fragmentation

SCHEMA = 2
# Each instance is a report row: 10^5 of them print about 11 MB.
MAX_BATCH_COUNT = 100_000


def _load_doc(text: str):
    """Inline JSON if it looks like JSON, otherwise a path to a JSON file."""
    stripped = text.strip()
    try:
        if stripped.startswith(("{", "[")):
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def _load_fn(text: str) -> FiniteFunction:
    return FiniteFunction.from_json(_load_doc(text))


def _load_set(text: str, window: int) -> Subset:
    return Subset.of(window, json_ints(_load_doc(text), "set"))


def _load_growth(text: str, depth: int) -> GrowthFunction:
    """An inline array of bounds, or one integer (a scalar, which cannot nest)."""
    from .boundedfam import GrowthFunction, constant_growth

    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return GrowthFunction(json_ints(_load_doc(stripped), "g"))
    return constant_growth(json_int(json.loads(stripped), "g"), depth)


# === single-construction handlers ===
# Each returns its report's "result" and "violations"; main sets "ok"
# exactly when the violations are empty.


def _run_orbits(args) -> dict:
    fn = _load_fn(args.fn)
    dec = orbit_decomposition(fn)
    complaints = verify_orbits(fn, dec)
    result = {
        "orbits": [{"kind": o.kind, "nodes": list(o.nodes)} for o in dec.orbits]
    }
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


def _run_katetov(args) -> dict:
    from .freesets import katetov_partition, verify_coloring

    fn = _load_fn(args.fn)
    coloring = katetov_partition(fn)
    bad = verify_coloring(coloring, fn)
    result = coloring.to_json()
    result["classes"] = [list(coloring.color_class(i).elements) for i in range(3)]
    return {"result": result, "violations": [list(e) for e in bad]}


def _run_inv_decompose(args) -> dict:
    from .involutions import decompose_into_involutions, verify_decomposition

    fn = _load_fn(args.fn)
    res = decompose_into_involutions(fn)
    ok, unexplained = verify_decomposition(fn, res)
    violations = [list(e) for e in unexplained]
    if not ok and not violations:
        # a malformed cover of a function with no in-window edge
        violations.append({"reason": "verifier rejects the cover"})
    return {"result": res.to_json(), "violations": violations}


def _run_inv_combine(args) -> dict:
    from .involutions import Involution, combine_on_blocks
    from .partitions import IntervalPartition

    parts = [Involution.from_json(_load_doc(t)) for t in args.part]
    blocks = IntervalPartition.from_json(_load_doc(args.blocks))
    colors = json_ints(_load_doc(args.colors), "colors")
    d, combined = combine_on_blocks(parts, blocks, colors)
    violations = []
    members = set(d.elements)
    for idx, (lo, hi) in enumerate(blocks.blocks()):
        part = parts[colors[idx]]
        exc = set(part.exceptions)
        for x in range(lo, hi):
            y = part.pairing[x]
            should = x not in exc and lo <= y < hi
            if should != (x in members):
                violations.append({"point": x, "reason": "membership"})
            if should and combined.pairing[x] != y:
                violations.append({"point": x, "reason": "pairing"})
    # a point past the blocks is chosen by no part
    end = blocks.endpoints[-1]
    violations += [{"point": x, "reason": "membership"} for x in d.elements if x >= end]
    result = {"d": list(d.elements), "combined": combined.to_json()}
    return {"result": result, "violations": violations}


def _witness(check: Fragmentation) -> dict:
    """The heavy row a failed fragmentation check names, with its sum."""
    return {"row": check.witness_row, "sum": str(check.witness_sum)}


def _run_ros_check(args) -> dict:
    from .rosenthal import (
        RosenthalMatrix,
        fragments,
        parse_fraction,
        verify_fragmentation,
    )

    matrix = RosenthalMatrix.from_json(_load_doc(args.matrix))
    subset = _load_set(args.set, matrix.dim)
    eps = parse_fraction(args.eps)
    frag = fragments(matrix, subset, eps)
    check = verify_fragmentation(matrix, subset, eps)
    violations = []
    if frag.ok != check.ok:
        violations.append({"reason": "verifier disagrees with constructor"})
    if not check.ok:
        violations.append(_witness(check))
    result = {"fragments": check.ok, "eps": str(eps)}
    return {"result": result, "violations": violations}


def _run_ros_search(args) -> dict:
    from .rosenthal import (
        RosenthalMatrix,
        find_fragmenting_set,
        parse_fraction,
        verify_fragmentation,
    )

    if args.min_size < 0:
        raise ValueError(f"--min-size is {args.min_size}, must be at least 0")
    matrix = RosenthalMatrix.from_json(_load_doc(args.matrix))
    eps = parse_fraction(args.eps)
    found = find_fragmenting_set(matrix, eps, args.min_size, args.mode)
    if found is None:
        return {"result": {"set": None, "eps": str(eps)}, "violations": []}
    check = verify_fragmentation(matrix, found, eps)
    violations = [] if check.ok else [_witness(check)]
    # both modes stop only when no index can join the set
    dim, chosen = matrix.dim, found.elements
    grown = [Subset.of(dim, (*chosen, v)) for v in range(dim) if v not in chosen]
    if any(verify_fragmentation(matrix, s, eps).ok for s in grown):
        violations.append({"reason": "not maximal under inclusion"})
    result = {"set": list(found.elements), "eps": str(eps)}
    return {"result": result, "violations": violations}


def _run_part_fp(args) -> dict:
    from .partitions import PartitionIntoParts, partition_function

    partition = PartitionIntoParts.from_json(_load_doc(args.partition))
    fn = partition_function(partition)
    violations = []
    for k in range(partition.window):
        p = partition.part_of[k]
        expected = p if p != k else k + 1
        if fn.values[k] != expected:
            violations.append({"point": k})
    return {"result": fn.to_json(), "violations": violations}


def _run_part_escape(args) -> dict:
    from .partitions import escape_intervals, verify_escape

    fn = _load_fn(args.fn)
    partition = escape_intervals(fn)
    bad = verify_escape(partition, fn)
    return {
        "result": partition.to_json(),
        "violations": [{"block": b, "point": x, "image": y} for b, x, y in bad],
    }


def _run_part_localize(args) -> dict:
    from .partitions import localized_function, verify_localization

    g = _load_fn(args.fn)
    subset = _load_set(args.set, g.window)
    fn = localized_function(g, subset)
    violations = [
        {"point": i, "reason": reason}
        for i, reason in verify_localization(g, subset, fn)
    ]
    agrees = [i for i, (x, y) in enumerate(zip(fn.values, g.values)) if x == y]
    result = {"fn": fn.to_json(), "agrees": agrees}
    return {"result": result, "violations": violations}


def _run_dominates(args) -> dict:
    from .partitions import IntervalPartition, dominates

    outer = IntervalPartition.from_json(_load_doc(args.i))
    inner = IntervalPartition.from_json(_load_doc(args.j))
    count, last = dominates(outer, inner, args.n)
    result = {"violations_count": count, "last_violating_block": last}
    violations = (
        [] if count == 0 else [{"count": count, "last_block": last}]
    )
    return {"result": result, "violations": violations}


def _run_blocks_build(args) -> dict:
    from .boundedfam import build_block_system

    g = _load_growth(args.g, args.depth)
    system = build_block_system(g, args.depth)
    violations = []
    total = 0
    for n in range(system.depth):
        lo, hi = system.interval(n)
        if hi - lo != 2 * total + 1:
            violations.append({"block": n, "reason": "interval size not minimal"})
        f = 1
        for i in range(lo, hi):
            f *= g.values[i]
        if f != system.f_sizes[n]:
            violations.append({"block": n, "reason": "tuple count mismatch"})
        total += f
    return {"result": system.to_json(), "violations": violations}


def _run_blocks_verify(args) -> dict:
    from .boundedfam import (
        build_block_system,
        meeting_function,
        shadow_set,
        verify_freeness_claim,
        verify_meeting,
        verify_shadows,
    )

    g = _load_growth(args.g, args.depth)
    system = build_block_system(g, args.depth)
    fn = _load_fn(args.fn)
    h = json_ints(_load_doc(args.h), "h")
    shadows = [shadow_set(system, fn, n) for n in range(system.depth)]
    violations = []
    # |S_f(n)| <= 2 * start(J_n) < |I_n|, both bounds taken from the system
    for n, s in enumerate(shadows):
        lo, hi = system.interval(n)
        if not len(s.elements) <= 2 * system.j_starts[n] < hi - lo:
            violations.append({"block": n, "reason": "shadow bound"})
    for n in verify_shadows(system.j_starts, fn, shadows):
        violations.append({"block": n, "reason": "shadow set mismatch"})
    claim = verify_freeness_claim(system, fn, h)
    ell = meeting_function(system, shadows)
    for n, e in verify_meeting(system, shadows, ell):
        violations.append({"block": n, "element": e, "reason": "meeting miss"})
    result = {
        "coded_points": list(claim.coded_points),
        "edges": [list(e) for e in claim.edges],
        "certified": [list(c) for c in claim.certified],
        "shadow_sizes": [len(s.elements) for s in shadows],
        "meeting": list(ell),
    }
    return {"result": result, "violations": violations}


def _run_ed_build(args) -> dict:
    from fractions import Fraction

    from .boundedfam import build_ed_blocks, ed_fin_blocks

    blocks = ed_fin_blocks(args.depth) if args.fin else build_ed_blocks(args.depth)
    violations = []
    if args.fin:
        if list(blocks.sizes) != list(range(args.depth + 1)):
            violations.append({"reason": "size recurrence"})
    else:
        total = 1
        for n in range(args.depth):
            if blocks.sizes[n + 1] != 2 * (n + 1) * total:
                violations.append({"block": n + 1, "reason": "size recurrence"})
            if blocks.unit_masses[n + 1] != Fraction(1, total):
                violations.append({"block": n + 1, "reason": "unit mass"})
            total += blocks.sizes[n + 1]
    return {"result": blocks.to_json(), "violations": violations}


def _run_ed_badset(args) -> dict:
    from .boundedfam import bad_set, build_ed_blocks, verify_shadows

    blocks = build_ed_blocks(args.depth)
    fn = _load_fn(args.fn)
    bads = [bad_set(blocks, fn, n) for n in range(blocks.block_count())]
    per_block = []
    violations = []
    for n, b in enumerate(bads):
        mass = str(b.mass)
        per_block.append(
            {"block": n, "elements": list(b.elements), "mass": mass}
        )
        if b.mass > 2:
            violations.append({"block": n, "mass": mass})
    # B_f(n) is S_f(n) over the measured blocks
    for n in verify_shadows(blocks.starts, fn, bads):
        violations.append({"block": n, "reason": "bad set mismatch"})
    return {"result": {"per_block": per_block}, "violations": violations}


def _run_ed_member(args) -> dict:
    from .boundedfam import build_ed_blocks, ed_fin_blocks, ed_membership
    from .rosenthal import parse_fraction

    bound = parse_fraction(args.k)
    if bound < 0:
        # masses are never negative, so no set could be a member
        raise ValueError(f"--k is {bound}, must be at least 0")
    blocks = ed_fin_blocks(args.depth) if args.fin else build_ed_blocks(args.depth)
    subset = _load_set(args.set, blocks.starts[-1])
    member, worst = ed_membership(blocks, subset, bound)
    result = {
        "member": member,
        "max_block_mass": str(worst),
        "k": str(bound),
    }
    violations = [] if member else [{"max_block_mass": str(worst)}]
    return {"result": result, "violations": violations}


def _run_oracle_freeset(args) -> dict:
    from .freesets import is_maximal_free, max_free_subset

    family = [_load_fn(t) for t in args.fn]
    subset = max_free_subset(family, args.n, args.mode)
    violations = []
    for i, fn in enumerate(family):
        hit = image_overlap(subset, fn).elements
        if hit:
            violations.append({"function": i, "intersection": list(hit)})
    if not is_maximal_free(subset, family, args.n):
        violations.append({"reason": "not maximal under inclusion"})
    result = {"set": list(subset.elements), "size": len(subset.elements)}
    return {"result": result, "violations": violations}


def _run_oracle_unsplit(args) -> dict:
    from .freesets import Coloring, find_unsplit_set

    if args.min_size < 0:
        raise ValueError(f"--min-size is {args.min_size}, must be at least 0")
    colorings = [Coloring.from_json(_load_doc(t)) for t in args.coloring]
    found = find_unsplit_set(colorings, args.min_size)
    if found is None:
        return {"result": {"set": None}, "violations": []}
    subset, choice = found
    violations = []
    for j, coloring in enumerate(colorings):
        for x in subset.elements:
            if coloring.colors[x] != choice[j]:
                violations.append({"coloring": j, "point": x})
    result = {"set": list(subset.elements), "choice": list(choice)}
    return {"result": result, "violations": violations}


# === batch mode ===
# One row builder per --op choice: seed and size in, the row's verdict
# and counts out.


def _decompose_row(seed: int, n: int) -> dict:
    from .involutions import decompose_into_involutions, verify_decomposition

    fn = random_fpf_function(seed, n, injective=True)
    res = decompose_into_involutions(fn)
    ok, _ = verify_decomposition(fn, res)
    return {"ok": ok, "case": res.case, "uncovered": len(res.uncovered_edges)}


def _katetov_row(seed: int, n: int) -> dict:
    from .freesets import katetov_partition, verify_coloring

    fn = random_fpf_function(seed, n)
    coloring = katetov_partition(fn)
    bad = verify_coloring(coloring, fn)
    return {
        "ok": not bad,
        "classes": len(set(coloring.colors)),
        "violations": len(bad),
    }


def _orbits_row(seed: int, n: int) -> dict:
    fn = random_fpf_function(seed, n, injective=True)
    dec = orbit_decomposition(fn)
    complaints = verify_orbits(fn, dec)
    return {"ok": not complaints, "cycles": len(dec.cycles), "paths": len(dec.paths)}


def _escape_row(seed: int, n: int) -> dict:
    from .partitions import escape_intervals, verify_escape

    fn = random_fpf_function(seed, n, injective=True)
    partition = escape_intervals(fn)
    bad = verify_escape(partition, fn)
    return {"ok": not bad, "blocks": partition.block_count}


_BATCH_ROWS = {
    "involutions-decompose": _decompose_row,
    "katetov": _katetov_row,
    "orbits": _orbits_row,
    "escape": _escape_row,
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
    row = _BATCH_ROWS[args.op]
    instances = [
        {"index": i, "seed": args.seed + i, **row(args.seed + i, args.n)}
        for i in range(count)
    ]
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
# (handler, {option: add_argument keywords}). A leaf's op is its command
# path joined by "-"; batch's required --op overrides it. A new command
# or leaf is one entry here.
_TABLE = {
    "orbits": ("orbit decomposition", (_run_orbits, {"--fn": _REQ})),
    "free": ("intersection report for a set", (_run_free, {
        "--set": _REQ, "--fn": _REQ_LIST, "--threshold": _ZERO})),
    "katetov": ("three-class free partition", (_run_katetov, {"--fn": _REQ})),
    "involutions": ("involution covers", {
        "decompose": (_run_inv_decompose, {"--fn": _REQ}),
        "combine": (_run_inv_combine, {
            "--part": _REQ_LIST, "--blocks": _REQ, "--colors": _REQ}),
    }),
    "rosenthal": ("fragmentation checks", {
        "check": (_run_ros_check, {"--matrix": _REQ, "--set": _REQ, "--eps": _REQ}),
        "search": (_run_ros_search, {
            "--matrix": _REQ, "--eps": _REQ, "--min-size": _ZERO, "--mode": _MODE}),
    }),
    "partition": ("partition machinery", {
        "fp": (_run_part_fp, {"--partition": _REQ}),
        "escape": (_run_part_escape, {"--fn": _REQ}),
        "localize": (_run_part_localize, {"--fn": _REQ, "--set": _REQ}),
    }),
    "dominates": ("interval domination", (_run_dominates, {
        "--i": _REQ, "--j": _REQ, "--n": _REQ_INT})),
    "blocks": ("coded block systems", {
        "build": (_run_blocks_build, {"--g": _REQ, "--depth": _REQ_INT}),
        "verify": (_run_blocks_verify, {
            "--g": _REQ, "--depth": _REQ_INT, "--fn": _REQ, "--h": _REQ}),
    }),
    "ed": ("measured block families", {
        "build": (_run_ed_build, {"--depth": _REQ_INT, "--fin": _FLAG}),
        "badset": (_run_ed_badset, {"--depth": _REQ_INT, "--fn": _REQ}),
        "member": (_run_ed_member, {
            "--depth": _REQ_INT, "--set": _REQ, "--k": _REQ, "--fin": _FLAG}),
    }),
    # freeset's --fn is required: with no function every set is free, and
    # --n alone is unbounded
    "oracle": ("exhaustive searches", {
        "freeset": (_run_oracle_freeset, {
            "--n": _REQ_INT, "--fn": _REQ_LIST, "--mode": _MODE}),
        "unsplit": (_run_oracle_unsplit, {
            "--coloring": _REQ_LIST, "--min-size": _ZERO}),
    }),
    "batch": ("seeded instance sweeps", (_run_batch, {
        "--op": {"required": True, "choices": tuple(_BATCH_ROWS)},
        "--seed": _REQ_INT, "--count": _REQ_INT, "--n": _REQ_INT})),
}

# every command, in the order the full parser lists them
COMMANDS = tuple(_TABLE)


def _add_leaf(p: argparse.ArgumentParser, leaf: tuple, op: str) -> None:
    handler, options = leaf
    p.add_argument("--out", help="also write the report to this path")
    for flag, keywords in options.items():
        p.add_argument(flag, **keywords)
    p.set_defaults(handler=handler, op=op, out_parser=p)


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


def _out_file(args: argparse.Namespace) -> Optional[TextIO]:
    """--out, opened only once the arguments parse, so a usage error leaves
    the file as it was; an unwritable path is a usage error of its own."""
    if args.out is None:
        return None
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        args.out_parser.error(f"argument --out: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        out = _out_file(args)
    except SystemExit as exc:
        return 2 if exc.code else 0
    started = time.perf_counter()
    try:
        payload = args.handler(args)
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
    if out is not None:
        with out:
            out.write(text + "\n")
    return code
