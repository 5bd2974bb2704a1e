"""Command-line surface: one JSON report per invocation.

Every subcommand prints a single JSON document with a stable key order,
exactly as `json.dumps(report, indent=2)` would print it, and exits 0
when the independent verifier pass agrees with the construction, 1 when
a property fails, 2 on malformed input (loaders raise ValueError for all
of it) and 3 on any other exception. Malformed input includes a negative
count or bound (`free --threshold`, `--min-size`, `dominates --n`, `ed
member --k`) and a size past a cap, such as a batch of more than 10^7
points or more than 10^5 instances. Verdicts are always recomputed from
scratch; nothing trusts a constructor's own claim. Batch mode runs
seeded instances one after another and reports them in index order, so
identical seeds give byte-identical reports up to the timing field. A
call builds the argument parsers of its own command alone.
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


def _run_orbits(args) -> tuple[bool, dict]:
    fn = _load_fn(args.fn)
    dec = orbit_decomposition(fn)
    complaints = verify_orbits(fn, dec)
    result = {
        "orbits": [{"kind": o.kind, "nodes": list(o.nodes)} for o in dec.orbits]
    }
    return not complaints, {"result": result, "violations": list(complaints)}


def _run_free(args) -> tuple[bool, dict]:
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
    return not violations, {"result": result, "violations": violations}


def _run_katetov(args) -> tuple[bool, dict]:
    from .freesets import katetov_partition, verify_coloring

    fn = _load_fn(args.fn)
    coloring = katetov_partition(fn)
    bad = verify_coloring(coloring, fn)
    result = coloring.to_json()
    result["classes"] = [list(coloring.color_class(i).elements) for i in range(3)]
    return not bad, {"result": result, "violations": [list(e) for e in bad]}


def _run_inv_decompose(args) -> tuple[bool, dict]:
    from .involutions import decompose_into_involutions, verify_decomposition

    fn = _load_fn(args.fn)
    res = decompose_into_involutions(fn)
    ok, unexplained = verify_decomposition(fn, res)
    return ok, {
        "result": res.to_json(),
        "violations": [list(e) for e in unexplained],
    }


def _run_inv_combine(args) -> tuple[bool, dict]:
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
    for x in d.elements:
        if combined.pairing[x] not in members:
            violations.append({"point": x, "reason": "closure"})
    result = {"d": list(d.elements), "combined": combined.to_json()}
    return not violations, {"result": result, "violations": violations}


def _run_ros_check(args) -> tuple[bool, dict]:
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
        violations.append(
            {
                "row": check.witness_row,
                "sum": str(check.witness_sum),
            }
        )
    result = {"fragments": check.ok, "eps": str(eps)}
    return check.ok and frag.ok == check.ok, {
        "result": result,
        "violations": violations,
    }


def _run_ros_search(args) -> tuple[bool, dict]:
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
        return True, {
            "result": {"set": None, "eps": str(eps)},
            "violations": [],
        }
    check = verify_fragmentation(matrix, found, eps)
    violations = []
    if not check.ok:
        violations.append(
            {
                "row": check.witness_row,
                "sum": str(check.witness_sum),
            }
        )
    result = {"set": list(found.elements), "eps": str(eps)}
    return check.ok, {"result": result, "violations": violations}


def _run_part_fp(args) -> tuple[bool, dict]:
    from .partitions import PartitionIntoParts, partition_function

    partition = PartitionIntoParts.from_json(_load_doc(args.partition))
    fn = partition_function(partition)
    violations = []
    for k in range(partition.window):
        p = partition.part_of[k]
        expected = p if p != k else k + 1
        if fn.values[k] != expected or fn.values[k] == k:
            violations.append({"point": k})
    return not violations, {"result": fn.to_json(), "violations": violations}


def _run_part_escape(args) -> tuple[bool, dict]:
    from .partitions import escape_intervals, verify_escape

    fn = _load_fn(args.fn)
    partition = escape_intervals(fn)
    bad = verify_escape(partition, fn)
    return not bad, {
        "result": partition.to_json(),
        "violations": [{"block": b, "point": x, "image": y} for b, x, y in bad],
    }


def _run_part_localize(args) -> tuple[bool, dict]:
    from .partitions import localization_agreement, localized_function

    g = _load_fn(args.fn)
    subset = _load_set(args.set, g.window)
    fn = localized_function(g, subset)
    agree, same_block = localization_agreement(g, subset, fn)
    violations = []
    agree_set = set(agree)
    block_set = set(same_block)
    for i in block_set:
        if i not in agree_set:
            violations.append({"point": i, "reason": "should follow g"})
    for i in range(g.window):
        if i not in block_set and fn.values[i] != i + 1:
            violations.append({"point": i, "reason": "should take successor"})
    result = {"fn": fn.to_json(), "agrees": list(agree)}
    return not violations, {"result": result, "violations": violations}


def _run_dominates(args) -> tuple[bool, dict]:
    from .partitions import IntervalPartition, dominates

    outer = IntervalPartition.from_json(_load_doc(args.i))
    inner = IntervalPartition.from_json(_load_doc(args.j))
    count, last = dominates(outer, inner, args.n)
    result = {"violations_count": count, "last_violating_block": last}
    violations = (
        [] if count == 0 else [{"count": count, "last_block": last}]
    )
    return count == 0, {"result": result, "violations": violations}


def _run_blocks_build(args) -> tuple[bool, dict]:
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
    return not violations, {"result": system.to_json(), "violations": violations}


def _run_blocks_verify(args) -> tuple[bool, dict]:
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
    for s in shadows:
        if not s.within_bounds:
            violations.append({"block": s.block, "reason": "shadow bound"})
    for n in verify_shadows(system, fn, shadows):
        violations.append({"block": n, "reason": "shadow set mismatch"})
    claim = verify_freeness_claim(system, fn, h)
    for x, y in claim.uncertified:
        violations.append({"edge": [x, y], "reason": "no shadow certificate"})
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
    return not violations, {"result": result, "violations": violations}


def _run_ed_build(args) -> tuple[bool, dict]:
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
    return not violations, {"result": blocks.to_json(), "violations": violations}


def _run_ed_badset(args) -> tuple[bool, dict]:
    from .boundedfam import bad_set, build_ed_blocks

    blocks = build_ed_blocks(args.depth)
    fn = _load_fn(args.fn)
    per_block = []
    violations = []
    for n in range(blocks.block_count()):
        b = bad_set(blocks, fn, n)
        mass = str(b.mass)
        per_block.append(
            {"block": n, "elements": list(b.elements), "mass": mass}
        )
        if b.mass > 2:
            violations.append({"block": n, "mass": mass})
    return not violations, {
        "result": {"per_block": per_block},
        "violations": violations,
    }


def _run_ed_member(args) -> tuple[bool, dict]:
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
    return member, {"result": result, "violations": violations}


def _run_oracle_freeset(args) -> tuple[bool, dict]:
    from .freesets import is_maximal_free, max_free_subset

    family = [_load_fn(t) for t in args.fn]
    subset = max_free_subset(family, args.n, args.mode)
    violations = []
    for i, fn in enumerate(family):
        hit = image_overlap(subset, fn).elements
        if hit:
            violations.append({"function": i, "intersection": list(hit)})
    if args.mode == "greedy" and not is_maximal_free(subset, family, args.n):
        violations.append({"reason": "not maximal under inclusion"})
    result = {"set": list(subset.elements), "size": len(subset.elements)}
    return not violations, {"result": result, "violations": violations}


def _run_oracle_unsplit(args) -> tuple[bool, dict]:
    from .freesets import Coloring, find_unsplit_set

    if args.min_size < 0:
        raise ValueError(f"--min-size is {args.min_size}, must be at least 0")
    colorings = [Coloring.from_json(_load_doc(t)) for t in args.coloring]
    found = find_unsplit_set(colorings, args.min_size)
    if found is None:
        return True, {"result": {"set": None}, "violations": []}
    subset, choice = found
    violations = []
    for j, coloring in enumerate(colorings):
        for x in subset.elements:
            if coloring.colors[x] != choice[j]:
                violations.append({"coloring": j, "point": x})
    result = {"set": list(subset.elements), "choice": list(choice)}
    return not violations, {"result": result, "violations": violations}


# === batch mode ===


def _batch_instance(op: str, seed: int, n: int) -> dict:
    if op == "involutions-decompose":
        from .involutions import decompose_into_involutions, verify_decomposition

        fn = random_fpf_function(seed, n, injective=True)
        res = decompose_into_involutions(fn)
        ok, _ = verify_decomposition(fn, res)
        return {
            "seed": seed,
            "ok": ok,
            "case": res.case,
            "uncovered": len(res.uncovered_edges),
        }
    if op == "katetov":
        from .freesets import katetov_partition, verify_coloring

        fn = random_fpf_function(seed, n)
        coloring = katetov_partition(fn)
        bad = verify_coloring(coloring, fn)
        return {
            "seed": seed,
            "ok": not bad,
            "classes": len(set(coloring.colors)),
            "violations": len(bad),
        }
    if op == "orbits":
        fn = random_fpf_function(seed, n, injective=True)
        dec = orbit_decomposition(fn)
        complaints = verify_orbits(fn, dec)
        return {
            "seed": seed,
            "ok": not complaints,
            "cycles": len(dec.cycles),
            "paths": len(dec.paths),
        }
    if op == "escape":
        from .partitions import escape_intervals, verify_escape

        fn = random_fpf_function(seed, n, injective=True)
        partition = escape_intervals(fn)
        bad = verify_escape(partition, fn)
        return {
            "seed": seed,
            "ok": not bad,
            "blocks": partition.block_count,
        }
    raise ValueError(f"unknown batch op {op!r}")


def _run_batch(args) -> tuple[bool, dict]:
    op = args.op
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
    rows = [_batch_instance(op, args.seed + i, args.n) for i in range(count)]
    instances = [{"index": i, **row} for i, row in enumerate(rows)]
    failed = [i for i, row in enumerate(rows) if not row["ok"]]
    result = {
        "op": op,
        "count": count,
        "n": args.n,
        "passed": count - len(failed),
    }
    violations = [{"index": i} for i in failed]
    return not failed, {
        "result": result,
        "violations": violations,
        "instances": instances,
    }


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


# every command, in the order the full parser lists them
COMMANDS = (
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


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parsers: all of them, or when `command` names a command,
    the top-level parser and that command's alone. Every usage line then
    still lists all commands, so a parse prints the same text either way."""
    parser = argparse.ArgumentParser(
        prog="freeset-lab",
        description="Constructions and oracles for free sets of window functions.",
    )
    if command not in COMMANDS:
        command = None
    # Only the full parser can fail on the command itself, and a metavar
    # would rename it in that error ("required: command", "argument
    # command: invalid choice").
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def wanted(name: str) -> bool:
        return command is None or command == name

    def with_out(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--out", help="also write the report to this path")
        p.set_defaults(out_parser=p)
        return p

    if wanted("orbits"):
        p = with_out(sub.add_parser("orbits", help="orbit decomposition"))
        p.add_argument("--fn", required=True)
        p.set_defaults(handler=_run_orbits, op="orbits")

    if wanted("free"):
        p = with_out(sub.add_parser("free", help="intersection report for a set"))
        p.add_argument("--set", required=True)
        p.add_argument("--fn", action="append", required=True)
        p.add_argument("--threshold", type=int, default=0)
        p.set_defaults(handler=_run_free, op="free")

    if wanted("katetov"):
        p = with_out(sub.add_parser("katetov", help="three-class free partition"))
        p.add_argument("--fn", required=True)
        p.set_defaults(handler=_run_katetov, op="katetov")

    if wanted("involutions"):
        inv = sub.add_parser("involutions", help="involution covers")
        inv_sub = inv.add_subparsers(dest="subcommand", required=True)
        p = with_out(inv_sub.add_parser("decompose"))
        p.add_argument("--fn", required=True)
        p.set_defaults(handler=_run_inv_decompose, op="involutions-decompose")
        p = with_out(inv_sub.add_parser("combine"))
        p.add_argument("--part", action="append", required=True)
        p.add_argument("--blocks", required=True)
        p.add_argument("--colors", required=True)
        p.set_defaults(handler=_run_inv_combine, op="involutions-combine")

    if wanted("rosenthal"):
        ros = sub.add_parser("rosenthal", help="fragmentation checks")
        ros_sub = ros.add_subparsers(dest="subcommand", required=True)
        p = with_out(ros_sub.add_parser("check"))
        p.add_argument("--matrix", required=True)
        p.add_argument("--set", required=True)
        p.add_argument("--eps", required=True)
        p.set_defaults(handler=_run_ros_check, op="rosenthal-check")
        p = with_out(ros_sub.add_parser("search"))
        p.add_argument("--matrix", required=True)
        p.add_argument("--eps", required=True)
        p.add_argument("--min-size", type=int, default=0)
        p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
        p.set_defaults(handler=_run_ros_search, op="rosenthal-search")

    if wanted("partition"):
        part = sub.add_parser("partition", help="partition machinery")
        part_sub = part.add_subparsers(dest="subcommand", required=True)
        p = with_out(part_sub.add_parser("fp"))
        p.add_argument("--partition", required=True)
        p.set_defaults(handler=_run_part_fp, op="partition-fp")
        p = with_out(part_sub.add_parser("escape"))
        p.add_argument("--fn", required=True)
        p.set_defaults(handler=_run_part_escape, op="partition-escape")
        p = with_out(part_sub.add_parser("localize"))
        p.add_argument("--fn", required=True)
        p.add_argument("--set", required=True)
        p.set_defaults(handler=_run_part_localize, op="partition-localize")

    if wanted("dominates"):
        p = with_out(sub.add_parser("dominates", help="interval domination"))
        p.add_argument("--i", required=True)
        p.add_argument("--j", required=True)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(handler=_run_dominates, op="dominates")

    if wanted("blocks"):
        blocks = sub.add_parser("blocks", help="coded block systems")
        blocks_sub = blocks.add_subparsers(dest="subcommand", required=True)
        p = with_out(blocks_sub.add_parser("build"))
        p.add_argument("--g", required=True)
        p.add_argument("--depth", type=int, required=True)
        p.set_defaults(handler=_run_blocks_build, op="blocks-build")
        p = with_out(blocks_sub.add_parser("verify"))
        p.add_argument("--g", required=True)
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--fn", required=True)
        p.add_argument("--h", required=True)
        p.set_defaults(handler=_run_blocks_verify, op="blocks-verify")

    if wanted("ed"):
        ed = sub.add_parser("ed", help="measured block families")
        ed_sub = ed.add_subparsers(dest="subcommand", required=True)
        p = with_out(ed_sub.add_parser("build"))
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--fin", action="store_true")
        p.set_defaults(handler=_run_ed_build, op="ed-build")
        p = with_out(ed_sub.add_parser("badset"))
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--fn", required=True)
        p.set_defaults(handler=_run_ed_badset, op="ed-badset")
        p = with_out(ed_sub.add_parser("member"))
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--set", required=True)
        p.add_argument("--k", required=True)
        p.add_argument("--fin", action="store_true")
        p.set_defaults(handler=_run_ed_member, op="ed-member")

    if wanted("oracle"):
        oracle = sub.add_parser("oracle", help="exhaustive searches")
        oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
        p = with_out(oracle_sub.add_parser("freeset"))
        p.add_argument("--n", type=int, required=True)
        # required: with no function every set is free, and --n alone is unbounded
        p.add_argument("--fn", action="append", required=True)
        p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
        p.set_defaults(handler=_run_oracle_freeset, op="oracle-freeset")
        p = with_out(oracle_sub.add_parser("unsplit"))
        p.add_argument("--coloring", action="append", required=True)
        p.add_argument("--min-size", type=int, default=0)
        p.set_defaults(handler=_run_oracle_unsplit, op="oracle-unsplit")

    if wanted("batch"):
        p = with_out(sub.add_parser("batch", help="seeded instance sweeps"))
        p.add_argument(
            "--op",
            required=True,
            choices=("involutions-decompose", "katetov", "orbits", "escape"),
        )
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(handler=_run_batch)

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
        ok, payload = args.handler(args)
    except (ValueError, OSError) as exc:
        ok, payload, code = False, {"error": str(exc) or type(exc).__name__}, 2
    except Exception as exc:
        error = f"internal fault: {type(exc).__name__}: {exc}"
        ok, payload, code = False, {"error": error}, 3
    else:
        code = 0 if ok else 1
    report = {"schema": SCHEMA, "command": argv, "op": args.op, "ok": ok, **payload}
    report["elapsed_seconds"] = time.perf_counter() - started
    text = _dumps(report)
    print(text)
    if out is not None:
        with out:
            out.write(text + "\n")
    return code
