"""Nonnegative matrices with bounded row sums and their fragmenting sets.

A set A fragments such a matrix at ε when every row indexed by A sums to
strictly less than ε over the other columns of A. All arithmetic is exact
rational: the defining inequality is strict, so a single rounding error
at the boundary would flip verdicts. verify_fragmentation evaluates that
definition, once, for `rosenthal check` and for every set a search
returns. The zeros-and-ones matrices of fixed-point-free functions tie
fragmentation at ε = 1 to freeness.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from typing import Optional

from .funcgraph import FiniteFunction, Record, Subset, json_fields, json_int
from .funcgraph import _load_doc, _load_set

# worst known case at the cap, blocks 8/8/6 (entries 1/7, eps 1/2): 0.2 s
EXACT_DIM_CAP = 22
# greedy `rosenthal search` on the zero matrix, where every index joins,
# takes about 0.8 s at dim 150 and 1.7 s at dim 200 (2-core x86-64).
GREEDY_DIM_CAP = 150
# Greedy scores about dim**3 / 6 fractions, each as wide as a row's scale
# or its scaled sum off the diagonal, so wide rows slow it too: at dim 150
# with every index joining, 0.8 s at 8 bits a row, 1.0 s at 64, 2.3 s at
# 256 and 11 s with denominators up to 10**6 (2061-bit scales). The cap is
# on dim**3 times the widest row's bits, at 64 bits for dim 150. Rows the
# fields allow are at most 14,284 bits wide, so every dim up to 24 passes.
# Big-int work grows faster than the bits, so the worst case at the cap is
# a small dim with the widest rows: in one session, dim 24-25 near 14,000
# bits took 1.3-1.8 s and dim 150 at 64 bits 1.1-1.5 s (2-core x86-64).
GREEDY_BITS_CAP = GREEDY_DIM_CAP**3 * 64
# Python prints no int of more than 4300 digits, so no numerator or
# denominator may have more. Exponents and digit runs past the cap are
# refused before Fraction builds 10**e, which takes seconds for e in the
# millions.
MAX_DIGITS = 4300
_PAST_MAX_DIGITS = 10**MAX_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*\Z")
_DIGIT_RUN = re.compile(r"\d+")
_ZERO = Fraction(0)


def parse_fraction(text: str) -> Fraction:
    """An exact rational from text such as "3", "-1/2", "0.25" or "1e-3".

    Malformed text, a zero denominator included, raises ValueError, and so
    does a value whose numerator or denominator has more than MAX_DIGITS
    digits; an exponent or a run of digits past the cap is refused before
    any work. Underscores and inner spaces are refused, as Python 3.10's
    Fraction refuses them and later versions accept them.
    """
    if "_" in text or len(text.split()) != 1:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].lstrip("0")
        if len(digits) > 4 or int(digits or "0") > MAX_DIGITS:
            raise ValueError(f"exponent in {text!r} is past the cap of {MAX_DIGITS}")
    runs = _DIGIT_RUN.findall(text)
    if max(map(len, runs), default=0) <= MAX_DIGITS:
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in fraction {text!r}") from None
        if max(abs(value.numerator), value.denominator) < _PAST_MAX_DIGITS:
            return value
    raise ValueError(f"digits of {text!r} are past the cap of {MAX_DIGITS}")


def _json_fraction(value: object, what: str) -> Fraction:
    """An exact rational from a JSON integer or string.

    json reads any other number as a float, already rounded, so a float
    is refused rather than coerced, and so are true and false.
    """
    if type(value) is not int and type(value) is not str:
        raise ValueError(f"{what} is {json.dumps(value)}, not an integer or a string")
    return parse_fraction(str(value))


class RosenthalMatrix(Record):
    """A rows x cols matrix of nonnegative rationals with bounded row sums;
    scaled[k] maps each nonzero column of row k to its entry times
    scales[k], the LCM of the row's denominators (absent columns are 0).
    Both follow from entries, so they take no part in equality or the repr."""

    __slots__ = ("rows", "cols", "entries", "row_bound", "scaled", "scales")
    _fields = ("rows", "cols", "entries", "row_bound")
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]
    row_bound: Fraction
    scaled: tuple[dict[int, int], ...]
    scales: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        scaled, scales, bound = [], [], self.row_bound
        for k, row in enumerate(self.entries):
            if len(row) != self.cols:
                raise ValueError(f"row {k} has wrong length")
            cells = [(j, e) for j, e in enumerate(row) if e]
            scale = 1
            for j, e in cells:
                if e < 0:
                    raise ValueError(f"negative entry at ({k}, {j})")
                scale = lcm(scale, e.denominator)
                if scale >= _PAST_MAX_DIGITS:
                    raise ValueError(f"row {k} scale is past the cap of {MAX_DIGITS}")
            ints = {j: e.numerator * scale // e.denominator for j, e in cells}
            total = sum(ints.values())
            if total >= _PAST_MAX_DIGITS:
                raise ValueError(f"row {k} scaled sum is past the cap of {MAX_DIGITS}")
            if total * bound.denominator > bound.numerator * scale:
                total = Fraction(total, scale)
                raise ValueError(f"row {k} sum {total} exceeds bound {bound}")
            scaled.append(ints)
            scales.append(scale)
        object.__setattr__(self, "scaled", tuple(scaled))
        object.__setattr__(self, "scales", tuple(scales))

    @property
    def dim(self) -> int:
        """The shared index range [0, min(rows, cols)) fragmenting sets live in."""
        return min(self.rows, self.cols)

    def to_json(self) -> dict:
        return {
            "k": self.rows,
            "n": self.cols,
            "row_bound": str(self.row_bound),
            "entries": [[str(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RosenthalMatrix":
        shape = (
            'a matrix must be a JSON object '
            '{"k": K, "n": N, "row_bound": B, "entries": [[...], ...]}'
        )
        k, n, bound, rows = json_fields(doc, shape, "k", "n", "row_bound", "entries")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("entries must be a JSON array of arrays")
        entries = tuple(
            tuple(_json_fraction(e, f"entries[{i}][{j}]") for j, e in enumerate(row))
            for i, row in enumerate(rows)
        )
        return cls(
            json_int(k, "k"),
            json_int(n, "n"),
            entries,
            _json_fraction(bound, "row_bound"),
        )


class Fragmentation(Record):
    """Outcome of a fragmentation check: the first row of A that sums to at
    least eps over the rest of A, with its sum, or None and None when A
    fragments."""

    __slots__ = ("witness_row", "witness_sum")
    witness_row: Optional[int]
    witness_sum: Optional[Fraction]

    @property
    def ok(self) -> bool:
        return self.witness_row is None


def verify_fragmentation(
    matrix: RosenthalMatrix, subset: Subset, eps: Fraction
) -> Fragmentation:
    """Does every A-row sum to < eps over the other columns of A?

    Strict inequality; a sum exactly equal to eps fails. Reads every entry
    of A x A from matrix.entries and adds the nonzero ones, sharing no code
    with the searches it certifies.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    entries, elements = matrix.entries, subset.elements
    dim = min(len(entries), len(entries[0]))
    for x in elements:
        if x >= dim:
            raise ValueError(f"element {x} outside [0, {dim})")
    for k in elements:
        row = entries[k]
        total = sum([e for j in elements if (e := row[j]) and j != k], _ZERO)
        if total >= eps:
            return Fragmentation(k, total)
    return Fragmentation(None, None)


def function_to_matrix(fn: FiniteFunction) -> RosenthalMatrix:
    """The 0-1 matrix with m[k][n] = 1 iff n = f(k), row bound 1.

    Images outside the window become all-zero rows, matching the
    convention that boundary edges carry no obligations. For eps <= 1,
    fragmenting this matrix is the same as being free for f.
    """
    n, one, zero = fn.window, Fraction(1), Fraction(0)
    entries = tuple(tuple(one if v == j else zero for j in range(n)) for v in fn.values)
    return RosenthalMatrix(n, n, entries, one)


def find_fragmenting_set(
    matrix: RosenthalMatrix,
    eps: Fraction,
    min_size: int,
    mode: str = "exact",
) -> Optional[Subset]:
    """Search for a fragmenting set of size at least min_size.

    Both modes hold own[u], row u summed over the chosen columns other than
    u, and fits, the indices that can still join; when v joins, its column
    is added to own and fits loses every index that no longer fits below
    eps, rescanning only the chosen rows that lost slack: v's and those
    with an entry in column v. Exact mode maximizes cardinality over all
    subsets of [0, dim) by depth-first search, pruning on the fact that
    subsets of fragmenting sets fragment and, before v joins, on the room
    in row v: no more candidates can join after v than row v's smallest
    entries among them that keep its sum below eps. A branch that can at
    most tie is dropped, so the search returns the lexicographically
    smallest maximum set, or None (an answer, not an error) when even the
    best falls short of min_size. Greedy mode joins, while fits is not
    empty, the index whose addition keeps the largest off-diagonal row sum
    smallest (ties to the lowest index); every running row sum stays below
    eps, so the set fragments by construction, for verify_fragmentation to
    check. A dim past EXACT_DIM_CAP in exact mode raises ValueError, and
    so does greedy mode past GREEDY_DIM_CAP or when dim cubed times the
    bits of the widest row, its scale or its scaled sum over the square's
    off-diagonal columns, is past GREEDY_BITS_CAP.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    # a row at or past dim is never in a fragmenting set: only the square is read
    dim = matrix.dim
    cap = EXACT_DIM_CAP if mode == "exact" else GREEDY_DIM_CAP
    if dim > cap:
        raise ValueError(f"{mode} mode capped at dimension {cap}")
    # integer row k, scaled by L, sums below eps * L iff below ceil(eps * L)
    rows, scales = matrix.scaled[:dim], matrix.scales[:dim]
    if mode == "greedy":
        # scores hold only a row's entries off its diagonal and inside the square
        widest = max(
            max(scale, sum(e for j, e in row.items() if j != k and j < dim))
            for k, (scale, row) in enumerate(zip(scales, rows))
        )
        bits = widest.bit_length()
        if dim**3 * bits > GREEDY_BITS_CAP:
            raise ValueError(
                f"greedy mode capped at {GREEDY_BITS_CAP} for dimension cubed times"
                f" row bits, not {dim}**3 x {bits}"
            )
    limits = [ceil(eps * scale) for scale in scales]
    # into[v]: the rows other than v with an entry in column v, and the entry
    into = [
        [(k, row[v]) for k, row in enumerate(rows) if v in row and k != v]
        for v in range(dim)
    ]

    def join(chosen, own, fits: int, v: int):
        # an index stops fitting when its own row reaches its limit, or when
        # its entry in a chosen row is at least that row's slack
        own, gone = own.copy(), 1 << v
        for k, e in into[v]:
            own[k] += e
            gone |= (own[k] >= limits[k]) << k
        for k in [v, *(k for k in chosen if v in rows[k])]:
            slack = limits[k] - own[k]
            gone |= sum(1 << u for u, e in rows[k].items() if e >= slack)
        return [*chosen, v], own, fits & ~gone

    if mode == "greedy":
        chosen, own, fits = [], [0] * dim, (1 << dim) - 1

        def score(u: int) -> Fraction:
            grown = (Fraction(own[k] + rows[k].get(u, 0), scales[k]) for k in chosen)
            return max([Fraction(own[u], scales[u]), *grown])

        while fits:
            v = min((u for u in range(dim) if fits >> u & 1), key=score)
            chosen, own, fits = join(chosen, own, fits, v)
        best = chosen
    else:
        best = []

        def extend(chosen, own, fits: int) -> None:
            # every index in fits is past chosen[-1]
            nonlocal best
            if len(chosen) > len(best):
                best = chosen
            # a branch that can at most tie comes later in lexicographic order
            while len(chosen) + fits.bit_count() > len(best):
                v = (fits & -fits).bit_length() - 1
                fits &= fits - 1
                # row v stays below its limit over its smallest entries first,
                # so at most fits.bit_count() - over more indices join after v
                entries = sorted(e for u, e in rows[v].items() if fits >> u & 1)
                over = sum(t >= limits[v] - own[v] for t in accumulate(entries))
                if len(chosen) + 1 + fits.bit_count() - over > len(best):
                    extend(*join(chosen, own, fits, v))

        extend([], [0] * dim, (1 << dim) - 1)
    if len(best) < min_size:
        return None
    return Subset(dim, tuple(sorted(best)))


# === CLI handlers, named in cli._TABLE ===


def _witness(check: Fragmentation) -> dict:
    """The heavy row a failed fragmentation check names, with its sum."""
    return {"row": check.witness_row, "sum": str(check.witness_sum)}


def _run_ros_check(args) -> dict:
    matrix = RosenthalMatrix.from_json(_load_doc(args.matrix))
    subset = _load_set(args.set, matrix.dim)
    eps = parse_fraction(args.eps)
    check = verify_fragmentation(matrix, subset, eps)
    violations = [] if check.ok else [_witness(check)]
    result = {"fragments": check.ok, "eps": str(eps)}
    return {"result": result, "violations": violations}


def _run_ros_search(args) -> dict:
    if args.min_size < 0:
        raise ValueError(f"--min-size is {args.min_size}, must be at least 0")
    matrix = RosenthalMatrix.from_json(_load_doc(args.matrix))
    eps = parse_fraction(args.eps)
    # the best set is checked even when it falls short of --min-size
    found = find_fragmenting_set(matrix, eps, 0, args.mode)
    if found is None:
        result = {"set": None, "eps": str(eps)}
        return {"result": result, "violations": [{"reason": "no set"}]}
    dim, chosen = matrix.dim, found.elements
    big_enough = len(chosen) >= args.min_size
    result = {"set": list(chosen) if big_enough else None, "eps": str(eps)}
    if found.window != dim:
        # the checks below read the matrix at every member of the set
        return {"result": result, "violations": [{"reason": "window"}]}
    check = verify_fragmentation(matrix, found, eps)
    violations = [] if check.ok else [_witness(check)]
    # both modes stop only when no index can join the set
    grown = [Subset.of(dim, (*chosen, v)) for v in range(dim) if v not in chosen]
    if any(verify_fragmentation(matrix, s, eps).ok for s in grown):
        violations.append({"reason": "not maximal under inclusion"})
    return {"result": result, "violations": violations}
