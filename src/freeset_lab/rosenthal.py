"""Nonnegative matrices with bounded row sums and their fragmenting sets.

A set A fragments such a matrix at ε when every row indexed by A sums to
strictly less than ε over the other columns of A. All arithmetic is exact
rational: the defining inequality is strict, so a single rounding error
at the boundary would flip verdicts. The zeros-and-ones matrices of
fixed-point-free functions tie fragmentation at ε = 1 to freeness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .funcgraph import FiniteFunction, Subset, json_fields, json_int

EXACT_DIM_CAP = 22
# Fraction builds 10**e exactly, which takes seconds for e in the millions;
# Python prints no int of more than 4300 digits, so the cap sits there.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    """An exact rational from text such as "3", "-1/2", "0.25" or "1e-3".

    Malformed text, a zero denominator included, raises ValueError, and so
    does an exponent of magnitude past MAX_EXPONENT, before any work.
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or "0") > MAX_EXPONENT:
            raise ValueError(
                f"exponent in {text!r} is past the cap of {MAX_EXPONENT}"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in fraction {text!r}") from None


@dataclass(frozen=True)
class RosenthalMatrix:
    """A rows x cols matrix of nonnegative rationals with bounded row sums."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]
    row_bound: Fraction
    nonzero_columns: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        nonzero = []
        for k, row in enumerate(self.entries):
            if len(row) != self.cols:
                raise ValueError(f"row {k} has wrong length")
            total = Fraction(0)
            cols = []
            for j, e in enumerate(row):
                if e < 0:
                    raise ValueError(f"negative entry at ({k}, {j})")
                if e:
                    cols.append(j)
                total += e
            if total > self.row_bound:
                raise ValueError(f"row {k} sum {total} exceeds bound {self.row_bound}")
            nonzero.append(tuple(cols))
        object.__setattr__(self, "nonzero_columns", tuple(nonzero))

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
        entries = tuple(tuple(parse_fraction(str(e)) for e in row) for row in rows)
        return cls(
            json_int(k, "k"), json_int(n, "n"), entries, parse_fraction(str(bound))
        )


@dataclass(frozen=True)
class Fragmentation:
    """Outcome of a fragmentation check; the witness is the first bad row."""

    ok: bool
    witness_row: Optional[int] = None
    witness_sum: Optional[Fraction] = None


def _check_subset(matrix: RosenthalMatrix, subset: Subset) -> None:
    dim = matrix.dim
    for x in subset.elements:
        if x >= dim:
            raise ValueError(f"element {x} outside [0, {dim})")


def fragments(
    matrix: RosenthalMatrix, subset: Subset, eps: Fraction
) -> Fragmentation:
    """Does every A-row sum to < eps over the other columns of A?

    Strict inequality; a sum exactly equal to eps fails. Walks only the
    nonzero columns of each row, so zeros-and-ones function matrices cost
    one lookup per row.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_subset(matrix, subset)
    members = set(subset.elements)
    for k in subset.elements:
        total = Fraction(0)
        for j in matrix.nonzero_columns[k]:
            if j != k and j in members:
                total += matrix.entries[k][j]
        if total >= eps:
            return Fragmentation(False, k, total)
    return Fragmentation(True)


def verify_fragmentation(
    matrix: RosenthalMatrix, subset: Subset, eps: Fraction
) -> Fragmentation:
    """Dense recomputation of fragments, sharing no code path with it."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_subset(matrix, subset)
    for k in subset.elements:
        total = sum(
            (matrix.entries[k][j] for j in subset.elements if j != k),
            Fraction(0),
        )
        if total >= eps:
            return Fragmentation(False, k, total)
    return Fragmentation(True)


def function_to_matrix(fn: FiniteFunction) -> RosenthalMatrix:
    """The 0-1 matrix with m[k][n] = 1 iff n = f(k), row bound 1.

    Images outside the window become all-zero rows, matching the
    convention that boundary edges carry no obligations. For eps <= 1,
    fragmenting this matrix is the same as being free for f.
    """
    n = fn.window
    one = Fraction(1)
    zero = Fraction(0)
    entries = tuple(
        tuple(one if (fn.values[k] == j and fn.values[k] < n) else zero for j in range(n))
        for k in range(n)
    )
    return RosenthalMatrix(n, n, entries, one)


def find_fragmenting_set(
    matrix: RosenthalMatrix,
    eps: Fraction,
    min_size: int,
    mode: str = "exact",
) -> Optional[Subset]:
    """Search for a fragmenting set of size at least min_size.

    Exact mode maximizes cardinality over all subsets of [0, dim) by
    depth-first search, pruning on the fact that subsets of fragmenting
    sets fragment; it returns the lexicographically smallest maximum set,
    or None when even the best falls short of min_size. Greedy mode grows
    the set by repeatedly adding the index whose addition keeps the
    largest off-diagonal row sum smallest (ties to the lowest index),
    stopping when nothing fits below eps; every running row sum stays
    below eps, so the set fragments by construction and is left to
    verify_fragmentation to check. A finite window may simply have
    no fragmenting set of the requested size; None is an answer, not an
    error.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    dim = matrix.dim
    if mode == "greedy":
        chosen: list[int] = []
        sums: dict[int, Fraction] = {}
        while True:
            best_idx = None
            best_score: Optional[Fraction] = None
            for v in range(dim):
                if v in sums:
                    continue
                own = sum((matrix.entries[v][u] for u in chosen), Fraction(0))
                if own >= eps:
                    continue
                score = own
                feasible = True
                for k in chosen:
                    s = sums[k] + matrix.entries[k][v]
                    if s >= eps:
                        feasible = False
                        break
                    if s > score:
                        score = s
                if not feasible:
                    continue
                if best_score is None or score < best_score:
                    best_score = score
                    best_idx = v
            if best_idx is None:
                break
            for k in chosen:
                sums[k] += matrix.entries[k][best_idx]
            sums[best_idx] = sum(
                (matrix.entries[best_idx][u] for u in chosen), Fraction(0)
            )
            chosen.append(best_idx)
        if len(chosen) < min_size:
            return None
        return Subset(dim, tuple(sorted(chosen)))
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if dim > EXACT_DIM_CAP:
        raise ValueError(f"exact mode capped at dimension {EXACT_DIM_CAP}")
    best: list[int] = []
    chosen = []
    sums_list: list[Fraction] = []

    def extend(start: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        for v in range(start, dim):
            if len(chosen) + (dim - v) <= len(best):
                break
            own = Fraction(0)
            feasible = True
            for i, k in enumerate(chosen):
                own += matrix.entries[v][k]
                if own >= eps or sums_list[i] + matrix.entries[k][v] >= eps:
                    feasible = False
                    break
            if not feasible or own >= eps:
                continue
            for i, k in enumerate(chosen):
                sums_list[i] += matrix.entries[k][v]
            chosen.append(v)
            sums_list.append(own)
            extend(v + 1)
            chosen.pop()
            sums_list.pop()
            for i, k in enumerate(chosen):
                sums_list[i] -= matrix.entries[k][v]

    extend(0)
    if len(best) < min_size:
        return None
    return Subset(dim, tuple(best))
