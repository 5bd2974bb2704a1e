"""Covering a fixed-point-free injection by four involutions.

Every fixed-point-free injective function on a window can have its graph
covered by four fixed-point-free involutions, each orbit on its own:

* an even cycle splits into alternating pair swaps, two parts;
* a path (an orbit cut off by the window edge) spreads its edges over
  three parts: even positions, positions 1 mod 4, positions 3 mod 4;
* an odd cycle a_0 .. a_k takes every second edge starting at a_0 into
  one part (dropping a_k), every second edge starting at a_1 into a
  second (dropping a_0), and the chord (a_0, a_k) into a third, which
  covers the closing edge.

Orbits are disjoint, so the per-orbit pairs never collide and every
in-window edge is covered. Leftover points of each part are paired
canonically, lowest first, with at most one exception when the window
is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .funcgraph import FiniteFunction, Orbit, Subset, orbit_decomposition
from .partitions import IntervalPartition


@dataclass(frozen=True)
class Involution:
    """A self-inverse pairing of a window with explicit unpaired points.

    pairing[x] = y means x and y swap; points in exceptions map to
    themselves and are the only ones allowed to.
    """

    window: int
    pairing: tuple[int, ...]
    exceptions: tuple[int, ...]

    def __post_init__(self) -> None:
        pairing = tuple(self.pairing)
        exceptions = tuple(sorted(self.exceptions))
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "exceptions", exceptions)
        if len(pairing) != self.window or self.window <= 0:
            raise ValueError("pairing length must match a positive window")
        exc = set(exceptions)
        if len(exc) != len(exceptions):
            raise ValueError("duplicate exception")
        for x, y in enumerate(pairing):
            if y < 0 or y >= self.window:
                raise ValueError(f"pairing value {y} outside the window")
            if x in exc:
                if y != x:
                    raise ValueError(f"exception {x} must map to itself")
            else:
                if y == x:
                    raise ValueError(f"{x} is fixed but not listed as an exception")
                if pairing[y] != x:
                    raise ValueError(f"pairing is not self-inverse at {x}")

    def __call__(self, x: int) -> int:
        return self.pairing[x]

    def as_function(self) -> FiniteFunction:
        """The pairing as a window function, exceptions exiting the window.

        Sending each exception to the window edge keeps the result
        fixed-point-free, and the exits are boundary edges that freeness
        checks already ignore.
        """
        exceptions = set(self.exceptions)
        vals = tuple(
            self.window if x in exceptions else y
            for x, y in enumerate(self.pairing)
        )
        return FiniteFunction(vals)

    def to_json(self) -> dict:
        return {
            "n": self.window,
            "pairing": list(self.pairing),
            "exceptions": list(self.exceptions),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Involution":
        return cls(
            int(doc["n"]),
            tuple(int(v) for v in doc["pairing"]),
            tuple(int(e) for e in doc["exceptions"]),
        )


@dataclass(frozen=True)
class DecompositionResult:
    """Four involutions covering a function's graph, plus the bookkeeping.

    uncovered_edges lists in-window edges of the original function no
    part covers. The constructor covers every orbit in place, so it
    always returns this empty without rescanning its own parts. The
    field stays because the report schema carries it (the "uncovered"
    key and the batch rows' count), and verify_decomposition recomputes
    coverage on its own and rejects any claimed edge. case classifies
    the input only: 2 when the count of odd cycles is odd and no path is
    present, 1 otherwise.
    """

    parts: tuple[Involution, Involution, Involution, Involution]
    uncovered_edges: tuple[tuple[int, int], ...]
    case: int

    def to_json(self) -> dict:
        return {
            "parts": [p.to_json() for p in self.parts],
            "uncovered": [list(e) for e in self.uncovered_edges],
            "case": self.case,
        }


def _canonical_pairing(
    pairs: Sequence[tuple[int, int]], window: int
) -> Involution:
    """Extend explicit pairs to the window: leftovers pair consecutively.

    Leftover points are sorted ascending and paired in order; an odd
    count leaves the last one as the single exception.
    """
    pairing = [-1] * window
    for x, y in pairs:
        if pairing[x] != -1 or pairing[y] != -1:
            raise ValueError(f"point reused by pair ({x}, {y})")
        pairing[x] = y
        pairing[y] = x
    leftovers = [x for x in range(window) if pairing[x] == -1]
    exceptions = []
    for i in range(0, len(leftovers) - 1, 2):
        a, b = leftovers[i], leftovers[i + 1]
        pairing[a] = b
        pairing[b] = a
    if len(leftovers) % 2:
        last = leftovers[-1]
        pairing[last] = last
        exceptions.append(last)
    return Involution(window, tuple(pairing), tuple(exceptions))


def _orbit_pairs(
    orbit: Orbit,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Distribute one orbit's edges over the first three parts."""
    a = orbit.nodes
    s = len(a)
    p0: list[tuple[int, int]] = []
    p1: list[tuple[int, int]] = []
    p2: list[tuple[int, int]] = []
    if orbit.kind == "path":
        for t in range(0, s - 1, 2):
            p0.append((a[t], a[t + 1]))
        for t in range(1, s - 1, 4):
            p1.append((a[t], a[t + 1]))
        for t in range(3, s - 1, 4):
            p2.append((a[t], a[t + 1]))
    elif s % 2 == 0:
        for t in range(0, s - 1, 2):
            p0.append((a[t], a[t + 1]))
        for t in range(1, s, 2):
            p1.append((a[t], a[(t + 1) % s]))
    else:
        k = s - 1
        for t in range(0, k - 1, 2):
            p0.append((a[t], a[t + 1]))
        for t in range(1, k, 2):
            p1.append((a[t], a[t + 1]))
        p2.append((a[0], a[k]))
    return p0, p1, p2


def decompose_into_involutions(fn: FiniteFunction) -> DecompositionResult:
    """Cover the function's in-window edges with four involutions.

    Orbits are covered independently: two parts for even cycles, three
    for paths and odd cycles, the fourth kept for the leftover pairing
    slack.
    """
    if not fn.injective_on_window:
        raise ValueError("decomposition needs an injective function")
    dec = orbit_decomposition(fn)
    odd_cycles = sum(len(o.nodes) % 2 for o in dec.cycles)
    case = 2 if odd_cycles % 2 and not dec.paths else 1
    pair_lists: tuple[list[tuple[int, int]], ...] = ([], [], [], [])
    for orbit in dec.orbits:
        p0, p1, p2 = _orbit_pairs(orbit)
        pair_lists[0].extend(p0)
        pair_lists[1].extend(p1)
        pair_lists[2].extend(p2)
    parts = tuple(_canonical_pairing(pl, fn.window) for pl in pair_lists)
    return DecompositionResult(parts, (), case)


def verify_decomposition(
    fn: FiniteFunction, result: DecompositionResult
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Re-check coverage from scratch; returns (ok, unexplained edges).

    Every in-window edge must be covered by some part, and the result
    must claim no uncovered edge. The unexplained edges are the ones no
    part covers together with any falsely claimed ones. The parts
    themselves are revalidated: window match and at most one exception
    each.
    """
    for p in result.parts:
        if p.window != fn.window:
            return False, tuple(fn.in_window_edges())
        if len(p.exceptions) > 1:
            return False, tuple(fn.in_window_edges())
    uncovered = {
        (x, y)
        for x, y in fn.in_window_edges()
        if not any(p.pairing[x] == y for p in result.parts)
    }
    unexplained = tuple(sorted(uncovered.union(result.uncovered_edges)))
    return not unexplained, unexplained


def patch_fixed_point(h: Involution, m: int) -> FiniteFunction:
    """Remove an involution's single unpaired point by a 3-cycle reroute.

    With n0 the unique exception, m now maps to n0 and n0 takes over m's
    old partner, so exactly the values at m and n0 change and the result
    is a fixed-point-free bijection of the window.
    """
    if len(h.exceptions) != 1:
        raise ValueError("need exactly one unpaired point")
    n0 = h.exceptions[0]
    if m == n0 or m < 0 or m >= h.window:
        raise ValueError("m must be a window point other than the unpaired one")
    vals = list(h.pairing)
    vals[n0] = h.pairing[m]
    vals[m] = n0
    out = FiniteFunction(tuple(vals))
    assert out.injective_on_window
    return out


def combine_on_blocks(
    parts: Sequence[Involution],
    blocks: IntervalPartition,
    colors: Sequence[int],
) -> tuple[Subset, Involution]:
    """Patch four involutions together blockwise and complete canonically.

    Each block is assigned one part by colors; D collects the points the
    assigned part pairs without leaving the block. D is closed under the
    assigned pairings, so those pairs transfer to the combined involution
    verbatim; everything outside D is paired by the canonical leftover
    rule. Odd block sizes are required: they keep the complement of D
    nonempty in every block, which is what makes the completion safe at
    any window size.
    """
    if len(parts) != 4:
        raise ValueError("need exactly four parts")
    window = parts[0].window
    for p in parts:
        if p.window != window:
            raise ValueError("parts disagree on the window")
    if blocks.endpoints[-1] > window:
        raise ValueError("blocks extend past the window")
    if len(colors) != blocks.block_count:
        raise ValueError("one color per block required")
    for lo, hi in blocks.blocks():
        if (hi - lo) % 2 == 0:
            raise ValueError(f"block [{lo}, {hi}) has even size")
    pairs = set()
    chosen: list[int] = []
    for idx, (lo, hi) in enumerate(blocks.blocks()):
        c = colors[idx]
        if c not in (0, 1, 2, 3):
            raise ValueError(f"color {c} is not a part index")
        part = parts[c]
        exc = set(part.exceptions)
        for x in range(lo, hi):
            y = part.pairing[x]
            if x not in exc and lo <= y < hi:
                chosen.append(x)
                if x < y:
                    pairs.add((x, y))
    combined = _canonical_pairing(sorted(pairs), window)
    return Subset.of(window, chosen), combined
