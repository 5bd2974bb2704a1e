"""Covering a fixed-point-free injection by four involutions.

Every fixed-point-free injective function on a window can have its graph
covered by four fixed-point-free involutions, each orbit on its own.
Each path is walked from its head (the point with no in-window
preimage), then each cycle from its least node, and edge t of the walk,
from its t-th node to the next, goes straight into one part:

* a path sends even t to part 0, t = 1 mod 4 to part 1 and t = 3 mod 4
  to part 2, so no two edges of one part share a node;
* a cycle sends even t to part 0 and odd t to part 1, except that the
  closing edge of an odd cycle a_0 .. a_k, whose t = k is even, goes to
  part 2: that is the chord (a_0, a_k).

Orbits are disjoint, so the per-orbit pairs never collide and every
in-window edge is covered. Leftover points of parts 0 to 2 are paired
canonically, lowest first, with at most one exception when the window
is odd. No edge goes to part 3, so it is that canonical pairing of the
whole window, built directly.

A partial pairing marks a point not yet paired with None, so the
leftover scans test identity and never read an int. The case of the
input has a closed form: an injection with no path keeps every value in
the window and so permutes it, its cycle lengths sum to the window
size, and the count of odd cycles is odd exactly when the window is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .funcgraph import FiniteFunction, Record, Subset, json_fields, json_int, json_ints
from .funcgraph import _load_doc, _load_fn, random_fpf_function

if TYPE_CHECKING:
    from .partitions import IntervalPartition


class Involution(Record):
    """A self-inverse pairing of a window with explicit unpaired points.

    pairing[x] = y means x and y swap; points in exceptions map to
    themselves and are the only ones allowed to.
    """

    __slots__ = ("window", "pairing", "exceptions")
    window: int
    pairing: tuple[int, ...]
    exceptions: tuple[int, ...]

    def __post_init__(self) -> None:
        pairing = tuple(self.pairing)
        exceptions = tuple(sorted(self.exceptions))
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "exceptions", exceptions)
        n = self.window
        if len(pairing) != n or n <= 0:
            raise ValueError("pairing length must match a positive window")
        exc = set(exceptions)
        if len(exc) != len(exceptions):
            raise ValueError("duplicate exception")
        # with every exception a fixed point in the window, a point is
        # valid exactly when it swaps with its partner or is an exception
        if all(0 <= e < n and pairing[e] == e for e in exceptions):
            for x, y in enumerate(pairing):
                if not (0 <= y < n and y != x and pairing[y] == x or y == x and x in exc):
                    break
            else:
                return
        # something fails: name the first failing point, or else the
        # first exception outside the window
        for x, y in enumerate(pairing):
            if y < 0 or y >= n:
                raise ValueError(f"pairing value {y} outside the window")
            if x in exc:
                if y != x:
                    raise ValueError(f"exception {x} must map to itself")
            else:
                if y == x:
                    raise ValueError(f"{x} is fixed but not listed as an exception")
                if pairing[y] != x:
                    raise ValueError(f"pairing is not self-inverse at {x}")
        for e in exceptions:
            if e < 0 or e >= n:
                raise ValueError(f"exception {e} outside the window")

    def to_json(self) -> dict:
        return {
            "n": self.window,
            "pairing": list(self.pairing),
            "exceptions": list(self.exceptions),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Involution":
        shape = (
            "an involution must be a JSON object "
            '{"n": N, "pairing": [...], "exceptions": [...]}'
        )
        n, pairing, exceptions = json_fields(doc, shape, "n", "pairing", "exceptions")
        return cls(
            json_int(n, "n"),
            json_ints(pairing, "pairing"),
            json_ints(exceptions, "exceptions"),
        )


class DecompositionResult(Record):
    """Four involutions covering a function's graph, plus the bookkeeping.

    uncovered_edges lists in-window edges of the original function no
    part covers. The constructor covers every orbit in place, so it
    always returns this empty without rescanning its own parts. The
    field stays because the report schema carries it (the "uncovered"
    key and the batch rows' count), and verify_decomposition recomputes
    coverage on its own and rejects any claimed edge. case classifies
    the input only: 2 when the count of odd cycles is odd and no path is
    present, 1 otherwise. For an injection that is 2 exactly when the
    window is odd and every value lies inside it.
    """

    __slots__ = ("parts", "uncovered_edges", "case")
    parts: tuple[Involution, Involution, Involution, Involution]
    uncovered_edges: tuple[tuple[int, int], ...]
    case: int

    def to_json(self) -> dict:
        return {
            "parts": [p.to_json() for p in self.parts],
            "uncovered": [list(e) for e in self.uncovered_edges],
            "case": self.case,
        }


def _complete(
    pairing: list[int | None], leftovers: list[int] | None = None
) -> Involution:
    """Pair the points a partial pairing leaves free, consecutively.

    Free points are taken ascending and paired in order; an odd count
    leaves the last one as the single exception. A caller that already
    knows the free points passes them ascending, and nothing is scanned.
    """
    if leftovers is None:
        leftovers = [x for x, y in enumerate(pairing) if y is None]
    for a, b in zip(leftovers[::2], leftovers[1::2]):
        pairing[a] = b
        pairing[b] = a
    exceptions = ()
    if len(leftovers) % 2:
        last = leftovers[-1]
        pairing[last] = last
        exceptions = (last,)
    return Involution(len(pairing), tuple(pairing), exceptions)


def _walk(
    values: tuple[int, ...],
    state: bytearray,
    parts: Sequence[list[int | None]],
    x: int,
) -> None:
    """Pair edge t of the path from head x in parts[t % 4], marking nodes walked.

    Stops when the next node leaves the window.
    """
    n = len(values)
    y, t = values[x], 0
    while y < n:
        state[y] = 2
        p = parts[t]
        p[x] = y
        p[y] = x
        x, y, t = y, values[y], (t + 1) & 3


def decompose_into_involutions(fn: FiniteFunction) -> DecompositionResult:
    """Cover the function's in-window edges with four involutions.

    One walk per orbit, paths from their heads and then cycles from
    their least node, writes edge t of the orbit straight into a part's
    pairing: paths by t mod 4 into parts 0, 1, 0, 2; cycles by the
    parity of t into parts 0 and 1, two edges a step, with an odd
    cycle's closing edge in part 2. The ascending scan reaches every
    cycle first at its least node. The fourth part gets no edge: it
    pairs the window consecutively, 0 with 1, 2 with 3 and so on, with
    n - 1 the exception when n is odd. Parts 0 to 2 then pair their
    leftovers; with no path, the walk has already listed those of parts
    0 and 1, the two ends of each odd cycle. case comes from its closed
    form: 2 when the window is odd and every value lies inside it.
    """
    if not fn.injective_on_window:
        raise ValueError("decomposition needs an injective function")
    values = fn.values
    n = len(values)
    permutes = max(values) < n
    # 0: no in-window preimage (a path head); 1: not walked yet; 2: walked.
    # An injection that keeps every value in the window has no head.
    if permutes:
        state = bytearray(b"\x01") * n
    else:
        state = bytearray(n)
        for y in values:
            if y < n:
                state[y] = 1
    pairings: list[list[int | None]] = [[None] * n for _ in range(3)]
    p0, p1, p2 = pairings
    head = state.find(0)
    while head != -1:
        _walk(values, state, (p0, p1, p0, p2), head)
        head = state.find(0, head + 1)
    firsts: list[int] = []
    lasts: list[int] = []
    start = state.find(1)
    while start != -1:
        # a cycle never leaves the window: pair its edges two at a time
        # until the closing edge back to start, which has odd t on an
        # even cycle and even t on an odd one a_0 .. a_k, where it is the
        # chord (a_0, a_k)
        state[start] = 2
        x = start
        while True:
            y = values[x]
            if y == start:
                p2[x] = start
                p2[start] = x
                firsts.append(start)
                lasts.append(x)
                break
            state[y] = 2
            p0[x] = y
            p0[y] = x
            x = values[y]
            if x == start:
                p1[y] = start
                p1[start] = y
                break
            state[x] = 2
            p1[y] = x
            p1[x] = y
        start = state.find(1, start + 1)
    case = 2 if n % 2 and permutes else 1
    even = n - n % 2
    p3 = list(range(n))
    p3[0:even:2] = range(1, even, 2)
    p3[1:even:2] = range(0, even, 2)
    fourth = Involution(n, tuple(p3), (n - 1,) if n % 2 else ())
    if permutes:
        # with no path, parts 0 and 1 leave free only a_k and a_0 of each
        # odd cycle a_0 .. a_k, so their leftovers need no scan
        lasts.sort()
        parts = (_complete(p0, lasts), _complete(p1, firsts), _complete(p2), fourth)
    else:
        parts = (*map(_complete, pairings), fourth)
    return DecompositionResult(parts, (), case)


def verify_decomposition(
    fn: FiniteFunction, result: DecompositionResult
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Re-check coverage from scratch; returns (ok, unexplained edges).

    Every in-window edge must be covered by some part, and the result
    must claim no uncovered edge. The unexplained edges are the ones no
    part covers together with any falsely claimed ones. The parts
    themselves are revalidated: exactly four, window match and at most
    one exception each. The case must be the one the input has: the
    function must be injective, and case is 2 exactly when the window is
    odd and every value lies inside it. A malformed result or a wrong
    case explains no edge. Coverage is one pass over each point, its
    value and its partner in the first part; only the points whose edge
    that part misses look up their partners in the other three.
    """
    values = fn.values
    n = len(values)
    case = 2 if n % 2 and max(values) < n else 1
    if (
        len(result.parts) != 4
        or any(p.window != n or len(p.exceptions) > 1 for p in result.parts)
        or not fn.injective_on_window
        or result.case != case
    ):
        return False, tuple(fn.in_window_edges())
    p0, p1, p2, p3 = (p.pairing for p in result.parts)
    uncovered = {
        (x, y)
        for x, y, a in zip(range(n), values, p0)
        if y != a and y != p1[x] and y != p2[x] and y != p3[x] and y < n
    }
    unexplained = tuple(sorted(uncovered.union(result.uncovered_edges)))
    return not unexplained, unexplained


def combine_on_blocks(
    parts: Sequence[Involution],
    blocks: IntervalPartition,
    colors: Sequence[int],
) -> tuple[Subset, Involution]:
    """Patch four involutions together blockwise and complete canonically.

    Each block is assigned one part by colors; D collects the points the
    assigned part pairs without leaving the block. D is closed under the
    assigned pairings: a chosen point's partner lies in the same block, is
    no exception and pairs back, so it is chosen too. Each chosen point's
    pair is written into the combined involution as it is chosen, and
    everything outside D is paired by the canonical leftover rule. Odd
    block sizes are required: they keep the complement of D nonempty in
    every block, which is what makes the completion safe at any window
    size.
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
    pairing: list[int | None] = [None] * window
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
                pairing[x] = y
    return Subset.of(window, chosen), _complete(pairing)


# === CLI handlers and batch row, named in cli._TABLE and cli._BATCH_ROWS ===


def _run_inv_decompose(args) -> dict:
    fn = _load_fn(args.fn)
    res = decompose_into_involutions(fn)
    ok, unexplained = verify_decomposition(fn, res)
    violations = [list(e) for e in unexplained]
    if not ok and not violations:
        # a malformed cover of a function with no in-window edge
        violations.append({"reason": "verifier rejects the cover"})
    return {"result": res.to_json(), "violations": violations}


def _run_inv_combine(args) -> dict:
    # imported here, so `involutions decompose` does not load partitions
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


def _decompose_row(seed: int, n: int) -> dict:
    fn = random_fpf_function(seed, n, injective=True)
    res = decompose_into_involutions(fn)
    ok, _ = verify_decomposition(fn, res)
    return {"ok": ok, "case": res.case, "uncovered": len(res.uncovered_edges)}
