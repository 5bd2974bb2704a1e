"""Covering a fixed-point-free injection by four involutions.

Every fixed-point-free injective function on a window can have its graph
covered by four fixed-point-free involutions, each orbit on its own.
The paths and then the cycles are walked from the starts that
funcgraph._walk_state marks, and edge t of a walk, from its t-th node
to the next, goes straight into one part:

* a path sends even t to part 0, t = 1 mod 4 to part 1 and t = 3 mod 4
  to part 2, so no two edges of one part share a node;
* a cycle sends even t to part 0 and odd t to part 1, except that the
  closing edge of an odd cycle a_0 .. a_k, whose t = k is even, goes to
  part 2: that is the chord (a_0, a_k).

Orbits are disjoint, so the per-orbit pairs never collide and every
in-window edge is covered. Leftover points of parts 0 to 2 are paired
canonically, lowest first, with at most one exception when the window
is odd. No edge goes to part 3, so it is that canonical pairing of the
whole window: the window's consecutive pairing, which depends on the
window alone. _window builds and validates it once per window and
caches it, with the window's points, for the last four windows of up to
65,536 points, at about 48 bytes a point each; a larger window builds
them per call.

An involution is a window record of its pairing, and its exceptions,
the points it fixes, follow from that pairing. A partial pairing marks a
point not yet paired with None, so the leftover scans test identity and
never read an int. The case of the input has a closed form: an injection
with no path keeps every value in the window and so permutes it, its
cycle lengths sum to the window size, and the count of odd cycles is odd
exactly when the window is.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, Sequence

from .funcgraph import FiniteFunction, Record, Subset, WindowRecord, json_fields
from .funcgraph import _load_doc, _walk_state, json_ints

if TYPE_CHECKING:
    from .partitions import IntervalPartition


class Involution(WindowRecord):
    """A self-inverse pairing of a window, given by its pairing tuple.

    pairing[x] = y means x and y swap; the window is the pairing's length.
    The exceptions, the points it fixes, follow from the pairing, so they
    take no part in equality or the repr.
    """

    __slots__ = ("pairing", "exceptions")
    _fields = ("pairing",)
    _shape = (
        "an involution must be a JSON object "
        '{"n": N, "pairing": [...], "exceptions": [...]}'
    )
    pairing: tuple[int, ...]
    exceptions: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        pairing = self.pairing
        n = len(pairing)
        fixed = []
        for x, y in enumerate(pairing):
            if y == x:
                fixed.append(x)
            elif y < 0 or y >= n:
                raise ValueError(f"pairing value {y} outside the window")
            elif pairing[y] != x:
                raise ValueError(f"pairing is not self-inverse at {x}")
        object.__setattr__(self, "exceptions", tuple(fixed))

    def to_json(self) -> dict:
        return {**super().to_json(), "exceptions": list(self.exceptions)}

    @classmethod
    def from_json(cls, doc: dict) -> "Involution":
        """The pairing document, then exceptions: its fixed points in any order."""
        (exceptions,) = json_fields(doc, cls._shape, "exceptions")
        inv = super().from_json(doc)
        listed = sorted(json_ints(exceptions, "exceptions"))
        if len(set(listed)) != len(listed):
            raise ValueError("duplicate exception")
        for e in listed:
            if e < 0 or e >= inv.window:
                raise ValueError(f"exception {e} outside the window")
            if inv.pairing[e] != e:
                raise ValueError(f"exception {e} must map to itself")
        if len(listed) != len(inv.exceptions):
            missing = min(set(inv.exceptions).difference(listed))
            raise ValueError(f"{missing} is fixed but not listed as an exception")
        return inv


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
    leaves the last one fixed, the single exception. A caller that
    already knows the free points passes them ascending, and nothing is
    scanned.
    """
    if leftovers is None:
        leftovers = [x for x, y in enumerate(pairing) if y is None]
    for a, b in zip(leftovers[::2], leftovers[1::2]):
        pairing[a] = b
        pairing[b] = a
    if len(leftovers) % 2:
        pairing[leftovers[-1]] = leftovers[-1]
    return Involution(tuple(pairing))


# windows of up to this many points keep their points and consecutive
# pairing in _window's cache; larger ones build them per call
_CACHED_WINDOW_CAP = 1 << 16


@lru_cache(maxsize=4)
def _window(n: int) -> tuple[tuple[int, ...], Involution]:
    """The points of the window [0, n) and its consecutive pairing.

    The pairing swaps 0 with 1, 2 with 3 and so on, and fixes n - 1 when
    n is odd. It is built from slices of the points tuple, so it and
    every part that takes points from the tuple share their ints. The
    cache keeps at most maxsize windows, each of at most
    _CACHED_WINDOW_CAP points at about 48 bytes a point, so it holds at
    most about 12.6 MB. A caller that cycles through k windows needs
    maxsize >= k, since a smaller LRU misses every call.
    """
    points = tuple(range(n))
    even = n - n % 2
    pairing = list(points)
    pairing[0:even:2] = points[1:even:2]
    pairing[1:even:2] = points[0:even:2]
    return points, Involution(tuple(pairing))


def decompose_into_involutions(fn: FiniteFunction) -> DecompositionResult:
    """Cover the function's in-window edges with four involutions.

    One walk per orbit, from the starts _walk_state marks, writes edge t
    of the orbit straight into a part's pairing: paths by t mod 4 into
    parts 0, 1, 0, 2; cycles by the parity of t into parts 0 and 1, two
    edges a step, with an odd cycle's closing edge in part 2. The fourth
    part gets no edge: it is the window's consecutive pairing, 0 with 1,
    2 with 3 and so on, with n - 1 the exception when n is odd, built
    once per window and shared by every call at that window (_window
    caches the last four windows of up to 65,536 points, about 48 bytes
    a point each). Parts 0 to 2 then pair their leftovers. With no path,
    the walk has already named them: the two ends of each odd cycle are
    those of parts 0 and 1, and every other point is part 2's, read off
    the window's points.
    case comes from its closed form: 2 when the window is odd and every
    value lies inside it.
    """
    if not fn.injective_on_window:
        raise ValueError("decomposition needs an injective function")
    values = fn.values
    n = len(values)
    state = _walk_state(fn)
    pairings: list[list[int | None]] = [[None] * n for _ in range(3)]
    p0, p1, p2 = pairings
    path = (p0, p1, p0, p2)
    head = state.find(0)
    # an injection without a head keeps every value in the window
    permutes = head == -1
    while head != -1:
        x, y, t = head, values[head], 0
        while y < n:
            state[y] = 2
            p = path[t]
            p[x] = y
            p[y] = x
            x, y, t = y, values[y], (t + 1) & 3
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
    # __wrapped__ is _window's builder without its cache
    points, fourth = (_window if n <= _CACHED_WINDOW_CAP else _window.__wrapped__)(n)
    if permutes:
        # with no path, parts 0 and 1 leave free only a_k and a_0 of each
        # odd cycle a_0 .. a_k, and part 2 every other point, so no
        # leftovers need a scan
        free = bytearray(b"\1") * n
        for x in firsts + lasts:
            free[x] = 0
        lasts.sort()
        leftovers = list(compress(points, free))
        parts = (
            _complete(p0, lasts),
            _complete(p1, firsts),
            _complete(p2, leftovers),
            fourth,
        )
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
    not the point itself and pairs back, so it is chosen too. Each chosen
    point's pair is written into the combined involution as it is chosen,
    and everything outside D is paired by the canonical leftover rule. Odd
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
        for x in range(lo, hi):
            y = part.pairing[x]
            if y != x and lo <= y < hi:
                chosen.append(x)
                pairing[x] = y
    return Subset.of(window, chosen), _complete(pairing)


# === CLI handlers, named in cli._TABLE; those of --fn-only leaves are batch ops ===


def _run_inv_decompose(fn: FiniteFunction) -> dict:
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
    result = {"d": list(d.elements), "combined": combined.to_json()}
    # a point past the blocks is chosen by no part
    end = blocks.endpoints[-1]
    violations = [{"point": x, "reason": "membership"} for x in d.elements if x >= end]
    if combined.window != parts[0].window:
        # the pairings below are read at every point of the parts' window
        violations.append({"reason": "window"})
        return {"result": result, "violations": violations}
    members = set(d.elements)
    for idx, (lo, hi) in enumerate(blocks.blocks()):
        part = parts[colors[idx]]
        for x in range(lo, hi):
            y = part.pairing[x]
            should = y != x and lo <= y < hi
            if should != (x in members):
                violations.append({"point": x, "reason": "membership"})
            if should and combined.pairing[x] != y:
                violations.append({"point": x, "reason": "pairing"})
    # the rest pair consecutively, ascending, and an odd count's last is fixed
    rest = [x for x in range(parts[0].window) if x not in members]
    pairs = zip(rest[::2], rest[1::2] + rest[-1:])
    violations += [
        {"point": a, "reason": "completion"} for a, b in pairs if combined.pairing[a] != b
    ]
    return {"result": result, "violations": violations}
