"""Interval partitions, escape intervals, and partition-derived functions.

The constructions here turn partition data into fixed-point-free
functions and back: a partition of the window into parts induces the
function sending each point to its part index, a function induces the
escape intervals that outrun both it and its preimages, and a set A
localizes a function to the blocks A cuts out. Escape intervals are the
workhorse: any set meeting every union of two consecutive blocks at most
once is free for the function the intervals were built from. A
partition into parts is a window record of its part labels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, zip_longest
from typing import Optional

from .funcgraph import FiniteFunction, Record, Subset, WindowRecord, json_fields
from .funcgraph import _load_doc, _load_fn, _load_set, json_ints


class IntervalPartition(Record):
    """Consecutive blocks [e_i, e_{i+1}) given by increasing endpoints from 0."""

    __slots__ = ("endpoints",)
    endpoints: tuple[int, ...]

    def __post_init__(self) -> None:
        ends = tuple(self.endpoints)
        object.__setattr__(self, "endpoints", ends)
        if len(ends) < 2:
            raise ValueError("need at least one block")
        if ends[0] != 0:
            raise ValueError("first endpoint must be 0")
        for a, b in zip(ends, ends[1:]):
            if b <= a:
                raise ValueError("endpoints must be strictly increasing")

    @property
    def block_count(self) -> int:
        return len(self.endpoints) - 1

    def blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.endpoints, self.endpoints[1:]))

    def to_json(self) -> dict:
        return {"endpoints": list(self.endpoints)}

    @classmethod
    def from_json(cls, doc: dict) -> "IntervalPartition":
        shape = 'an interval partition must be a JSON object {"endpoints": [...]}'
        (endpoints,) = json_fields(doc, shape, "endpoints")
        return cls(json_ints(endpoints, "endpoints"))


class PartitionIntoParts(WindowRecord):
    """A labeling of the window into finitely many nonempty parts."""

    __slots__ = ("parts",)
    _shape = 'a partition must be a JSON object {"n": N, "parts": [...]}'
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        labels = self.parts
        if min(labels) < 0:
            raise ValueError("part indices must be nonnegative")
        # labels in [0, max] use every index exactly when max + 1 are distinct
        if len(set(labels)) != max(labels) + 1:
            raise ValueError("every part index up to the maximum must be used")


def dominates(
    outer: IntervalPartition, inner: IntervalPartition, window: int
) -> tuple[int, Optional[int]]:
    """Count outer blocks inside the window holding no complete inner block.

    Both partitions must cover [0, window). Returns the violation count
    and the index of the last violating outer block, None when all outer
    blocks are satisfied.
    """
    if window < 0:
        raise ValueError(f"window is {window}, must be at least 0")
    if outer.endpoints[-1] < window or inner.endpoints[-1] < window:
        raise ValueError("both partitions must cover the window")
    violations = 0
    last = None
    ends = inner.endpoints
    for idx, (lo, hi) in enumerate(outer.blocks()):
        if hi > window:
            break
        # first inner endpoint at or past lo starts the candidate block
        p = bisect_left(ends, lo)
        if p + 1 >= len(ends) or ends[p + 1] > hi:
            violations += 1
            last = idx
    return violations, last


def partition_function(partition: PartitionIntoParts) -> FiniteFunction:
    """Send each point to its part index, or to its successor on a clash.

    A point equal to its own part index cannot map there (no fixed
    points), so it falls through to the successor.
    """
    vals = []
    for k, p in enumerate(partition.parts):
        vals.append(p if p != k else k + 1)
    return FiniteFunction(tuple(vals))


def escape_intervals(fn: FiniteFunction) -> IntervalPartition:
    """Blocks growing fast enough to outrun fn in both directions.

    h(0) = 0 and each next endpoint clears the images and preimages of
    everything up to the current one: h(n+1) = 1 + max over f[0..h(n)],
    f^{-1}[0..h(n)] and h(n) itself, truncated at the window edge. The
    recurrence is minimal, so the blocks are the shortest ones with the
    escape property.

    One pass fills the in-window preimage pre[y]; a second keeps the
    running maximum reach(h) = max(h, f[0..h], pre[0..h]) and reads each
    endpoint h(n+1) = min(reach(h(n)) + 1, N) off it as h passes h(n).
    O(N) in all, with no rescan per block.
    """
    if not fn.injective_on_window:
        raise ValueError("escape intervals need an injective function")
    n = fn.window
    pre = [0] * n
    for x, y in enumerate(fn.values):
        if y < n:
            pre[y] = x
    ends = [0]
    # f[0..h] holds h + 1 distinct values, so the maximum is already >= h
    reach = 0
    for h, (y, x) in enumerate(zip(fn.values, pre)):
        if y > reach:
            reach = y
        if x > reach:
            reach = x
        if h == ends[-1]:
            if reach + 1 >= n:
                ends.append(n)
                break
            ends.append(reach + 1)
    return IntervalPartition(tuple(ends))


def verify_escape(
    partition: IntervalPartition, fn: FiniteFunction
) -> tuple[tuple[int, Optional[int], Optional[int]], ...]:
    """The first block that does not end where the escape recurrence puts it.

    With R_i the largest of h_i, f[0..h_i] and the points mapping into
    [0, h_i], each h_{i+1} must be min(N, R_i + 1), and the last endpoint
    N. Returns () when the partition is right, else ((i, h_{i+1},
    expected),) for the first block [h_i, h_{i+1}) that breaks this;
    h_{i+1} is None when the partition stops short of the window,
    expected None for a block starting at or past its end. While h_0 ..
    h_i are right, the points up to h_{i-1} reach below h_i, so R_i needs
    only the z with h_{i-1} < z <= h_i, the z whose first i with z <= h_i
    is i: each x raises its own such R to f(x), and the one of f(x) to x.
    Past the first wrong endpoint that argument fails, so later blocks are
    not reported. O(N + blocks), whatever the size of the images.
    """
    n = fn.window
    vals = fn.values
    ends = partition.endpoints
    # first[z], the first i with z <= h_i, counts the in-window endpoints
    # below z; an image past the window is past them all, in block inside
    inside = bisect_left(ends, n)
    marks = [0] * (n + 1)
    for h in ends[:inside]:
        marks[h + 1] = 1
    first = list(accumulate(marks))
    reach = [*ends[:inside], 0]
    for x, y in enumerate(vals):
        i = first[x]
        if y > reach[i]:
            reach[i] = y
        i = first[y] if y < n else inside
        if x > reach[i]:
            reach[i] = x
    # min(n, r + 1), spelled out: a call per block costs more than the check
    expected = [r + 1 if r < n else n for r in reach[:inside]]
    for i, (end, want) in enumerate(zip_longest(ends[1:], expected)):
        if end != want:
            return ((i, end, want),)
    return ()


def localized_function(g: FiniteFunction, subset: Subset) -> FiniteFunction:
    """Keep g where it stays inside one subset block, successor elsewhere.

    The blocks are [a_0, a_1), ..., [a_{m-2}, a_{m-1}) for the sorted
    elements a_i. Points outside every block take the successor branch
    too, so the output is always fixed-point-free.
    """
    if len(subset.elements) < 2:
        raise ValueError("need at least two elements to form a block")
    if subset.window > g.window:
        raise ValueError("subset window exceeds function window")
    a = subset.elements
    vals = []
    for i in range(g.window):
        j = bisect_right(a, i) - 1
        if 0 <= j < len(a) - 1 and a[j] <= g.values[i] < a[j + 1]:
            vals.append(g.values[i])
        else:
            vals.append(i + 1)
    return FiniteFunction(tuple(vals))


def verify_localization(
    g: FiniteFunction, subset: Subset, fn: FiniteFunction
) -> tuple[tuple[int, str], ...]:
    """Points where fn is not g localized to the blocks of the subset.

    A point whose g-image lies in its own block [a_j, a_{j+1}) must follow
    g; every other point must take its successor. Returns (point, reason)
    pairs in point order. A window other than g's is one pair, naming the
    first point inside one window and outside the other.
    """
    if fn.window != g.window:
        return ((min(fn.window, g.window), "window differs from g's"),)
    a = subset.elements
    bad = []
    for i, y in enumerate(g.values):
        j = bisect_right(a, i) - 1
        if 0 <= j < len(a) - 1 and a[j] <= y < a[j + 1]:
            if fn.values[i] != y:
                bad.append((i, "should follow g"))
        elif fn.values[i] != i + 1:
            bad.append((i, "should take successor"))
    return tuple(bad)


# === CLI handlers, named in cli._TABLE; those of --fn-only leaves are batch ops ===


def _run_part_fp(args) -> dict:
    partition = PartitionIntoParts.from_json(_load_doc(args.partition))
    fn = partition_function(partition)
    if fn.window != partition.window:
        # the check below reads f at every point of the partition's window
        return {"result": fn.to_json(), "violations": [{"reason": "window"}]}
    violations = []
    for k in range(partition.window):
        p = partition.parts[k]
        expected = p if p != k else k + 1
        if fn.values[k] != expected:
            violations.append({"point": k})
    return {"result": fn.to_json(), "violations": violations}


def _run_part_escape(fn: FiniteFunction) -> dict:
    partition = escape_intervals(fn)
    bad = verify_escape(partition, fn)
    return {
        "result": partition.to_json(),
        "violations": [{"block": b, "end": e, "expected": x} for b, e, x in bad],
    }


def _run_part_localize(args) -> dict:
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
    outer = IntervalPartition.from_json(_load_doc(args.i))
    inner = IntervalPartition.from_json(_load_doc(args.j))
    count, last = dominates(outer, inner, args.n)
    result = {"violations_count": count, "last_violating_block": last}
    violations = (
        [] if count == 0 else [{"count": count, "last_block": last}]
    )
    return {"result": result, "violations": violations}
