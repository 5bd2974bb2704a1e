"""Interval partitions, escape intervals, and partition-derived functions.

The constructions here turn partition data into fixed-point-free
functions and back: a partition of the window into parts induces the
function sending each point to its part index, a function induces the
escape intervals that outrun both it and its preimages, and a set A
localizes a function to the blocks A cuts out. Escape intervals are the
workhorse: any set meeting every union of two consecutive blocks at most
once is free for the function the intervals were built from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from .funcgraph import FiniteFunction, Record, Subset, json_fields, json_int, json_ints


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


class PartitionIntoParts(Record):
    """A labeling of the window into finitely many nonempty parts."""

    __slots__ = ("window", "part_of")
    window: int
    part_of: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.part_of)
        object.__setattr__(self, "part_of", labels)
        if len(labels) != self.window or not labels:
            raise ValueError("labeling length must match a positive window")
        if min(labels) < 0:
            raise ValueError("part indices must be nonnegative")
        # labels in [0, max] use every index exactly when max + 1 are distinct
        if len(set(labels)) != max(labels) + 1:
            raise ValueError("every part index up to the maximum must be used")

    @classmethod
    def from_json(cls, doc: dict) -> "PartitionIntoParts":
        shape = 'a partition must be a JSON object {"n": N, "parts": [...]}'
        n, parts = json_fields(doc, shape, "n", "parts")
        return cls(json_int(n, "n"), json_ints(parts, "parts"))


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
    for k, p in enumerate(partition.part_of):
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
) -> tuple[tuple[int, int, int], ...]:
    """Direct check of the escape property, independent of the recurrence.

    For every endpoint pair (h_i, h_{i+1}) with h_{i+1} strictly inside
    the window: points up to h_i must map below h_{i+1}, and points
    mapping to or below h_i must sit below h_{i+1}. Violations are
    reported as (block index, point, its image), ordered by block, then
    forward before backward, then point. The final endpoint is exempt
    when it reaches the window edge, where truncation cuts the
    recurrence short.

    The tightest pair a point z must respect is the first i with z <= h_i,
    so bound[z] = h_{i+1} is filled block by block with slice assignment.
    Each point x then makes two checks, f(x) < bound[x] and, for an
    in-window image, x < bound[f(x)]; only a failing point walks its
    further violated pairs. O(N + blocks + violations).
    """
    n = fn.window
    vals = fn.values
    ends = partition.endpoints
    # pairs 0 .. checked - 1 are the ones whose h_{i+1} lies inside the window
    checked = bisect_left(ends, n) - 1
    bound = [max(n, max(vals) + 1)] * n
    lo = 0
    for i in range(checked):
        bound[lo : ends[i] + 1] = [ends[i + 1]] * (ends[i] + 1 - lo)
        lo = ends[i] + 1
    bad = []
    for x, y in enumerate(vals):
        if y >= bound[x]:
            # forward: x <= h_i forces f(x) < h_{i+1}
            i = bisect_left(ends, x)
            while i < checked and y >= ends[i + 1]:
                bad.append((i, 0, x, y))
                i += 1
        if y < n and x >= bound[y]:
            # backward: f(x) <= h_i forces x < h_{i+1}
            i = bisect_left(ends, y)
            while i < checked and x >= ends[i + 1]:
                bad.append((i, 1, x, y))
                i += 1
    bad.sort()
    return tuple((i, x, y) for i, _, x, y in bad)


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
