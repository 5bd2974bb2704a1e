"""Free-set search and 3-partitions for fixed-point-free window functions.

A set A is free for f when no in-window edge (x, f(x)) has both endpoints
in A. Every fixed-point-free function admits a partition of its window
into three free classes: 2-color along the chains of the functional graph
and spend the third color only where an odd cycle closes. This module
builds that partition, searches for large free sets under whole families
of functions (by one take-or-skip search on small windows, greedily
above), and finds sets that a family of colorings cannot split. A
coloring is a window record of its colors.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .funcgraph import FiniteFunction, Subset, WindowRecord
from .funcgraph import _load_doc, _load_fn, image_overlap

# worst measured at the cap (random families, 8 triangles): 511 nodes, 0.2 ms
EXACT_WINDOW_CAP = 24


class Coloring(WindowRecord):
    """An assignment of a color in {0, 1, 2} to every point of a window."""

    __slots__ = ("colors",)
    _shape = 'a coloring must be a JSON object {"n": N, "colors": [...]}'
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not {0, 1, 2}.issuperset(self.colors):
            x = next(x for x, c in enumerate(self.colors) if c not in (0, 1, 2))
            raise ValueError(f"color {self.colors[x]} at {x} is not in {{0, 1, 2}}")

    def color_class(self, i: int) -> Subset:
        return Subset.of(
            self.window, (x for x, c in enumerate(self.colors) if c == i)
        )


def katetov_partition(fn: FiniteFunction) -> Coloring:
    """Partition the window into three classes, each free for fn.

    Chains are walked from the lowest uncolored point, alternating colors
    0 and 1 forward along the function. A walk stops by exiting the
    window, by closing a cycle, or by attaching to an already colored
    point. Attachment colors the chain backward from the attachment point
    so the contact edge stays bichromatic; a cycle whose closing edge
    comes back on its own color recolors the closing point with color 2.
    Color 2 is never spent anywhere else, so chains and even cycles use
    two colors only.
    """
    n = fn.window
    values = fn.values
    # -1 marks an uncolored point and -2 - i the point at position i of
    # the chain being walked
    colors = [-1] * n
    for start in range(n):
        if colors[start] != -1:
            continue
        chain = [start]
        colors[start] = -2
        nxt = values[start]
        while nxt < n and colors[nxt] == -1:
            colors[nxt] = -2 - len(chain)
            chain.append(nxt)
            nxt = values[nxt]
        if nxt < n and colors[nxt] >= 0:
            # walk backward so the chain end differs from the attach color
            c = 1 if colors[nxt] == 0 else 0
            for x in reversed(chain):
                colors[x] = c
                c = 1 - c
        else:
            # an exit, or a cycle back to position p = -2 - colors[nxt],
            # whose length len(chain) - p is read before the chain is colored
            odd_cycle = nxt < n and (len(chain) + colors[nxt]) % 2 == 1
            for i, x in enumerate(chain):
                colors[x] = i % 2
            if odd_cycle:
                # the closing edge is monochromatic, break it
                colors[chain[-1]] = 2
    return Coloring(colors)


def verify_coloring(
    coloring: Coloring, fn: FiniteFunction
) -> tuple[tuple[int, int], ...]:
    """Monochromatic in-window edges; empty exactly when all classes are free.

    Deliberately ignores how the coloring was produced: it rescans every
    edge from scratch.
    """
    if coloring.window != fn.window:
        raise ValueError("coloring window does not match function window")
    colors = coloring.colors
    n = len(colors)
    # (x, f(x)) is an in-window edge exactly when f(x) < n
    return tuple(
        (x, y) for x, y in enumerate(fn.values) if y < n and colors[x] == colors[y]
    )


def _family_adjacency(family: Sequence[FiniteFunction], window: int) -> list[int]:
    """Undirected adjacency bitmasks of the union edge graph on [0, window).

    Every function must cover the window; max_free_subset checks that.
    """
    adj = [0] * window
    for fn in family:
        for x in range(window):
            y = fn.values[x]
            if y < window:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def max_free_subset(
    family: Sequence[FiniteFunction], window: int, mode: str = "exact"
) -> Subset:
    """A subset of [0, window) free for every function in the family.

    Exact mode returns a maximum-cardinality free set, lexicographically
    smallest among the optima, and refuses windows above EXACT_WINDOW_CAP.
    It is one depth-first search over the union graph of the family's
    in-window edges. It takes the lowest undecided point before it skips
    it, so it meets the optima in lexicographic order, and keeps a set
    only when it is strictly larger than the best so far. A branch that
    can at most tie is dropped, and a point with at most one undecided
    neighbour is taken without a skip branch. Greedy mode scans the
    window in increasing order and keeps every point that does not close
    an edge with the points already kept; the result is maximal under
    inclusion but not necessarily maximum.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    for fn in family:
        if fn.window < window:
            raise ValueError("family function window smaller than search window")
    if mode == "greedy":
        rows = [fn.values for fn in family]
        chosen: list[int] = []
        chosen_set: set[int] = set()
        images: set[int] = set()
        for v in range(window):
            if v in images:
                continue
            for values in rows:
                if values[v] in chosen_set:
                    break
            else:
                chosen.append(v)
                chosen_set.add(v)
                for values in rows:
                    images.add(values[v])
        return Subset(window, tuple(chosen))
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if window > EXACT_WINDOW_CAP:
        raise ValueError(f"exact mode capped at window {EXACT_WINDOW_CAP}")
    adj = _family_adjacency(family, window)
    best: tuple[int, ...] = ()

    def extend(chosen: tuple[int, ...], avail: int) -> None:
        # avail: the undecided points, all above chosen[-1], none adjacent to chosen
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        # a branch that can at most tie comes later in lexicographic order
        while len(chosen) + avail.bit_count() > len(best):
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            extend(chosen + (v,), avail & ~adj[v])
            if (avail & adj[v]).bit_count() <= 1:
                # trading v's one undecided neighbour for v keeps the size
                # and comes first, so skipping v finds nothing better
                break

    extend((), (1 << window) - 1)
    return Subset(window, best)


def is_maximal_free(
    subset: Subset, family: Sequence[FiniteFunction], window: int
) -> bool:
    """True when the set is free and no point of the window can join it.

    One scan over each function's in-window edges (x, f(x)): an edge
    inside the set means it is not free, and an edge with one end in the
    set blocks the other end. The set is maximal exactly when every point
    of the window is in it or blocked. O(window * |family|).
    """
    if subset.window != window:
        raise ValueError("subset window does not match search window")
    for fn in family:
        if fn.window < window:
            raise ValueError("family function window smaller than search window")
    member = [False] * window
    for x in subset.elements:
        member[x] = True
    covered = member.copy()
    for fn in family:
        for x, y in zip(range(window), fn.values):
            if y >= window:
                continue
            if member[x]:
                if member[y]:
                    return False
                covered[y] = True
            elif member[y]:
                covered[x] = True
    return all(covered)


def find_unsplit_set(
    colorings: Sequence[Coloring], min_size: int
) -> Optional[tuple[Subset, tuple[int, ...]]]:
    """Largest set monochromatic under every coloring, with its color choices.

    Points sharing the same color signature across all colorings are
    exactly the sets no coloring can split, so the largest signature
    bucket is the answer, found in O(window * colorings). Returns the set
    and the per-coloring color vector, or None when every bucket is
    smaller than min_size. Ties on size break to the lexicographically
    smallest element list.
    """
    if not colorings:
        raise ValueError("need at least one coloring")
    window = colorings[0].window
    for c in colorings:
        if c.window != window:
            raise ValueError("colorings disagree on the window")
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x in range(window):
        sig = tuple(c.colors[x] for c in colorings)
        buckets.setdefault(sig, []).append(x)
    # buckets are disjoint and nonempty, so no two tie on their members
    best_sig, best_members = min(buckets.items(), key=lambda b: (-len(b[1]), b[1]))
    if len(best_members) < min_size:
        return None
    return Subset(window, tuple(best_members)), best_sig


def verify_unsplit(
    colorings: Sequence[Coloring],
    min_size: int,
    found: Optional[tuple[Subset, tuple[int, ...]]],
) -> list[dict]:
    """Check a claimed largest unsplit set, or the claim that there is none.

    A set with color vector c must hold exactly the points that coloring
    j colors c[j] for every j. No vector may hold more points, none as
    many under a lexicographically smaller member list, and the set may
    not be smaller than min_size. None is right only when every vector
    holds fewer than min_size points.
    """
    vectors = list(zip(*(c.colors for c in colorings)))
    counts = Counter(vectors)
    largest = max(counts.values())
    # vectors hold disjoint point lists, so among the largest the one
    # whose first point comes first has the smallest list
    best = next(v for v in vectors if counts[v] == largest)
    if found is None:
        if largest < min_size:
            return []
        return [{"choice": list(best), "reason": "meets --min-size"}]
    subset, choice = found
    if len(choice) != len(colorings) or subset.window != len(vectors):
        # the checks below read one color per coloring at every member
        return [{"choice": list(choice), "window": subset.window, "reason": "shape"}]
    violations: list[dict] = [
        {"coloring": j, "point": x}
        for j, coloring in enumerate(colorings)
        for x in subset.elements
        if coloring.colors[x] != choice[j]
    ]
    members = set(subset.elements)
    violations += [
        {"point": x, "reason": "has the chosen colors"}
        for x, v in enumerate(vectors)
        if v == choice and x not in members
    ]
    best_members = [x for x, v in enumerate(vectors) if v == best]
    if (-largest, best_members) < (-len(members), list(subset.elements)):
        violations.append({"choice": list(best), "reason": "outranks the set"})
    if len(members) < min_size:
        violations.append({"size": len(members), "reason": "below --min-size"})
    return violations


# === CLI handlers, named in cli._TABLE; those of --fn-only leaves are batch ops ===


def _run_katetov(fn: FiniteFunction) -> dict:
    coloring = katetov_partition(fn)
    result = coloring.to_json()
    # the color classes in one pass, each ascending as color_class gives it
    classes = [[], [], []]
    for x, c in enumerate(coloring.colors):
        classes[c].append(x)
    result["classes"] = classes
    if coloring.window != fn.window:
        # verify_coloring reads a color at both ends of every edge of f
        return {"result": result, "violations": [{"reason": "window"}]}
    bad = verify_coloring(coloring, fn)
    return {"result": result, "violations": [list(e) for e in bad]}


def _run_oracle_freeset(args) -> dict:
    family = [_load_fn(t) for t in args.fn]
    subset = max_free_subset(family, args.n, args.mode)
    result = {"set": list(subset.elements), "size": len(subset.elements)}
    if subset.window != args.n:
        # both checks below read the set as a subset of the search window
        return {"result": result, "violations": [{"reason": "window"}]}
    violations = []
    for i, fn in enumerate(family):
        hit = image_overlap(subset, fn).elements
        if hit:
            violations.append({"function": i, "intersection": list(hit)})
    # a set that is not free is never maximal free: its hits say why
    if not violations and not is_maximal_free(subset, family, args.n):
        violations.append({"reason": "not maximal under inclusion"})
    return {"result": result, "violations": violations}


def _run_oracle_unsplit(args) -> dict:
    if args.min_size < 0:
        raise ValueError(f"--min-size is {args.min_size}, must be at least 0")
    colorings = [Coloring.from_json(_load_doc(t)) for t in args.coloring]
    found = find_unsplit_set(colorings, args.min_size)
    violations = verify_unsplit(colorings, args.min_size, found)
    if found is None:
        return {"result": {"set": None}, "violations": violations}
    subset, choice = found
    result = {"set": list(subset.elements), "choice": list(choice)}
    return {"result": result, "violations": violations}
