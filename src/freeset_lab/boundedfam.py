"""Block systems for bounded families: coded blocks, shadows, and measures.

Two block constructions live here. The coded system splits positions
into intervals I_n sized so fast that the number of g-bounded tuples on
all earlier intervals stays below |I_n|; each tuple on I_n is addressed
by a mixed-radix code inside an implicit block J_n of size
F(n) = prod of g over I_n. Coding a tuple h blockwise yields a set A
with one point per J_n, and the shadow sets S_f(n), the images and
preimages of earlier blocks inside J_n, certify every cross-block edge
of f inside A. The shadow bound |S_f(n)| < |I_n| leaves room to build a
meeting function that agrees somewhere on I_n with every shadow tuple.

The measured system grows blocks by |J_{n+1}| = 2(n+1) * (total so far)
with singleton mass 1 over that total, so each block weighs 2(n+1) while
the bad set a function drags into a block never weighs more than 2.
J-blocks here are small enough to materialize; the coded system's are
not (F(2) is already around 10^20 for g constant 2) and stay implicit.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .funcgraph import MAX_MATERIALIZED_POSITIONS, FiniteFunction, Record, Subset
from .funcgraph import _load_doc, _load_fn, _load_set, json_int, json_ints

# Python prints no int of more than 4300 decimal digits (about 14,284
# bits), so a size past this cap could be built but never reported.
MAX_REPORTED_BITS = 14_000


def _check_reportable(what: str, bits: int) -> None:
    if bits > MAX_REPORTED_BITS:
        raise ValueError(
            f"{what} is too large to report: {bits} bits against "
            f"a cap of {MAX_REPORTED_BITS}"
        )


class GrowthFunction(Record):
    """Nondecreasing per-position bounds, each at least 2."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("empty growth function")
        prev = 2
        for i, v in enumerate(vals):
            if v < 2:
                raise ValueError(f"bound {v} at {i} is below 2")
            if v < prev:
                raise ValueError("bounds must be nondecreasing")
            prev = v


def constant_growth(c: int, depth: int) -> GrowthFunction:
    """A constant growth function just long enough for the given depth."""
    if c < 2:
        raise ValueError("constant bound must be at least 2")
    if depth < 1:
        raise ValueError("depth must be positive")
    length = 0
    total = 0
    for n in range(depth):
        size = 2 * total + 1
        length += size
        if length > MAX_MATERIALIZED_POSITIONS:
            raise ValueError("interval prefix too large to materialize")
        _check_reportable(f"F({n})", size * (c - 1).bit_length())
        total += c**size
    return GrowthFunction((c,) * length)


class BlockSystem(Record):
    """Intervals I_n, their tuple counts F(n), and implicit coded blocks J_n.

    The J-blocks are only ever addressed as block index plus big-integer
    code; j_starts accumulates the F values so J_n = [j_starts[n],
    j_starts[n+1]). Nothing below materializes a J-block.
    """

    __slots__ = ("g", "depth", "i_endpoints", "f_sizes", "j_starts")
    g: GrowthFunction
    depth: int
    i_endpoints: tuple[int, ...]
    f_sizes: tuple[int, ...]
    j_starts: tuple[int, ...]

    def interval(self, n: int) -> tuple[int, int]:
        return self.i_endpoints[n], self.i_endpoints[n + 1]

    def encode(self, n: int, values: Sequence[int]) -> int:
        """Mixed-radix code of a tuple on I_n, lowest position least significant."""
        lo, hi = self.interval(n)
        if len(values) != hi - lo:
            raise ValueError("tuple length must match the interval")
        code = 0
        mult = 1
        for i, v in enumerate(values):
            bound = self.g.values[lo + i]
            if v < 0 or v >= bound:
                raise ValueError(f"value {v} breaks the bound {bound} at {lo + i}")
            code += v * mult
            mult *= bound
        return code

    def decode(self, n: int, code: int) -> tuple[int, ...]:
        lo, hi = self.interval(n)
        if code < 0 or code >= self.f_sizes[n]:
            raise ValueError(f"code {code} outside block {n}")
        out = []
        for i in range(lo, hi):
            code, digit = divmod(code, self.g.values[i])
            out.append(digit)
        return tuple(out)

    def code_point(self, n: int, values: Sequence[int]) -> int:
        """The element of J_n addressing this tuple."""
        return self.j_starts[n] + self.encode(n, values)

    def to_json(self) -> dict:
        return {
            "g": list(self.g.values),
            "depth": self.depth,
            "I_endpoints": list(self.i_endpoints),
            "F": [str(f) for f in self.f_sizes],
        }


def build_block_system(g: GrowthFunction, depth: int) -> BlockSystem:
    """Minimal intervals satisfying |I_n| > 2 * sum of earlier F values."""
    if depth < 1:
        raise ValueError("depth must be positive")
    i_ends = [0]
    f_sizes: list[int] = []
    total = 0
    for n in range(depth):
        size = 2 * total + 1
        lo, hi = i_ends[-1], i_ends[-1] + size
        if hi > len(g.values):
            raise ValueError(
                f"growth function covers {len(g.values)} positions, need {hi}"
            )
        # g <= 2 ** (g - 1).bit_length(), so this bounds F(n) before the product
        _check_reportable(
            f"F({n})", sum((v - 1).bit_length() for v in g.values[lo:hi])
        )
        f = 1
        for i in range(lo, hi):
            f *= g.values[i]
        f_sizes.append(f)
        total += f
        i_ends.append(hi)
    j_starts = [0]
    for f in f_sizes:
        j_starts.append(j_starts[-1] + f)
    return BlockSystem(g, depth, tuple(i_ends), tuple(f_sizes), tuple(j_starts))


class ShadowSet(Record):
    """Points of J_n reachable from earlier blocks in either direction."""

    __slots__ = ("elements", "size_bound", "capacity")
    elements: tuple[int, ...]
    size_bound: int
    capacity: int

    @property
    def within_bounds(self) -> bool:
        return len(self.elements) <= self.size_bound < self.capacity


def _shadow_elements(
    starts: Sequence[int], fn: FiniteFunction, n: int
) -> tuple[int, ...]:
    """S_f(n) over blocks [starts[m], starts[m + 1]): images and preimages
    of the prefix [0, starts[n]) inside block n, sorted."""
    if n < 0 or n >= len(starts) - 1:
        raise ValueError(f"block {n} out of range")
    lo, hi = starts[n], starts[n + 1]
    if fn.window < hi:
        raise ValueError("function window does not cover the coded prefix")
    if not fn.injective_on_window:
        raise ValueError("shadow sets need an injective function")
    elems = {v for v in fn.values[:lo] if lo <= v < hi}
    elems.update(x for x in range(lo, hi) if fn.values[x] < lo)
    return tuple(sorted(elems))


def shadow_set(system: BlockSystem, fn: FiniteFunction, n: int) -> ShadowSet:
    """S_f(n): images and preimages of the earlier J-prefix inside J_n.

    The record keeps the bound 2 * |earlier prefix| and the capacity |I_n|
    above it for the benchmark's `within_bounds`. No report prints them;
    `blocks verify` and criterion 4 recompute both from the block system.
    """
    elems = _shadow_elements(system.j_starts, fn, n)
    lo, hi = system.interval(n)
    return ShadowSet(elems, 2 * system.j_starts[n], hi - lo)


def verify_shadows(
    starts: Sequence[int],
    fn: FiniteFunction,
    sets: Sequence[ShadowSet | BadSetBlock],
) -> tuple[int, ...]:
    """Blocks whose set is not S_f(n) by its definition.

    Block n is [starts[n], starts[n + 1]): the coded blocks J_n of a
    block system, or the measured blocks, whose bad sets B_f(n) are the
    same sets. A set's position in the list is its block. S_f(n) holds
    the points of block n that an earlier point maps to and the points
    of block n that map below it. One pass over the edges inside the
    prefix sorts each edge between two blocks into the later block's
    expected set: its head when f goes forward, its tail when f goes
    back. Set n must list exactly that set, ascending.
    """
    if len(sets) != len(starts) - 1:
        raise ValueError("one shadow set per block required")
    prefix = starts[-1]
    values = fn.values
    if len(values) < prefix:
        raise ValueError("function window does not cover the coded prefix")
    expected: list[set[int]] = [set() for _ in sets]
    for m in range(len(sets)):
        for x in range(starts[m], starts[m + 1]):
            y = values[x]
            if y < prefix:
                n = bisect_right(starts, y) - 1
                if n > m:
                    expected[n].add(y)
                elif n < m:
                    expected[m].add(x)
    return tuple(
        n
        for n, shadow in enumerate(sets)
        if shadow.elements != tuple(sorted(expected[n]))
    )


def meeting_function(
    system: BlockSystem, shadows: Sequence[ShadowSet]
) -> tuple[int, ...]:
    """A bounded sequence meeting every shadow tuple inside its interval.

    Shadow elements are taken in increasing code order and assigned to
    positions of I_n in increasing order; each assigned position copies
    the decoded tuple's value there, and unassigned positions stay 0.
    With fewer shadows than positions, every shadow tuple shares a value
    with the result somewhere in its own interval. A shadow set's position
    in the list is its block.
    """
    if len(shadows) != system.depth:
        raise ValueError("one shadow set per block required")
    ell = [0] * system.i_endpoints[-1]
    for n, shadow in enumerate(shadows):
        lo, hi = system.interval(n)
        if len(shadow.elements) >= hi - lo:
            raise ValueError(f"block {n} has no spare position")
        for j, e in enumerate(shadow.elements):
            tup = system.decode(n, e - system.j_starts[n])
            ell[lo + j] = tup[j]
    return tuple(ell)


def verify_meeting(
    system: BlockSystem,
    shadows: Sequence[ShadowSet],
    ell: Sequence[int],
) -> tuple[tuple[int, int], ...]:
    """Shadow tuples the sequence misses everywhere in their interval.

    Only what meeting_function can return is checked: one g-bounded value
    per position of the interval prefix, against one shadow set per block,
    whose position in the list is its block. Anything else raises
    ValueError.
    """
    if len(ell) != system.i_endpoints[-1]:
        raise ValueError("sequence must cover the whole interval prefix")
    for i, (v, bound) in enumerate(zip(ell, system.g.values)):
        if v < 0 or v >= bound:
            raise ValueError(f"value {v} breaks the bound {bound} at {i}")
    if len(shadows) != system.depth:
        raise ValueError("one shadow set per block required")
    missed = []
    for n, shadow in enumerate(shadows):
        lo, hi = system.interval(n)
        for e in shadow.elements:
            tup = system.decode(n, e - system.j_starts[n])
            if not any(ell[i] == tup[i - lo] for i in range(lo, hi)):
                missed.append((n, e))
    return tuple(missed)


class ClaimReport(Record):
    """Cross-block edges inside a coded set and their shadow certificates."""

    __slots__ = ("coded_points", "edges", "certified", "uncertified")
    coded_points: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    certified: tuple[tuple[int, int, int], ...]
    uncertified: tuple[tuple[int, int], ...]


def verify_freeness_claim(
    system: BlockSystem,
    fn: FiniteFunction,
    h: Sequence[int],
) -> ClaimReport:
    """Certify every edge of f inside the coded set of h by shadow membership.

    A is the blockwise coding of h, one point per J_n. A point p of J_n
    lies in S_f(n) by definition when an earlier point maps to p or p
    maps below J_n. An edge x -> y = f(x) inside A joins two blocks,
    since f has no fixed point, so the later block t of the two holds
    its head or its tail in S_f(t) by that definition, with no shadow
    set built. The report lists each edge with that block. S_f(t) needs
    an injective f whose window covers J_t, so an edge into J_t raises
    ValueError otherwise. `uncertified` is always empty.
    """
    ends = system.i_endpoints
    if len(h) != ends[-1]:
        raise ValueError("tuple must cover the whole interval prefix")
    block_of = {
        system.code_point(n, h[ends[n] : ends[n + 1]]): n for n in range(system.depth)
    }
    values = fn.values
    window = len(values)
    edges = []
    certified = []
    for x, m in block_of.items():
        if x >= window:
            continue
        y = values[x]
        n = block_of.get(y)
        if n is None:
            continue
        edges.append((x, y))
        target = max(m, n)
        if window < system.j_starts[target + 1]:
            raise ValueError("function window does not cover the coded prefix")
        if not fn.injective_on_window:
            raise ValueError("shadow sets need an injective function")
        certified.append((x, y, target))
    return ClaimReport(tuple(block_of), tuple(edges), tuple(certified), ())


class MeasuredBlocks(Record):
    """Materialized blocks with one exact rational mass per singleton."""

    __slots__ = ("sizes", "unit_masses", "starts")
    sizes: tuple[int, ...]
    unit_masses: tuple[Fraction, ...]
    starts: tuple[int, ...]

    def block_count(self) -> int:
        return len(self.sizes)

    def block_of_point(self, x: int) -> int:
        if x < 0 or x >= self.starts[-1]:
            raise ValueError(f"{x} outside every block")
        return bisect_right(self.starts, x) - 1

    def to_json(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "mu": [str(m) for m in self.unit_masses],
        }


def _with_starts(sizes: Sequence[int], units: Sequence[Fraction]) -> MeasuredBlocks:
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    return MeasuredBlocks(tuple(sizes), tuple(units), tuple(starts))


def build_ed_blocks(depth: int) -> MeasuredBlocks:
    """Blocks J_0 .. J_depth with |J_{n+1}| = 2(n+1) * (total so far).

    Singletons of J_{n+1} weigh 1 over that total, so the block weighs
    2(n+1) while any set of at most 2 * total points weighs at most 2.
    Block 0 is a singleton of mass 0 and never constrains anything.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    sizes = [1]
    units = [Fraction(0)]
    total = 1
    for n in range(depth):
        size = 2 * (n + 1) * total
        sizes.append(size)
        units.append(Fraction(1, total))
        total += size
        _check_reportable(
            f"the total size through J_{n + 1}", total.bit_length()
        )
    return _with_starts(sizes, units)


def ed_fin_blocks(depth: int) -> MeasuredBlocks:
    """Counting-measure blocks of sizes 0, 1, ..., depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth * (depth + 1) // 2 > MAX_MATERIALIZED_POSITIONS:
        raise ValueError("blocks too large to materialize")
    sizes = list(range(depth + 1))
    units = [Fraction(1)] * (depth + 1)
    return _with_starts(sizes, units)


class BadSetBlock(Record):
    """The part of a block touched by earlier blocks through f."""

    __slots__ = ("elements", "mass")
    elements: tuple[int, ...]
    mass: Fraction


def bad_set(blocks: MeasuredBlocks, fn: FiniteFunction, n: int) -> BadSetBlock:
    """B_f(n), which is S_f(n) over the measured blocks, with its mass."""
    elems = _shadow_elements(blocks.starts, fn, n)
    return BadSetBlock(elems, len(elems) * blocks.unit_masses[n])


def ed_membership(
    blocks: MeasuredBlocks, subset: Subset, k: Fraction
) -> tuple[bool, Fraction]:
    """Is every per-block mass of the subset at most k, and the largest one."""
    if subset.window > blocks.starts[-1]:
        raise ValueError("subset window exceeds the materialized prefix")
    worst = Fraction(0)
    counts = [0] * blocks.block_count()
    for x in subset.elements:
        counts[blocks.block_of_point(x)] += 1
    for n, count in enumerate(counts):
        mass = count * blocks.unit_masses[n]
        if mass > worst:
            worst = mass
    return worst <= k, worst


class SelectorReport(Record):
    """Freeness of a selector after discarding bad points."""

    __slots__ = ("cross_block_edges",)
    cross_block_edges: tuple[tuple[int, int], ...]


def selector_free_check(
    blocks: MeasuredBlocks,
    fn: FiniteFunction,
    selector: Subset,
    bad_blocks: Sequence[BadSetBlock],
) -> SelectorReport:
    """Drop the selector's bad points and look for surviving cross-block edges.

    A selector takes at most one point per block. The points left after
    removing every bad set can only be joined by f within a single block,
    so any reported cross-block edge falsifies the bad sets given, as
    bad_set builds them or perturbed.
    """
    if fn.window < blocks.starts[-1]:
        raise ValueError("function window does not cover the block prefix")
    counts = [0] * blocks.block_count()
    for x in selector.elements:
        counts[blocks.block_of_point(x)] += 1
    if any(c > 1 for c in counts):
        raise ValueError("selector takes more than one point in a block")
    bad_union = set()
    for b in bad_blocks:
        bad_union.update(b.elements)
    kept = [x for x in selector.elements if x not in bad_union]
    kept_set = set(kept)
    prefix = blocks.starts[-1]
    cross = []
    for x in kept:
        y = fn.values[x]
        if y < prefix and y in kept_set:
            if blocks.block_of_point(x) != blocks.block_of_point(y):
                cross.append((x, y))
    return SelectorReport(tuple(cross))


# === CLI handlers, named in cli._TABLE ===


def _load_growth(text: str, depth: int) -> GrowthFunction:
    """An inline array of bounds, or one integer (a scalar, which cannot nest)."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return GrowthFunction(json_ints(_load_doc(stripped), "g"))
    return constant_growth(json_int(json.loads(stripped), "g"), depth)


def _run_blocks_build(args) -> dict:
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
    # imported here, so no other leaf of this module loads rosenthal
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
