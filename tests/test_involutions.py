"""Covering a function by four fixed-point-free involutions.

verify_decomposition re-derives coverage edge by edge from the original
function and is the oracle for every decomposition below. The frozen
pairings were first computed by hand from the covering rules (walk the
orbit, alternate, close odd cycles with the long chord) and only then
pinned here.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import combinations, compress, permutations
from operator import eq, not_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset_lab import involutions
from freeset_lab.funcgraph import (
    FiniteFunction,
    Lcg64,
    Subset,
    image_overlap,
    orbit_decomposition,
    random_fpf_function,
)
from freeset_lab.involutions import (
    DecompositionResult,
    Involution,
    combine_on_blocks,
    decompose_into_involutions,
    verify_decomposition,
)
from freeset_lab.partitions import IntervalPartition


def _random_derangement(seed: int, n: int) -> FiniteFunction:
    """Permutation of [0, n) with no fixed point, for forcing Case 2."""
    rng = Lcg64(seed)
    while True:
        vals = list(range(n))
        rng.shuffle(vals)
        if all(vals[i] != i for i in range(n)):
            return FiniteFunction(tuple(vals))


def _reference_parts(fn: FiniteFunction):
    """The cover built orbit by orbit from orbit_decomposition.

    Paths put even positions in part 0 and positions 1 and 3 mod 4 in
    parts 1 and 2; even cycles alternate parts 0 and 1; an odd cycle
    a_0 .. a_k puts every second edge from a_0 in part 0, every second
    edge from a_1 in part 1 and the chord (a_0, a_k) in part 2. Each
    part's leftovers are then paired consecutively, lowest first.
    Returns each part's (pairing, exceptions) and the case.
    """
    dec = orbit_decomposition(fn)
    pairs: list[list[tuple[int, int]]] = [[], [], [], []]
    for orbit in dec.orbits:
        a = orbit.nodes
        s = len(a)
        if orbit.kind == "path":
            pairs[0] += [(a[t], a[t + 1]) for t in range(0, s - 1, 2)]
            pairs[1] += [(a[t], a[t + 1]) for t in range(1, s - 1, 4)]
            pairs[2] += [(a[t], a[t + 1]) for t in range(3, s - 1, 4)]
        elif s % 2 == 0:
            pairs[0] += [(a[t], a[t + 1]) for t in range(0, s - 1, 2)]
            pairs[1] += [(a[t], a[(t + 1) % s]) for t in range(1, s, 2)]
        else:
            k = s - 1
            pairs[0] += [(a[t], a[t + 1]) for t in range(0, k - 1, 2)]
            pairs[1] += [(a[t], a[t + 1]) for t in range(1, k, 2)]
            pairs[2].append((a[0], a[k]))
    n = fn.window
    parts = []
    for part_pairs in pairs:
        pairing = [-1] * n
        for x, y in part_pairs:
            pairing[x], pairing[y] = y, x
        leftovers = [x for x, y in enumerate(pairing) if y == -1]
        for a0, b0 in zip(leftovers[::2], leftovers[1::2]):
            pairing[a0], pairing[b0] = b0, a0
        exceptions = leftovers[-1:] if len(leftovers) % 2 else []
        for e in exceptions:
            pairing[e] = e
        parts.append((tuple(pairing), tuple(exceptions)))
    odd_cycles = sum(len(o.nodes) % 2 for o in dec.cycles)
    case = 2 if odd_cycles % 2 and not dec.paths else 1
    return parts, case


def _cover_reference(fn: FiniteFunction) -> DecompositionResult:
    """_reference_parts as a DecompositionResult."""
    parts, case = _reference_parts(fn)
    involutions = tuple(Involution(fn.window, p, e) for p, e in parts)
    return DecompositionResult(involutions, (), case)


# === involution objects ===


def test_involution_must_be_self_inverse():
    with pytest.raises(ValueError):
        Involution(3, (1, 2, 0), ())


def test_exceptions_must_be_self_mapped():
    with pytest.raises(ValueError):
        Involution(3, (1, 0, 0), (2,))
    ok = Involution(3, (1, 0, 2), (2,))
    assert ok.pairing[0] == 1 and ok.pairing[2] == 2


@pytest.mark.parametrize(
    "window, pairing, exceptions",
    [(4, (1, 0, 3, 2), (7,)), (4, (1, 0, 3, 2), (-1,)), (2, (1, 0), (5,))],
)
def test_exception_outside_the_window_is_refused(window, pairing, exceptions):
    # (2, (1, 0), (5,)) pairs every window point, so only the range check on
    # the exception itself can refuse it
    with pytest.raises(ValueError, match=f"^exception {exceptions[0]} outside the window$"):
        Involution(window, pairing, exceptions)


def _validation_reference(window, pairing, exceptions) -> str | None:
    """The per-point checks Involution made before its one-loop fast path.

    Returns the ValueError message they raise, or None on acceptance.
    They never looked at an exception outside the window.
    """
    exceptions = tuple(sorted(exceptions))
    if len(pairing) != window or window <= 0:
        return "pairing length must match a positive window"
    exc = set(exceptions)
    if len(exc) != len(exceptions):
        return "duplicate exception"
    for x, y in enumerate(pairing):
        if y < 0 or y >= window:
            return f"pairing value {y} outside the window"
        if x in exc:
            if y != x:
                return f"exception {x} must map to itself"
        else:
            if y == x:
                return f"{x} is fixed but not listed as an exception"
            if pairing[y] != x:
                return f"pairing is not self-inverse at {x}"
    return None


@st.composite
def _near_involutions(draw):
    """A valid pairing with a few entries and exceptions disturbed."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    swaps = 2 * draw(st.integers(0, n // 2))
    pairing = list(range(n))
    for a, b in zip(order[:swaps:2], order[1:swaps:2]):
        pairing[a], pairing[b] = b, a
    exceptions = list(order[swaps:])
    for _ in range(draw(st.integers(0, 2))):
        pairing[draw(st.integers(0, n - 1))] = draw(st.integers(-2, n + 1))
    if exceptions and draw(st.booleans()):
        exceptions.remove(draw(st.sampled_from(exceptions)))
    if draw(st.booleans()):
        exceptions.append(draw(st.integers(-2, n + 1)))
    window = draw(st.sampled_from([n, n, n, n + 1]))
    return window, tuple(pairing), tuple(exceptions)


@settings(deadline=None, max_examples=400)
@given(_near_involutions())
def test_validation_matches_the_per_point_reference(case):
    window, pairing, exceptions = case
    try:
        Involution(window, pairing, exceptions)
        got = None
    except ValueError as err:
        got = str(err)
    expected = _validation_reference(window, pairing, exceptions)
    outside = [e for e in sorted(exceptions) if not 0 <= e < window]
    if expected is None and outside:
        expected = f"exception {outside[0]} outside the window"
    assert got == expected


def test_involution_json_round_trip():
    inv = Involution(3, (1, 0, 2), (2,))
    assert Involution.from_json(inv.to_json()) == inv
    assert inv.to_json() == {"n": 3, "pairing": [1, 0, 2], "exceptions": [2]}


# === frozen decompositions ===


def test_successor_window_eight():
    fn = FiniteFunction([k + 1 for k in range(8)])
    res = decompose_into_involutions(fn)
    assert res.case == 1
    assert res.uncovered_edges == ()
    assert [p.pairing for p in res.parts] == [
        (1, 0, 3, 2, 5, 4, 7, 6),
        (3, 2, 1, 0, 7, 6, 5, 4),
        (1, 0, 5, 4, 3, 2, 7, 6),
        (1, 0, 3, 2, 5, 4, 7, 6),
    ]
    assert verify_decomposition(fn, res) == (True, ())


def test_single_four_cycle_needs_two_parts():
    fn = FiniteFunction([1, 2, 3, 0])
    res = decompose_into_involutions(fn)
    assert res.parts[0].pairing == (1, 0, 3, 2)
    assert res.parts[1].pairing == (3, 2, 1, 0)
    assert res.uncovered_edges == ()
    assert verify_decomposition(fn, res) == (True, ())


def test_two_odd_cycles_stay_unmodified():
    fn = FiniteFunction([1, 2, 0, 4, 5, 3])
    res = decompose_into_involutions(fn)
    assert res.case == 1
    assert res.uncovered_edges == ()
    assert verify_decomposition(fn, res) == (True, ())


def test_lone_odd_cycle_with_even_neighbor_is_covered_in_place():
    # the 3-cycle (0 1 2) gives (0,1) to part 0, (1,2) to part 1 and the
    # chord (0,2) to part 2; the 4-cycle (3 4 5 6) gives (3,4), (5,6) to
    # part 0 and (4,5), (6,3) to part 1; leftovers pair lowest first
    fn = FiniteFunction([1, 2, 0, 4, 5, 6, 3])
    res = decompose_into_involutions(fn)
    assert res.case == 2
    assert res.uncovered_edges == ()
    assert [(p.pairing, p.exceptions) for p in res.parts] == [
        ((1, 0, 2, 4, 3, 6, 5), (2,)),
        ((0, 2, 1, 6, 5, 4, 3), (0,)),
        ((2, 3, 0, 1, 5, 4, 6), (6,)),
        ((1, 0, 3, 2, 5, 4, 6), (6,)),
    ]
    assert verify_decomposition(fn, res) == (True, ())


def test_case_two_derangements_leave_no_edge_uncovered():
    for seed in range(40):
        fn = _random_derangement(seed, 15)
        res = decompose_into_involutions(fn)
        assert res.case == 2
        assert res.uncovered_edges == ()
        assert verify_decomposition(fn, res) == (True, ())


def test_window_parity_decides_the_case_for_derangements():
    # cycle lengths sum to the window size, so the count of odd cycles
    # shares its parity with the window
    for s in range(20):
        assert decompose_into_involutions(_random_derangement(s, 15)).case == 2
        assert decompose_into_involutions(_random_derangement(s, 14)).case == 1


def test_walk_matches_the_orbit_by_orbit_reference():
    injections = [
        random_fpf_function(seed, 1 + seed % 60, injective=True) for seed in range(300)
    ]
    assert any(v >= fn.window for fn in injections for v in fn.values)
    shifts = [FiniteFunction(range(k, n + k)) for k in (1, 2, 3) for n in (1, 2, 5, 9, 30)]
    small = [FiniteFunction([1]), FiniteFunction([1, 0]), FiniteFunction([2, 0])]
    derangements = [
        _random_derangement(seed, n) for n in range(5, 62) for seed in range(3)
    ] + [_random_derangement(7, 10001)]
    for fn in derangements + injections + shifts + small:
        res = decompose_into_involutions(fn)
        ref = _cover_reference(fn)
        assert res.to_json() == ref.to_json()
        assert res.case == ref.case


# === randomized coverage ===


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9), st.integers(2, 150))
def test_decomposition_explains_every_edge(seed, n):
    fn = random_fpf_function(seed, n, injective=True)
    res = decompose_into_involutions(fn)
    ok, unexplained = verify_decomposition(fn, res)
    assert ok
    assert unexplained == ()


def test_parts_have_at_most_one_exception_each():
    for seed in range(30):
        fn = random_fpf_function(seed, 31, injective=True)
        res = decompose_into_involutions(fn)
        for part in res.parts:
            assert len(part.exceptions) <= 1


def test_free_for_all_parts_bounds_the_overlap():
    # sets free for every part can only meet f inside the uncovered edges
    for seed in range(30):
        fn = _random_derangement(seed, 13)
        res = decompose_into_involutions(fn)
        rng = Lcg64(seed + 500)
        for _ in range(20):
            elems = [x for x in range(13) if rng.below(2)]
            if not elems:
                continue
            a = Subset.of(13, elems)
            # a part's exceptions are fixed points, which freeness ignores
            if any(
                p.pairing[x] in a.elements and x not in p.exceptions
                for p in res.parts
                for x in elems
            ):
                continue
            assert len(image_overlap(a, fn).elements) <= len(res.uncovered_edges)


# === the verifier requires full coverage ===


@cache
def _true_case(values: tuple[int, ...]) -> int | None:
    """The case by its definition, from the orbits; None off injections."""
    fn = FiniteFunction(values)
    if not fn.injective_on_window:
        return None
    dec = orbit_decomposition(fn)
    odd_cycles = sum(len(o.nodes) % 2 for o in dec.cycles)
    return 2 if odd_cycles % 2 and not dec.paths else 1


def _coverage_reference(fn, result):
    """verify_decomposition as one zipped pass of map(eq) over the parts.

    A malformed result, or a case other than the input's own, explains
    no edge.
    """
    values = fn.values
    n = len(values)
    if (
        len(result.parts) != 4
        or any(p.window != n or len(p.exceptions) > 1 for p in result.parts)
        or result.case != _true_case(values)
    ):
        return False, tuple(fn.in_window_edges())
    covered = map(any, zip(*[map(eq, p.pairing, values) for p in result.parts]))
    uncovered = {
        (x, values[x])
        for x in compress(range(n), map(not_, covered))
        if values[x] < n
    }
    unexplained = tuple(sorted(uncovered.union(result.uncovered_edges)))
    return not unexplained, unexplained


def _swap_a_pair(part: Involution, rng: Lcg64) -> Involution:
    """Re-pair two pairs (a, b), (c, d) of a part as (a, d), (c, b)."""
    heads = [x for x, y in enumerate(part.pairing) if x < y]
    if len(heads) < 2:
        return part
    a = heads[rng.below(len(heads))]
    c = heads[rng.below(len(heads))]
    if a == c:
        return part
    pairing = list(part.pairing)
    b, d = pairing[a], pairing[c]
    pairing[a], pairing[d], pairing[c], pairing[b] = d, a, b, c
    return Involution(part.window, tuple(pairing), part.exceptions)


def test_verifier_matches_the_zipped_reference():
    cases = []
    for seed in range(60):
        n = 2 + seed % 40
        fn = random_fpf_function(seed, n, injective=True)
        other = _random_derangement(seed + 1000, n)
        res = decompose_into_involutions(fn)
        rng = Lcg64(seed)
        edge = next(iter(fn.in_window_edges()), (0, 1))
        k = rng.below(4)
        swapped = res.parts[:k] + (_swap_a_pair(res.parts[k], rng),) + res.parts[k + 1 :]
        cases += [
            (fn, res),
            (other, decompose_into_involutions(other)),
            (fn, decompose_into_involutions(other)),
            (other, res),
            (fn, DecompositionResult(res.parts, (edge,), res.case)),
            (fn, DecompositionResult(res.parts, ((0, n),), res.case)),
            (fn, DecompositionResult(swapped, (), res.case)),
        ]
    rejected = 0
    for fn, res in cases:
        got = verify_decomposition(fn, res)
        assert got == _coverage_reference(fn, res)
        rejected += not got[0]
    assert rejected > len(cases) // 3


def _injections(n: int):
    """Every fixed-point-free injection of [n] into [0, n + 2)."""
    for vals in permutations(range(n + 2), n):
        if all(v != x for x, v in enumerate(vals)):
            yield FiniteFunction(vals)


@cache
def _repairings(part: Involution) -> tuple[Involution, ...]:
    """Every part one re-pairing away: two pairs swap partners, or a pair
    gives one of its points to the exception and keeps it as its new one.

    Small windows have few involutions, so each part's edits are built once.
    """
    pairing = part.pairing
    heads = [x for x, y in enumerate(pairing) if x < y]

    def edited(pairs, exceptions):
        new = list(pairing)
        for x, y in pairs:
            new[x], new[y] = y, x
        return Involution(part.window, tuple(new), exceptions)

    out = []
    for a, c in combinations(heads, 2):
        b, d = pairing[a], pairing[c]
        out.append(edited(((a, c), (b, d)), part.exceptions))
        out.append(edited(((a, d), (b, c)), part.exceptions))
    for e in part.exceptions:
        for a in heads:
            b = pairing[a]
            out.append(edited(((e, a), (b, b)), (b,)))
            out.append(edited(((e, b), (a, a)), (a,)))
    return tuple(out)


def test_every_small_injection_matches_the_references():
    # 10,839 functions for n <= 6; re-pairing edits and a flipped case for
    # n <= 5 must be judged as the definition-based reference judges them
    checked = edits = rejected = 0
    for n in range(1, 7):
        for fn in _injections(n):
            res = decompose_into_involutions(fn)
            got = [(p.pairing, p.exceptions) for p in res.parts], res.case
            assert got == _reference_parts(fn), fn.values
            assert res.uncovered_edges == ()
            assert verify_decomposition(fn, res) == (True, ())
            checked += 1
            if n > 5:
                continue
            flipped = DecompositionResult(res.parts, (), 3 - res.case)
            assert verify_decomposition(fn, flipped) == (
                False,
                tuple(fn.in_window_edges()),
            )
            for k, part in enumerate(res.parts):
                for edited in _repairings(part):
                    parts = res.parts[:k] + (edited,) + res.parts[k + 1 :]
                    edit = DecompositionResult(parts, (), res.case)
                    got = verify_decomposition(fn, edit)
                    assert got == _coverage_reference(fn, edit), (fn.values, k)
                    edits += 1
                    rejected += not got[0]
    assert checked == 10_839
    assert 0 < rejected < edits


def test_verifier_rejects_a_partial_cover_of_a_path():
    # x+1 on N = 8: pairing consecutive points covers only the even-start
    # edges, and the result claims nothing is left over
    fn = FiniteFunction([k + 1 for k in range(8)])
    p = Involution(8, (1, 0, 3, 2, 5, 4, 7, 6), ())
    res = DecompositionResult((p, p, p, p), (), 1)
    assert verify_decomposition(fn, res) == (False, ((1, 2), (3, 4), (5, 6)))


def test_verifier_rejects_a_false_uncovered_claim():
    fn = FiniteFunction([1, 2, 0, 4, 5, 6, 3])
    res = decompose_into_involutions(fn)
    claimed = DecompositionResult(res.parts, ((2, 0),), res.case)
    assert verify_decomposition(fn, claimed) == (False, ((2, 0),))


def test_verifier_rejects_a_wrong_case():
    # (1, 2, 0) is one 3-cycle: no path and an odd count of odd cycles
    fn = FiniteFunction([1, 2, 0])
    res = decompose_into_involutions(fn)
    assert res.case == 2
    wrong = DecompositionResult(res.parts, (), 1)
    assert verify_decomposition(fn, wrong) == (False, ((0, 1), (1, 2), (2, 0)))


def test_verifier_rejects_a_non_injective_function():
    # two parts cover every edge of (1, 0, 0), but the constructor refuses
    # it, and no case is defined for it
    fn = FiniteFunction([1, 0, 0])
    p = Involution(3, (1, 0, 2), (2,))
    q = Involution(3, (2, 1, 0), (1,))
    for case in (1, 2):
        res = DecompositionResult((p, q, p, q), (), case)
        assert verify_decomposition(fn, res) == (False, ((0, 1), (1, 0), (2, 0)))


def test_verifier_rejects_parts_with_two_exceptions():
    fn = FiniteFunction([1, 2, 3, 0])
    good = decompose_into_involutions(fn)
    bad = Involution(4, (1, 0, 2, 3), (2, 3))
    res = DecompositionResult((bad,) + good.parts[1:], (), good.case)
    ok, unexplained = verify_decomposition(fn, res)
    assert not ok
    assert unexplained == tuple(fn.in_window_edges())


def test_verifier_rejects_fewer_than_four_parts():
    # x+1 on N = 8 is covered by the first three parts alone
    fn = FiniteFunction([k + 1 for k in range(8)])
    res = decompose_into_involutions(fn)
    three = DecompositionResult(res.parts[:3], (), res.case)
    assert verify_decomposition(fn, three) == (False, tuple(fn.in_window_edges()))


def test_rejects_non_injective_input():
    with pytest.raises(ValueError):
        decompose_into_involutions(FiniteFunction([1, 0, 0]))


def test_result_json_shape():
    fn = FiniteFunction([1, 2, 0, 4, 5, 6, 3])
    doc = decompose_into_involutions(fn).to_json()
    assert set(doc) == {"parts", "uncovered", "case"}
    assert len(doc["parts"]) == 4


# === combining parts over blocks ===


def test_combine_single_block_frozen_example():
    p0 = Involution(3, (1, 0, 2), (2,))
    other = Involution(3, (2, 1, 0), (1,))
    blocks = IntervalPartition((0, 3))
    d, combined = combine_on_blocks((p0, other, other, other), blocks, (0,))
    assert d.elements == (0, 1)
    assert combined.pairing == (1, 0, 2)
    assert combined.exceptions == (2,)


def test_combine_membership_is_closed_under_the_part():
    p0 = Involution(9, (1, 0, 3, 2, 5, 4, 7, 6, 8), (8,))
    p1 = Involution(9, (3, 2, 1, 0, 7, 6, 5, 4, 8), (8,))
    blocks = IntervalPartition((0, 3, 6, 9))
    colors = (0, 1, 0)
    d, combined = combine_on_blocks((p0, p1, p0, p1), blocks, colors)
    members = set(d.elements)
    for x in range(9):
        k = bisect_right(blocks.endpoints, x) - 1
        part = (p0, p1, p0, p1)[colors[k]]
        partner = part.pairing[x]
        inside = (
            x not in part.exceptions
            and k == bisect_right(blocks.endpoints, partner) - 1
        )
        assert (x in members) == inside
        if x in members:
            assert combined.pairing[x] == partner
            assert partner in members


def _combine_reference(parts, blocks, colors):
    """D and the combined involution by collecting D's pairs, sorting them
    and pairing every other point consecutively."""
    window = parts[0].window
    pairs, chosen = set(), []
    for (lo, hi), c in zip(blocks.blocks(), colors):
        part = parts[c]
        for x in range(lo, hi):
            y = part.pairing[x]
            if x not in part.exceptions and lo <= y < hi:
                chosen.append(x)
                pairs.add((min(x, y), max(x, y)))
    pairing = [None] * window
    for x, y in sorted(pairs):
        assert pairing[x] is None and pairing[y] is None
        pairing[x], pairing[y] = y, x
    rest = [x for x in range(window) if pairing[x] is None]
    for a, b in zip(rest[::2], rest[1::2]):
        pairing[a], pairing[b] = b, a
    exceptions = rest[-1:] if len(rest) % 2 else []
    for e in exceptions:
        pairing[e] = e
    return Subset.of(window, chosen), Involution(window, tuple(pairing), exceptions)


def test_combine_matches_the_reference_on_seeded_covers():
    chosen = 0
    for seed in range(150):
        rng = Lcg64(seed)
        n = 11 + rng.below(110)
        fn = random_fpf_function(seed, n, injective=True)
        parts = decompose_into_involutions(fn).parts
        # odd blocks of 1 to 11 points, ending at the window or short of it
        ends = [0]
        while ends[-1] + 11 <= n:
            ends.append(ends[-1] + 1 + 2 * rng.below(6))
        blocks = IntervalPartition(tuple(ends))
        colors = [rng.below(4) for _ in range(blocks.block_count)]
        got = combine_on_blocks(parts, blocks, colors)
        assert got == _combine_reference(parts, blocks, colors), seed
        chosen += len(got[0])
    assert chosen > 1000


def test_combine_rejects_even_blocks():
    p = Involution(4, (1, 0, 3, 2), ())
    with pytest.raises(ValueError):
        combine_on_blocks((p, p, p, p), IntervalPartition((0, 2, 4)), (0, 0))


def test_combined_involution_is_total_and_fpf():
    p0 = Involution(5, (1, 0, 3, 2, 4), (4,))
    p1 = Involution(5, (4, 2, 1, 3, 0), (3,))
    blocks = IntervalPartition((0, 5))
    for color in range(2):
        d, combined = combine_on_blocks((p0, p1, p0, p1), blocks, (color,))
        assert len(combined.pairing) == 5
        assert len(combined.exceptions) <= 1
