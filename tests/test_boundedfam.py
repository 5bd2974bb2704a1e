"""Coded block systems, shadow sets, and measured families.

The oracles are exhaustive on purpose: block sizes and tuple counts are
recomputed from the growth values by direct products, codec bijectivity
is checked over entire blocks, and every claim certificate is re-derived
from the raw function. Frozen numbers were computed from the recurrences
by hand before being pinned.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import eq

import pytest

from freeset_lab.boundedfam import (
    BadSetBlock,
    BlockSystem,
    ClaimReport,
    GrowthFunction,
    bad_set,
    build_block_system,
    build_ed_blocks,
    constant_growth,
    ed_fin_blocks,
    ed_membership,
    ShadowSet,
    meeting_function,
    selector_free_check,
    shadow_set,
    verify_freeness_claim,
    verify_meeting,
    verify_shadows,
)
from freeset_lab.funcgraph import FiniteFunction, Lcg64, Subset, random_fpf_function


# === block systems ===


def test_doubling_system_frozen_shape():
    system = build_block_system(constant_growth(2, 2), 2)
    assert system.i_endpoints == (0, 1, 6)
    assert system.f_sizes == (2, 32)
    assert system.j_starts == (0, 2, 34)


def test_depth_three_shape():
    system = build_block_system(constant_growth(2, 3), 3)
    assert system.i_endpoints == (0, 1, 6, 75)
    assert system.f_sizes[2] == 2**69


def test_interval_sizes_are_minimal():
    g = GrowthFunction((2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4))
    system = build_block_system(g, 2)
    total = 0
    for n in range(system.depth):
        lo, hi = system.interval(n)
        assert hi - lo == 2 * total + 1
        f = 1
        for i in range(lo, hi):
            f *= g.values[i]
        assert f == system.f_sizes[n]
        total += f


def test_growth_must_cover_the_prefix():
    with pytest.raises(ValueError):
        build_block_system(GrowthFunction((2, 2)), 2)


def test_block_system_json_round_trip():
    system = build_block_system(constant_growth(3, 2), 2)
    doc = system.to_json()
    assert doc["F"] == ["3", "2187"]  # the second interval has 2*3+1 slots


# === mixed-radix codec ===


def test_codec_is_a_bijection_per_block():
    systems = (
        build_block_system(GrowthFunction((2, 2, 2, 3, 3, 3)), 2),
        # three hand-built blocks, each with its own radix
        BlockSystem(GrowthFunction((2, 3, 3, 4, 4)), (0, 1, 3, 5), (2, 9, 16)),
    )
    for system in systems:
        for n in range(system.depth):
            lo, hi = system.interval(n)
            seen = set()
            ranges = [range(system.g.values[i]) for i in range(lo, hi)]
            for tup in product(*ranges):
                code = system.encode(n, tup)
                assert 0 <= code < system.f_sizes[n]
                assert system.decode(n, code) == tup
                seen.add(code)
            assert len(seen) == system.f_sizes[n]


def test_lowest_position_is_least_significant():
    system = build_block_system(GrowthFunction((2, 2, 2, 3, 3, 3)), 2)
    lo, hi = system.interval(1)
    tup = [0] * (hi - lo)
    tup[0] = 1
    assert system.encode(1, tuple(tup)) == 1


def test_code_point_lands_in_the_j_block():
    system = build_block_system(constant_growth(2, 2), 2)
    assert system.code_point(0, (0,)) == 0
    assert system.code_point(1, (1, 0, 0, 0, 0)) == 3
    assert bisect_right(system.j_starts, 3) - 1 == 1


_MIXED = build_block_system(GrowthFunction((2, 2, 2, 3, 3, 3)), 2)


# block 1 is I_1 = [1, 6), so position i is digit i - 1 of its tuple
@pytest.mark.parametrize("i", range(1, 6))
def test_encode_validates_digits(i):
    assert _MIXED.interval(1) == (1, 6)
    bound = _MIXED.g.values[i]
    for v in (bound, -1):
        tup = [0] * 5
        tup[i - 1] = v
        with pytest.raises(ValueError) as err:
            _MIXED.encode(1, tup)
        assert str(err.value) == f"value {v} breaks the bound {bound} at {i}"
    # the length is checked before any digit
    for tup in ([bound] * 4, [bound] * 6):
        with pytest.raises(ValueError) as err:
            _MIXED.encode(1, tup)
        assert str(err.value) == "tuple length must match the interval"


@pytest.mark.parametrize("n", range(2))
def test_decode_refuses_codes_outside_the_block(n):
    for code in (-1, _MIXED.f_sizes[n]):
        with pytest.raises(ValueError) as err:
            _MIXED.decode(n, code)
        assert str(err.value) == f"code {code} outside block {n}"


# === shadow sets ===


def test_successor_shadow_is_the_single_entry_point():
    system = build_block_system(constant_growth(2, 2), 2)
    succ = FiniteFunction([k + 1 for k in range(34)])
    s0 = shadow_set(system, succ, 0)
    s1 = shadow_set(system, succ, 1)
    assert s0.elements == ()
    assert s1.elements == (2,)
    assert s1.size_bound == 4 and s1.capacity == 5
    assert s0.within_bounds and s1.within_bounds


def test_shadow_bound_holds_for_random_functions():
    system = build_block_system(constant_growth(2, 2), 2)
    for seed in range(60):
        fn = random_fpf_function(seed, 34, injective=True)
        for n in range(2):
            s = shadow_set(system, fn, n)
            assert s.within_bounds
            # oracle: recount forward and backward crossings directly
            lo, hi = system.j_starts[n], system.j_starts[n + 1]
            expected = set()
            for x in range(lo):
                if lo <= fn.values[x] < hi:
                    expected.add(fn.values[x])
            for x in range(lo, hi):
                if fn.values[x] < lo:
                    expected.add(x)
            assert set(s.elements) == expected


def test_verify_shadows_accepts_the_definition_and_names_each_wrong_block():
    system = build_block_system(constant_growth(2, 2), 2)
    wrong_blocks = 0
    for seed in range(60):
        fn = random_fpf_function(seed, 40, injective=True)
        shadows = [shadow_set(system, fn, n) for n in range(2)]
        assert verify_shadows(system.j_starts, fn, shadows) == ()
        for n, s in enumerate(shadows):
            lo, hi = system.j_starts[n], system.j_starts[n + 1]
            outside = next(x for x in range(lo, hi) if x not in s.elements)
            edits = [tuple(sorted(s.elements + (outside,))), s.elements[::-1]]
            for k in range(len(s.elements)):
                edits.append(s.elements[:k] + s.elements[k + 1 :])
            for elements in edits:
                if elements == s.elements:
                    continue
                wrong = list(shadows)
                wrong[n] = ShadowSet(elements, s.size_bound, s.capacity)
                assert verify_shadows(system.j_starts, fn, wrong) == (n,)
                wrong_blocks += 1
    assert wrong_blocks > 120


def test_verify_shadows_needs_the_whole_prefix_and_every_block():
    system = build_block_system(constant_growth(2, 2), 2)
    fn = random_fpf_function(5, 34, injective=True)
    shadows = [shadow_set(system, fn, n) for n in range(2)]
    with pytest.raises(ValueError, match="one shadow set per block"):
        verify_shadows(system.j_starts, fn, shadows[:1])
    with pytest.raises(ValueError, match="does not cover the coded prefix"):
        verify_shadows(system.j_starts, FiniteFunction(fn.values[:33]), shadows)


def test_verify_shadows_refuses_every_single_point_edit():
    # every fixed-point-free injection of [0, 6) into [0, 8) over the
    # blocks [0, 1), [1, 3) and [3, 6); 6 and 7 leave the prefix. The
    # n-th set of a list is block n's, as shadow sets or as bad sets.
    starts = (0, 1, 3, 6)
    blocks = list(zip(starts, starts[1:]))
    subsets = [
        c for lo, hi in blocks for k in range(hi - lo + 1)
        for c in combinations(range(lo, hi), k)
    ]
    kinds = [
        {e: ShadowSet(e, 0, 1) for e in subsets},
        {e: BadSetBlock(e, Fraction(0)) for e in subsets},
    ]
    functions = edits = 0
    for values in permutations(range(8), 6):
        if any(map(eq, values, range(6))):
            continue
        fn = FiniteFunction(values)
        # S_f(n) by its definition: the points of block n that an earlier
        # point maps to, and the points of block n that map below it
        truth = [
            {y for y in values[:lo] if lo <= y < hi}
            | {x for x in range(lo, hi) if values[x] < lo}
            for lo, hi in blocks
        ]
        # add or drop one point of one block
        edited = [
            (n, tuple(sorted(truth[n] ^ {p})))
            for n, (lo, hi) in enumerate(blocks)
            for p in range(lo, hi)
        ]
        for record in kinds:
            sets = [record[tuple(sorted(s))] for s in truth]
            assert verify_shadows(starts, fn, sets) == ()
            for n, elements in edited:
                wrong = sets.copy()
                wrong[n] = record[elements]
                assert verify_shadows(starts, fn, wrong) == (n,), (values, n, elements)
        functions += 1
        edits += len(edited)
    assert functions == 9403 and edits == 56418


# === meeting function ===


def test_meeting_function_hits_every_shadow_code():
    system = build_block_system(constant_growth(2, 2), 2)
    for seed in range(40):
        fn = random_fpf_function(seed, 34, injective=True)
        shadows = [shadow_set(system, fn, n) for n in range(2)]
        ell = meeting_function(system, shadows)
        assert verify_meeting(system, shadows, ell) == ()


def test_verify_meeting_catches_a_total_miss():
    system = build_block_system(constant_growth(2, 2), 2)
    shadows = [
        ShadowSet((), 0, 1),
        ShadowSet((2,), 4, 5),
    ]

    # element 2 codes the all-zero tuple; an all-one sequence never meets it
    ell = (0, 1, 1, 1, 1, 1)
    assert verify_meeting(system, shadows, ell) == ((1, 2),)


def test_verify_meeting_matches_its_definition_on_every_small_input():
    # the system `blocks verify` uses: I_0 = [0, 1), I_1 = [1, 6), J_0 =
    # [0, 2), J_1 = [2, 34). Every list of at most one code per block
    # against all 64 sequences: point p of J_n is missed exactly when the
    # tuple its code e = p - j_starts[n] codes differs from ell at every
    # position i of I_n. g is 2 everywhere, so the tuple's entry at i is
    # bit i - lo of e, the lowest position least significant.
    system = build_block_system(constant_growth(2, 2), 2)
    starts, ends = system.j_starts, system.i_endpoints
    assert starts == (0, 2, 34) and ends == (0, 1, 6)
    picks = [[()] + [(p,) for p in range(starts[n], starts[n + 1])] for n in range(2)]
    calls = missed = 0
    for ell in product(range(2), repeat=6):
        for chosen in product(*picks):
            shadows = [ShadowSet(points, 0, 1) for points in chosen]
            expected = tuple(
                (n, p)
                for n, points in enumerate(chosen)
                for p in points
                if all(
                    ell[i] != (p - starts[n]) >> (i - ends[n]) & 1
                    for i in range(ends[n], ends[n + 1])
                )
            )
            assert verify_meeting(system, shadows, ell) == expected, (ell, chosen)
            calls += 1
            missed += bool(expected)
    assert calls == 6336
    assert 0 < missed < calls


def _meeting_case():
    system = build_block_system(constant_growth(2, 2), 2)
    fn = random_fpf_function(4001, 34, injective=True)
    shadows = [shadow_set(system, fn, n) for n in range(2)]
    ell = meeting_function(system, shadows)
    assert verify_meeting(system, shadows, ell) == ()
    return system, shadows, ell


def test_verify_meeting_refuses_an_out_of_range_digit():
    system, shadows, ell = _meeting_case()
    assert system.g.values[0] == 2
    with pytest.raises(ValueError, match="breaks the bound 2 at 0"):
        verify_meeting(system, shadows, (7,) + ell[1:])


def test_verify_meeting_refuses_a_sequence_past_the_prefix():
    system, shadows, ell = _meeting_case()
    with pytest.raises(ValueError, match="cover the whole interval prefix"):
        verify_meeting(system, shadows, ell + (9, 9))


def test_verify_meeting_refuses_a_sequence_short_of_the_prefix():
    system, shadows, ell = _meeting_case()
    with pytest.raises(ValueError, match="cover the whole interval prefix"):
        verify_meeting(system, shadows, ell[:3])


def test_verify_meeting_needs_one_shadow_per_block_in_order():
    system, shadows, ell = _meeting_case()
    with pytest.raises(ValueError, match="one shadow set per block"):
        verify_meeting(system, shadows[:1], ell)
    # list position is the block: block 1's set in block 0's place holds
    # codes past J_0, and I_0 has no spare position for them
    assert shadows[1].elements
    with pytest.raises(ValueError, match="outside block 0"):
        verify_meeting(system, shadows[::-1], ell)
    with pytest.raises(ValueError, match="block 0 has no spare position"):
        meeting_function(system, shadows[::-1])


def test_all_coded_h_sets_are_certified():
    system = build_block_system(constant_growth(2, 2), 2)
    for seed in range(25):
        fn = random_fpf_function(7000 + seed, 34, injective=True)
        for h in product(range(2), repeat=6):
            claim = verify_freeness_claim(system, fn, list(h))
            assert not claim.uncertified, (seed, h, claim.uncertified)
            assert len(claim.coded_points) == 2


def test_claim_certificates_point_into_the_shadow():
    system = build_block_system(constant_growth(2, 2), 2)
    fn = random_fpf_function(11, 34, injective=True)
    seen_edge = False
    for h in product(range(2), repeat=6):
        claim = verify_freeness_claim(system, fn, list(h))
        for (x, y, target) in claim.certified:
            seen_edge = True
            witness = y if bisect_right(system.j_starts, y) - 1 == target else x
            assert witness in shadow_set(system, fn, target).elements
    assert seen_edge or all(
        not verify_freeness_claim(system, fn, list(h)).uncertified
        for h in product(range(2), repeat=6)
    )


def test_claim_certifies_both_crossings_by_the_later_block():
    # 0 -> 2 and 2 -> 0 both cross from J_0 into J_1, so both are
    # certified by the shadow of block 1
    system = build_block_system(constant_growth(2, 2), 2)
    fn = FiniteFunction([2, 3, 0, 1] + [x ^ 1 for x in range(4, 34)])
    claim = verify_freeness_claim(system, fn, [0] * 6)
    assert claim.certified == ((0, 2, 1), (2, 0, 1))


def _claim_oracle(system, fn, shadows, h):
    """The ClaimReport of h, coded by hand and certified against given shadows."""
    coded = []
    for n in range(system.depth):
        lo, hi = system.interval(n)
        code, mult = 0, 1
        for i in range(lo, hi):
            code += h[i] * mult
            mult *= system.g.values[i]
        coded.append(system.j_starts[n] + code)

    def block(p):
        return next(n for n in range(system.depth) if p < system.j_starts[n + 1])

    values = fn.values
    edges = [(x, values[x]) for x in coded if x < len(values) and values[x] in coded]
    certified = []
    uncertified = []
    for x, y in edges:
        target = max(block(x), block(y))
        witness = y if block(y) == target else x
        if block(x) != block(y) and witness in shadows[target]:
            certified.append((x, y, target))
        else:
            uncertified.append((x, y))
    return ClaimReport(tuple(coded), tuple(certified), tuple(uncertified))


def _shadows_by_definition(starts, values) -> list[set[int]]:
    """S_f(n) for each block [starts[n], starts[n + 1]): images of the
    prefix before block n that land in it, and its points that map below it."""
    return [
        {y for y in values[:lo] if lo <= y < hi}
        | {x for x in range(lo, hi) if values[x] < lo}
        for lo, hi in zip(starts, starts[1:])
    ]


def test_claim_reports_match_the_shadow_definition():
    system = build_block_system(constant_growth(2, 2), 2)
    hs = [list(h) for h in product(range(2), repeat=6)]
    crossings = 0
    for seed in range(200):
        fn = random_fpf_function(9000 + seed, 34, injective=True)
        shadows = _shadows_by_definition(system.j_starts, fn.values)
        for h in hs:
            claim = verify_freeness_claim(system, fn, h)
            assert claim == _claim_oracle(system, fn, shadows, h), (seed, h)
            crossings += len(claim.certified)
    assert crossings > 0


def test_verify_freeness_claim_matches_its_definition_on_every_small_input():
    # every fixed-point-free injection of [0, 6) into [0, 7), so 6 leaves
    # the prefix, and every h over three one-position intervals with
    # bound 2: J_n = [2n, 2n + 2), and block n codes the point 2n + h[n]
    system = BlockSystem(GrowthFunction((2, 2, 2)), (0, 1, 2, 3), (2, 2, 2))
    assert system.j_starts == (0, 2, 4, 6)
    hs = list(product(range(2), repeat=3))
    functions = calls = crossings = 0
    for values in permutations(range(7), 6):
        if any(map(eq, values, range(6))):
            continue
        fn = FiniteFunction(values)
        shadows = _shadows_by_definition(system.j_starts, values)
        for h in hs:
            claim = verify_freeness_claim(system, fn, h)
            assert claim == _claim_oracle(system, fn, shadows, h), (values, h)
            crossings += len(claim.certified)
            calls += 1
        functions += 1
    assert functions == 2119 and calls == 16952
    assert crossings > 0


def test_claim_needs_a_covering_window_for_a_cross_edge():
    system = build_block_system(constant_growth(2, 2), 2)
    # no edge joins the coded points 0 and 2, so nothing needs J_1
    claim = verify_freeness_claim(system, FiniteFunction([1, 0]), [0] * 6)
    assert claim.certified == ()
    with pytest.raises(ValueError) as err:
        verify_freeness_claim(system, FiniteFunction([2, 3, 0, 1]), [0] * 6)
    assert str(err.value) == "function window does not cover the coded prefix"


def test_claim_needs_an_injective_function_for_a_cross_edge():
    system = build_block_system(constant_growth(2, 2), 2)
    fn = FiniteFunction([2, 2] + [x ^ 1 for x in range(2, 34)])
    assert not fn.injective_on_window
    with pytest.raises(ValueError) as err:
        verify_freeness_claim(system, fn, [0] * 6)
    assert str(err.value) == "shadow sets need an injective function"


def test_claim_requires_full_h():
    system = build_block_system(constant_growth(2, 2), 2)
    fn = random_fpf_function(3, 34, injective=True)
    with pytest.raises(ValueError):
        verify_freeness_claim(system, fn, [0, 1])


# === measured families ===


def test_ed_blocks_frozen_sizes_and_masses():
    blocks = build_ed_blocks(4)
    assert blocks.sizes == (1, 2, 12, 90, 840)
    assert blocks.unit_masses == (
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),
        Fraction(1, 15),
        Fraction(1, 105),
    )
    assert blocks.starts == (0, 1, 3, 15, 105, 945)
    for n in range(1, 5):
        assert blocks.sizes[n] * blocks.unit_masses[n] == 2 * n


def test_fin_blocks_use_counting_measure():
    blocks = ed_fin_blocks(5)
    assert blocks.sizes == (0, 1, 2, 3, 4, 5)
    assert all(m == 1 for m in blocks.unit_masses)


def test_block_lookup_skips_empty_blocks():
    blocks = ed_fin_blocks(3)
    assert blocks.starts == (0, 0, 1, 3, 6)
    # block 0 is empty, so point 0 sits in block 1
    assert [blocks.block_of_point(x) for x in range(6)] == [1, 2, 2, 3, 3, 3]
    for outside in (-1, 6):
        with pytest.raises(ValueError):
            blocks.block_of_point(outside)


def test_measured_json_round_trip():
    blocks = build_ed_blocks(3)
    doc = blocks.to_json()
    assert doc["mu"] == ["0", "1", "1/3", "1/15"]
    assert doc["sizes"] == [1, 2, 12, 90]


# === bad sets ===


def test_successor_bad_sets():
    blocks = build_ed_blocks(2)
    succ = FiniteFunction([k + 1 for k in range(15)])
    assert bad_set(blocks, succ, 0).elements == ()
    b1 = bad_set(blocks, succ, 1)
    b2 = bad_set(blocks, succ, 2)
    assert b1.elements == (1,) and b1.mass == 1
    assert b2.elements == (3,) and b2.mass == Fraction(1, 3)


def test_bad_mass_is_at_most_two():
    blocks = build_ed_blocks(3)
    prefix = blocks.starts[-1]
    for seed in range(50):
        fn = random_fpf_function(seed, prefix, injective=True)
        for n in range(blocks.block_count()):
            assert bad_set(blocks, fn, n).mass <= 2


def test_membership_decision():
    blocks = build_ed_blocks(2)
    small = Subset.of(15, [0, 1, 3])
    assert ed_membership(blocks, small, Fraction(2)) == (True, Fraction(1))
    heavy = Subset.of(15, [1, 2])
    member, worst = ed_membership(blocks, heavy, Fraction(1))
    assert not member and worst == 2


# === selectors ===


def _seeded_selector(blocks, bads, seed):
    rng = Lcg64(seed)
    chosen = []
    for n in range(1, blocks.block_count()):
        lo, hi = blocks.starts[n], blocks.starts[n + 1]
        pool = [x for x in range(lo, hi) if x not in set(bads[n].elements)]
        if pool:
            chosen.append(pool[rng.below(len(pool))])
    return Subset.of(blocks.starts[-1], chosen)


def test_selectors_that_dodge_bad_sets_are_free():
    blocks = build_ed_blocks(3)
    prefix = blocks.starts[-1]
    for seed in range(25):
        fn = random_fpf_function(seed, prefix, injective=True)
        bads = [bad_set(blocks, fn, n) for n in range(blocks.block_count())]
        for s in range(8):
            x = _seeded_selector(blocks, bads, 31 * seed + s)
            report = selector_free_check(blocks, fn, x, bads)
            assert report.cross_block_edges == ()


def test_perturbed_bad_sets_get_caught():
    # emptying the bad sets must eventually expose a cross-block edge
    blocks = build_ed_blocks(2)
    prefix = blocks.starts[-1]
    empty = [BadSetBlock((), Fraction(0)) for _ in range(blocks.block_count())]
    caught = False
    for seed in range(40):
        fn = random_fpf_function(seed, prefix, injective=True)
        pair = None
        for n in range(1, blocks.block_count()):
            lo, hi = blocks.starts[n], blocks.starts[n + 1]
            for x in range(lo, hi):
                if fn.values[x] < lo:  # backward edge into an earlier block
                    pair = (fn.values[x], x)
                    break
            if pair:
                break
        if pair is None:
            continue
        report = selector_free_check(blocks, fn, Subset.of(prefix, pair), empty)
        if report.cross_block_edges:
            caught = True
            break
    assert caught


def test_selector_rejects_two_points_in_a_block():
    blocks = build_ed_blocks(2)
    succ = FiniteFunction([k + 1 for k in range(15)])
    bads = [bad_set(blocks, succ, n) for n in range(blocks.block_count())]
    with pytest.raises(ValueError):
        selector_free_check(blocks, succ, Subset.of(15, [3, 4]), bads)
