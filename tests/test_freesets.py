"""Three-class partitions, free-set search, and unsplit sets.

Oracles: an exhaustive scan over all 3^N colorings certifies that three
classes always suffice on small windows, a 2^N subset sweep certifies
max_free_subset, and a direct bucket rebuild certifies find_unsplit_set.
Every single-point edit of their output over every fixed-point-free map
of [0, N), N <= 5, checks verify_coloring and is_maximal_free against
their definitions. All frozen values below were produced by those
oracles first.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset_lab.freesets import (
    Coloring,
    find_unsplit_set,
    is_maximal_free,
    katetov_partition,
    max_free_subset,
    verify_coloring,
)
from freeset_lab.funcgraph import (
    FiniteFunction,
    Lcg64,
    Subset,
    image_overlap,
    is_free,
    random_fpf_function,
)


# === oracles ===


def _coloring_is_free_oracle(colors, fn) -> bool:
    for x, y in fn.in_window_edges():
        if colors[x] == colors[y]:
            return False
    return True


def _min_colors_oracle(fn) -> int:
    """Smallest c such that some c-coloring has no monochromatic edge."""
    n = fn.window
    for c in (1, 2, 3):
        for colors in product(range(c), repeat=n):
            if _coloring_is_free_oracle(colors, fn):
                return c
    return 4


def _max_free_oracle(family, n) -> tuple[int, tuple[int, ...]]:
    """Largest free set by 2^n sweep; lexicographically smallest winner."""
    best = ()
    for mask in range(1 << n):
        elems = tuple(i for i in range(n) if mask >> i & 1)
        ok = True
        for fn in family:
            a = Subset(n, elems) if elems else None
            if a is not None and not is_free(a, fn):
                ok = False
                break
        if ok and (len(elems) > len(best) or (len(elems) == len(best) and elems < best)):
            best = elems
    return len(best), best


# === katetov partition ===


def test_five_cycle_uses_three_colors():
    fn = FiniteFunction([1, 2, 3, 4, 0])
    col = katetov_partition(fn)
    assert col.colors == (0, 1, 0, 1, 2)
    assert verify_coloring(col, fn) == ()
    assert _min_colors_oracle(fn) == 3


def test_even_cycle_needs_only_two():
    fn = FiniteFunction([1, 2, 3, 0])
    col = katetov_partition(fn)
    assert verify_coloring(col, fn) == ()
    assert 2 not in col.colors
    assert _min_colors_oracle(fn) == 2


def test_every_class_is_free():
    fn = FiniteFunction([1, 2, 0, 4, 5, 6, 3])
    col = katetov_partition(fn)
    for i in range(3):
        cls = col.color_class(i)
        assert image_overlap(cls, fn).elements == ()


def test_third_color_matches_exhaustive_need():
    # on tiny windows, we only spend color 2 when no 2-coloring exists
    for seed in range(60):
        fn = random_fpf_function(seed, 7)
        col = katetov_partition(fn)
        assert verify_coloring(col, fn) == ()
        spent = 2 in col.colors
        assert spent == (_min_colors_oracle(fn) > 2)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**31), st.integers(2, 120))
def test_partition_never_has_monochromatic_edges(seed, n):
    fn = random_fpf_function(seed, n)
    col = katetov_partition(fn)
    assert verify_coloring(col, fn) == ()


def _katetov_reference(fn: FiniteFunction) -> tuple[int, ...]:
    """The chain walk with its own position table and stop state."""
    n = fn.window
    colors = [-1] * n
    for start in range(n):
        if colors[start] != -1:
            continue
        chain = [start]
        position = {start: 0}
        stop = "exit"
        anchor = -1
        while True:
            nxt = fn.values[chain[-1]]
            if nxt >= n:
                stop = "exit"
                break
            if nxt in position:
                stop = "cycle"
                anchor = position[nxt]
                break
            if colors[nxt] != -1:
                stop = "attach"
                anchor = colors[nxt]
                break
            position[nxt] = len(chain)
            chain.append(nxt)
        if stop == "attach":
            c = 1 if anchor == 0 else 0
            for x in reversed(chain):
                colors[x] = c
                c = 1 - c
        else:
            for i, x in enumerate(chain):
                colors[x] = i % 2
            if stop == "cycle" and colors[chain[-1]] == colors[chain[anchor]]:
                colors[chain[-1]] = 2
    return tuple(colors)


def test_katetov_matches_the_reference_on_seeded_functions():
    for seed in range(2000):
        n = 1 + seed % 60
        fn = random_fpf_function(seed, n, injective=seed % 2 == 0)
        assert katetov_partition(fn).colors == _katetov_reference(fn), seed


def test_katetov_matches_the_reference_on_shifts():
    # x + k leaves the window along k chains; x + k mod n closes
    # gcd(k, n) cycles, odd or even by n / gcd(k, n)
    for n in range(2, 40):
        for k in range(1, n):
            for values in (range(k, n + k), [(x + k) % n for x in range(n)]):
                fn = FiniteFunction(tuple(values))
                assert katetov_partition(fn).colors == _katetov_reference(fn), (n, k)


def test_verify_coloring_catches_planted_violation():
    fn = FiniteFunction([1, 2, 3, 0])
    bad = Coloring(4, (0, 0, 1, 1))
    assert (0, 1) in verify_coloring(bad, fn)


def test_coloring_json_round_trip():
    col = Coloring(4, (0, 1, 0, 2))
    assert Coloring.from_json(col.to_json()) == col
    assert col.to_json() == {"n": 4, "colors": [0, 1, 0, 2]}


# === max free subset ===


def test_exact_matches_subset_sweep():
    for seed in range(25):
        fam = [
            random_fpf_function(seed, 9, injective=True),
            random_fpf_function(seed + 1000, 9),
        ]
        size, elems = _max_free_oracle(fam, 9)
        got = max_free_subset(fam, 9, mode="exact")
        assert len(got.elements) == size
        assert got.elements == elems


def test_exact_empty_family_takes_everything():
    got = max_free_subset([], 5, mode="exact")
    assert got.elements == (0, 1, 2, 3, 4)


def test_greedy_is_free_and_maximal():
    for seed in range(40):
        fam = [random_fpf_function(seed, 20), random_fpf_function(seed + 7, 20)]
        got = max_free_subset(fam, 20, mode="greedy")
        assert all(is_free(got, fn) for fn in fam)
        assert is_maximal_free(got, fam, 20)


def _greedy_reference(family, window) -> Subset:
    """The greedy scan with one any() over a generator per point."""
    chosen: list[int] = []
    chosen_set: set[int] = set()
    images: set[int] = set()
    for v in range(window):
        if v in images:
            continue
        if any(fn.values[v] in chosen_set for fn in family):
            continue
        chosen.append(v)
        chosen_set.add(v)
        for fn in family:
            images.add(fn.values[v])
    return Subset(window, tuple(chosen))


def test_greedy_matches_the_reference_on_seeded_families():
    for size in range(4):
        for n in range(1, 61):
            fam = [
                random_fpf_function(1000 * size + 61 * j + n, n, injective=j % 2 == 1)
                for j in range(size)
            ]
            assert max_free_subset(fam, n, mode="greedy") == _greedy_reference(fam, n)


def test_greedy_matches_the_reference_past_the_search_window():
    past = 0
    for seed in range(120):
        size = 1 + seed % 3
        n = 1 + seed % 60
        wide = [n + 1 + (seed + j) % 20 for j in range(size)]
        fam = [
            random_fpf_function(seed + 500 * j, w, injective=j != 1)
            for j, w in enumerate(wide)
        ]
        past += any(y >= n for fn in fam for y in fn.values[:n])
        assert max_free_subset(fam, n, mode="greedy") == _greedy_reference(fam, n)
    assert past >= 100


def test_greedy_matches_the_reference_on_shifts():
    n = 8000
    for k in (1, 2, 3):
        fam = [FiniteFunction(tuple(range(k, n + k)))]
        got = max_free_subset(fam, n, mode="greedy")
        assert got == _greedy_reference(fam, n)
        assert is_maximal_free(got, fam, n)


def _maximal_free_oracle(elems, family, window) -> bool:
    """Free, and every outside point closes an in-window edge when added."""

    def free(points):
        return not any(
            fn.values[x] < window and fn.values[x] in points
            for fn in family
            for x in points
        )

    members = set(elems)
    if not free(members):
        return False
    return all(not free(members | {v}) for v in range(window) if v not in members)


def test_non_free_set_is_not_maximal():
    fn = FiniteFunction([1, 2, 3, 0])
    assert not is_maximal_free(Subset.of(4, [0, 1]), [fn], 4)


def test_greedy_set_minus_a_point_is_not_maximal():
    for seed in range(10):
        fam = [random_fpf_function(seed, 16), random_fpf_function(seed + 3, 16)]
        got = max_free_subset(fam, 16, mode="greedy")
        for x in got.elements:
            smaller = Subset(16, tuple(e for e in got.elements if e != x))
            assert not is_maximal_free(smaller, fam, 16)


def test_empty_set_is_not_maximal_under_an_in_window_edge():
    fn = FiniteFunction([5, 0, 7, 9, 8])
    assert not is_maximal_free(Subset(5, ()), [fn], 5)
    assert not is_maximal_free(Subset(5, ()), [], 5)
    # with every edge leaving the window, the whole window is free
    exits = FiniteFunction([5, 6, 7, 8, 9])
    assert is_maximal_free(Subset(5, tuple(range(5))), [exits], 5)


def test_maximality_matches_brute_force_with_window_exits():
    rng = Lcg64(77)
    checked = 0
    for seed in range(150):
        n = 3 + seed % 10
        # windows of n + 3 give exits past the search window, and the
        # injective draw exits its own window as well
        fam = [
            random_fpf_function(seed, n + 3, injective=True),
            random_fpf_function(seed + 500, n + 3),
        ]
        sets = [max_free_subset(fam, n, mode="greedy").elements]
        for _ in range(6):
            sets.append(tuple(x for x in range(n) if rng.below(2)))
        for elems in sets:
            got = is_maximal_free(Subset(n, elems), fam, n)
            assert got == _maximal_free_oracle(elems, fam, n)
            checked += got
    assert checked >= 150


def _fpf_maps(max_n: int):
    """Every fixed-point-free map of [0, N) into itself, N <= max_n."""
    for n in range(2, max_n + 1):
        for values in product(range(n), repeat=n):
            if all(x != v for x, v in enumerate(values)):
                yield FiniteFunction(values)


def test_verify_coloring_is_exact_under_every_recolouring():
    maps = edits = 0
    for fn in _fpf_maps(5):
        n, values = fn.window, fn.values
        colors = katetov_partition(fn).colors
        maps += 1
        for x, c in product(range(n), range(3)):
            if c == colors[x]:
                continue
            edited = colors[:x] + (c,) + colors[x + 1 :]
            # every edge of these maps stays in the window
            mono = tuple((y, values[y]) for y in range(n) if edited[y] == edited[values[y]])
            assert verify_coloring(Coloring(n, edited), fn) == mono, (values, edited)
            edits += 1
    assert maps == 1114 and edits == 10940


def test_is_maximal_free_is_exact_under_every_single_point_edit():
    maps = edits = 0
    for fn in _fpf_maps(5):
        n = fn.window
        maps += 1
        for mode in ("exact", "greedy"):
            found = set(max_free_subset([fn], n, mode=mode).elements)
            for x in range(n):
                elems = tuple(sorted(found ^ {x}))
                got = is_maximal_free(Subset(n, elems), [fn], n)
                assert got == _maximal_free_oracle(elems, [fn], n), (fn.values, elems)
                edits += 1
    assert maps == 1114 and edits == 10940


def test_is_maximal_free_is_exact_on_every_subset_of_small_windows():
    checked = maximal = 0
    for fn in _fpf_maps(4):
        n = fn.window
        for mask in range(1 << n):
            elems = tuple(x for x in range(n) if mask >> x & 1)
            got = is_maximal_free(Subset(n, elems), [fn], n)
            assert got == _maximal_free_oracle(elems, [fn], n), (fn.values, elems)
            checked += 1
            maximal += got
    assert checked == 1364 and maximal > 0


def test_maximality_requires_the_search_window():
    fn = FiniteFunction([1, 2, 3, 0])
    with pytest.raises(ValueError):
        is_maximal_free(Subset(3, (0, 2)), [fn], 4)


def test_exact_refuses_oversized_window():
    with pytest.raises(ValueError):
        max_free_subset([], 25, mode="exact")


def test_family_window_must_cover_search_window():
    fam = [FiniteFunction([1, 0])]
    with pytest.raises(ValueError):
        max_free_subset(fam, 5, mode="greedy")


# === unsplit sets ===


def _unsplit_oracle(colorings, min_size):
    """All maximal constant-signature subsets, by direct bucketing."""
    n = colorings[0].window
    buckets: dict[tuple[int, ...], list[int]] = {}
    for x in range(n):
        sig = tuple(c.colors[x] for c in colorings)
        buckets.setdefault(sig, []).append(x)
    return {sig: tuple(xs) for sig, xs in buckets.items() if len(xs) >= min_size}


def test_unsplit_finds_largest_bucket():
    c1 = Coloring(8, (0, 0, 0, 0, 1, 1, 1, 1))
    c2 = Coloring(8, (0, 1, 0, 1, 0, 1, 0, 1))
    got = find_unsplit_set([c1, c2], 2)
    assert got is not None
    subset, choice = got
    assert subset.elements == (0, 2)
    assert choice == (0, 0)
    assert _unsplit_oracle([c1, c2], 2)[choice] == (0, 2)


def test_unsplit_none_when_all_buckets_small():
    c1 = Coloring(6, (0, 0, 1, 1, 2, 2))
    c2 = Coloring(6, (0, 1, 0, 1, 0, 1))
    assert find_unsplit_set([c1, c2], 2) is None
    assert all(len(v) < 2 for v in _unsplit_oracle([c1, c2], 2).values())


def test_unsplit_ties_break_to_lex_smallest_members():
    # in the second, the smallest members carry the larger color, so
    # ordering the buckets by color would pick (2, 3)
    for colors in ((0, 0, 1, 1), (1, 1, 0, 0)):
        got = find_unsplit_set([Coloring(4, colors)], 2)
        assert got is not None
        assert got[0].elements == (0, 1)


def test_unsplit_matches_oracle_on_seeded_families():
    for seed in range(30):
        fns = [random_fpf_function(seed + 100 * j, 12) for j in range(3)]
        cols = [katetov_partition(fn) for fn in fns]
        got = find_unsplit_set(cols, 3)
        table = _unsplit_oracle(cols, 3)
        if got is None:
            assert not table
        else:
            subset, choice = got
            assert table[choice] == subset.elements
            assert all(len(v) <= len(subset.elements) for v in table.values())


def test_unsplit_search_runs_on_large_windows():
    fns = [random_fpf_function(seed, 1000) for seed in (7, 8)]
    cols = [katetov_partition(fn) for fn in fns]
    got = find_unsplit_set(cols, 1)
    assert got is not None
    subset, choice = got
    table = _unsplit_oracle(cols, 1)
    assert table[choice] == subset.elements
    best = max(len(v) for v in table.values())
    assert subset.elements == min(v for v in table.values() if len(v) == best)


def test_unsplit_requires_matching_windows():
    with pytest.raises(ValueError):
        find_unsplit_set([Coloring(3, (0, 1, 0)), Coloring(4, (0, 1, 0, 1))], 1)
