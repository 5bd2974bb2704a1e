"""Window functions, orbits, and the seeded generator.

The oracle here is direct simulation: walk f repeatedly and compare
against what orbit_decomposition claims, with no shared code between
the walk and the decomposition.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset_lab.funcgraph import (
    FiniteFunction,
    Lcg64,
    Orbit,
    OrbitDecomposition,
    Subset,
    image_overlap,
    is_free,
    orbit_decomposition,
    random_fpf_function,
    verify_orbits,
)


# === construction guards ===


def test_rejects_fixed_point():
    with pytest.raises(ValueError):
        FiniteFunction([0, 2, 1])


def test_rejects_empty():
    with pytest.raises(ValueError):
        FiniteFunction([])


def test_rejects_negative_value():
    with pytest.raises(ValueError):
        FiniteFunction([1, -1])


def test_out_of_window_values_are_allowed():
    fn = FiniteFunction([5, 0])
    assert fn.window == 2
    assert fn(0) == 5
    assert list(fn.in_window_edges()) == [(1, 0)]


def test_json_round_trip():
    fn = FiniteFunction([1, 2, 0, 4, 9])
    assert FiniteFunction.from_json(fn.to_json()) == fn
    assert fn.to_json() == {"n": 5, "values": [1, 2, 0, 4, 9]}


# === subsets ===


def test_subset_of_sorts_and_dedups():
    a = Subset.of(6, [5, 1, 3, 1])
    assert a.elements == (1, 3, 5)
    assert 3 in a and 2 not in a


def test_subset_rejects_out_of_window():
    with pytest.raises(ValueError):
        Subset.of(4, [0, 4])


def test_subset_json_is_bare_array():
    assert Subset.of(5, [2, 0]).to_json() == [0, 2]


# === freeness scan ===


def test_star_free_scan_lists_hits_in_order():
    fn = FiniteFunction([1, 2, 0])
    a = Subset.of(3, [0, 1])
    assert image_overlap(a, fn).elements == (1,)
    assert not is_free(a, fn)
    assert is_free(Subset.of(3, [0]), fn)


def test_star_free_scan_ignores_boundary_edges():
    fn = FiniteFunction([3, 3, 3, 7])

    # f(3) = 7 leaves the window, so {3} is free even though 3 is in A
    assert is_free(Subset.of(4, [3]), fn)


# === orbit decomposition against a walk oracle ===


def _walk_orbit_oracle(fn: FiniteFunction) -> set[frozenset[int]]:
    """Partition the window into weakly connected components by walking."""
    n = fn.window
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        y = fn(x)
        if y < n:
            parent[find(x)] = find(y)
    groups: dict[int, set[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def test_two_cycles_decompose():
    fn = FiniteFunction([1, 2, 0, 4, 5, 6, 3])
    dec = orbit_decomposition(fn)
    assert [(o.kind, o.nodes) for o in dec.orbits] == [
        ("cycle", (0, 1, 2)),
        ("cycle", (3, 4, 5, 6)),
    ]
    assert verify_orbits(fn, dec) == ()


def test_truncated_path_flags():
    # 2 -> 0 -> 1 -> 5 exits the window; 2 has no preimage
    fn = FiniteFunction([1, 5, 0])
    dec = orbit_decomposition(fn)
    path = dec.paths[0]
    assert path.kind == "path"
    assert path.nodes == (2, 0, 1)
    assert verify_orbits(fn, dec) == ()


def test_orbits_match_walk_oracle_on_seeded_instances():
    for seed in range(40):
        fn = random_fpf_function(seed, 30, injective=True)
        dec = orbit_decomposition(fn)
        assert verify_orbits(fn, dec) == ()
        got = {frozenset(o.nodes) for o in dec.orbits}
        assert got == _walk_orbit_oracle(fn)


def test_verifier_rejects_a_cycle_not_listed_from_its_least_node():
    fn = FiniteFunction([1, 2, 0])
    dec = OrbitDecomposition(3, (Orbit("cycle", (1, 2, 0)),))
    assert verify_orbits(fn, dec) == ("cycle 0 does not start at its least node",)


def test_verifier_rejects_orbits_out_of_order():
    fn = FiniteFunction([1, 0, 3, 2])
    dec = OrbitDecomposition(4, (Orbit("cycle", (2, 3)), Orbit("cycle", (0, 1))))
    assert verify_orbits(fn, dec) == ("orbit 1 is out of order",)


def test_orbit_rejects_non_injective():
    with pytest.raises(ValueError):
        orbit_decomposition(FiniteFunction([1, 0, 0]))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 64))
def test_random_functions_honor_their_contract(seed, n):
    plain = random_fpf_function(seed, n)
    assert plain.window == n
    assert all(v != x for x, v in enumerate(plain.values))
    inj = random_fpf_function(seed, n, injective=True)
    assert inj.injective_on_window


# === generator ===


def test_lcg_is_deterministic():
    a = [Lcg64(99).below(1000) for _ in range(5)]
    b = []
    rng = Lcg64(99)
    b.append(rng.below(1000))
    assert a[0] == b[0]
    assert [Lcg64(7).below(10) for _ in range(3)] == [
        Lcg64(7).below(10) for _ in range(3)
    ]


def test_lcg_shuffle_permutes():
    rng = Lcg64(3)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    assert items != list(range(20))


def test_below_rejects_bad_bounds():
    rng = Lcg64(0)
    with pytest.raises(ValueError):
        rng.below(0)
