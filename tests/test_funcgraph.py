"""Window functions, orbits, and the seeded generator.

The oracle here is direct simulation: walk f repeatedly and compare
against what orbit_decomposition claims, with no shared code between
the walk and the decomposition.
"""

from __future__ import annotations

import hashlib
import re
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeset_lab.funcgraph import (
    FiniteFunction,
    Lcg64,
    Orbit,
    Subset,
    _walk_state,
    image_overlap,
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


def _construction_reference(values) -> tuple[str | None, bool | None]:
    """FiniteFunction's checks as plain loops: (error message, injective)."""
    vals = tuple(values)
    if not vals:
        return "window must be positive", None
    fixed_point = False
    for x, v in enumerate(vals):
        if v < 0:
            return f"negative value at {x}", None
        if v == x:
            fixed_point = True
    if fixed_point:
        return "function has a fixed point", None
    seen = set()
    for v in vals:
        if v in seen:
            return None, False
        seen.add(v)
    return None, True


@settings(deadline=None, max_examples=400)
@given(st.lists(st.integers(-3, 12), max_size=10))
@example([0, -1])  # a negative value is reported before an earlier fixed point
@example([1, 2, -1, 0, -2])  # the first negative index is named
@example([5, 5])  # two equal exits make the function non-injective
@example([5, 6])
def test_construction_matches_the_reference_loops(values):
    error, injective = _construction_reference(values)
    if error is not None:
        with pytest.raises(ValueError) as exc:
            FiniteFunction(values)
        assert str(exc.value) == error
    else:
        assert FiniteFunction(values).injective_on_window is injective


def test_out_of_window_values_are_allowed():
    fn = FiniteFunction([5, 0])
    assert fn.window == 2
    assert fn.values[0] == 5
    assert list(fn.in_window_edges()) == [(1, 0)]


def test_json_round_trip():
    fn = FiniteFunction([1, 2, 0, 4, 9])
    assert FiniteFunction.from_json(fn.to_json()) == fn
    assert fn.to_json() == {"n": 5, "values": [1, 2, 0, 4, 9]}


# === subsets ===


def test_subset_of_sorts_and_dedups():
    a = Subset.of(6, [5, 1, 3, 1])
    assert a.elements == (1, 3, 5)
    assert 3 in a.elements and 2 not in a.elements


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
    assert not image_overlap(Subset.of(3, [0]), fn).elements


def test_star_free_scan_ignores_boundary_edges():
    fn = FiniteFunction([3, 3, 3, 7])

    # f(3) = 7 leaves the window, so {3} is free even though 3 is in A
    assert not image_overlap(Subset.of(4, [3]), fn).elements


def test_freeness_scans_refuse_a_wider_subset_window():
    fn = FiniteFunction([1, 2, 0])
    with pytest.raises(ValueError, match="subset window exceeds function window"):
        image_overlap(Subset.of(4, [0]), fn)


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
        y = fn.values[x]
        if y < n:
            parent[find(x)] = find(y)
    groups: dict[int, set[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def test_two_cycles_decompose():
    fn = FiniteFunction([1, 2, 0, 4, 5, 6, 3])
    orbits = orbit_decomposition(fn)
    assert [(o.kind, o.nodes) for o in orbits] == [
        ("cycle", (0, 1, 2)),
        ("cycle", (3, 4, 5, 6)),
    ]
    assert verify_orbits(fn, orbits) == ()


def test_truncated_path_flags():
    # 2 -> 0 -> 1 -> 5 exits the window; 2 has no preimage
    fn = FiniteFunction([1, 5, 0])
    orbits = orbit_decomposition(fn)
    assert orbits == (Orbit("path", (2, 0, 1)),)
    assert verify_orbits(fn, orbits) == ()


def test_orbits_match_walk_oracle_on_seeded_instances():
    for seed in range(40):
        fn = random_fpf_function(seed, 30, injective=True)
        orbits = orbit_decomposition(fn)
        assert verify_orbits(fn, orbits) == ()
        got = {frozenset(o.nodes) for o in orbits}
        assert got == _walk_orbit_oracle(fn)


def test_verifier_rejects_a_cycle_not_listed_from_its_least_node():
    fn = FiniteFunction([1, 2, 0])
    orbits = (Orbit("cycle", (1, 2, 0)),)
    assert verify_orbits(fn, orbits) == ("cycle 0 does not start at its least node",)


def test_verifier_rejects_orbits_out_of_order():
    fn = FiniteFunction([1, 0, 3, 2])
    orbits = (Orbit("cycle", (2, 3)), Orbit("cycle", (0, 1)))
    assert verify_orbits(fn, orbits) == ("orbit 1 is out of order",)


def test_verifier_rejects_empty_orbits_and_nodes_past_the_window():
    fn = FiniteFunction([1, 0])
    assert verify_orbits(fn, (Orbit("cycle", ()), Orbit("cycle", (0, 1)))) == (
        "orbit 0 is empty",
    )
    assert verify_orbits(fn, (Orbit("cycle", (0, 1, 2)),)) == (
        "node 2 is outside the window",
        "orbits do not cover the window",
    )


def _orbits_by_definition(fn: FiniteFunction) -> tuple[Orbit, ...]:
    """A path from each point with no in-window preimage until f leaves the
    window, a cycle from each least point left, orbits by first node."""
    n = fn.window
    image = {v for v in fn.values if v < n}
    orbits = []
    placed = set()
    for head in range(n):
        if head in image:
            continue
        nodes = [head]
        while fn.values[nodes[-1]] < n:
            nodes.append(fn.values[nodes[-1]])
        orbits.append(Orbit("path", tuple(nodes)))
        placed.update(nodes)
    for least in range(n):
        if least in placed:
            continue
        nodes = [least]
        while fn.values[nodes[-1]] != least:
            nodes.append(fn.values[nodes[-1]])
        orbits.append(Orbit("cycle", tuple(nodes)))
        placed.update(nodes)
    orbits.sort(key=lambda o: o.nodes[0])
    return tuple(orbits)


def _orbit_edits(orbits: tuple[Orbit, ...], n: int):
    """Every single edit of the orbits of a function on [0, n): one orbit's
    kind, rotation, direction, a node dropped, a node of [0, n] appended
    (n lies outside the window), a split, or two neighbouring orbits
    swapped or merged."""

    def replace(i, *new):
        return orbits[:i] + new + orbits[i + 1 :]

    for i, (kind, nodes) in enumerate((o.kind, o.nodes) for o in orbits):
        for other in ("cycle", "path", "loop"):
            if other != kind:
                yield replace(i, Orbit(other, nodes))
        for r in range(1, len(nodes)):
            yield replace(i, Orbit(kind, nodes[r:] + nodes[:r]))
        yield replace(i, Orbit(kind, nodes[::-1]))
        for j in range(len(nodes)):
            rest = nodes[:j] + nodes[j + 1 :]
            yield replace(i, Orbit(kind, rest)) if rest else replace(i)
        for x in range(n + 1):
            yield replace(i, Orbit(kind, nodes + (x,)))
        for j in range(1, len(nodes)):
            yield replace(i, Orbit(kind, nodes[:j]), Orbit(kind, nodes[j:]))
    for i, (a, b) in enumerate(zip(orbits, orbits[1:])):
        pair = orbits[:i], orbits[i + 2 :]
        yield pair[0] + (b, a) + pair[1]
        yield pair[0] + (Orbit(a.kind, a.nodes + b.nodes),) + pair[1]


def test_verify_orbits_accepts_exactly_the_definition_under_single_edits():
    # every fixed-point-free injection of [0, N) into [0, N + 1), N <= 5
    functions = edits = 0
    complaints = set()
    for n in range(1, 6):
        for values in permutations(range(n + 1), n):
            if any(x == v for x, v in enumerate(values)):
                continue
            fn = FiniteFunction(values)
            truth = _orbits_by_definition(fn)
            assert orbit_decomposition(fn) == truth
            assert verify_orbits(fn, truth) == ()
            functions += 1
            for edit in _orbit_edits(truth, n):
                found = verify_orbits(fn, edit)
                assert (found == ()) == (edit == truth), (values, edit, found)
                complaints.update(re.sub(r"\d+", "#", c) for c in found)
                edits += 1
    assert functions == 377 and edits == 9767
    assert complaints == {
        "node # is outside the window",
        "orbit # is out of order",
        "node # repeats",
        "orbit # breaks at #",
        "cycle # does not close",
        "cycle # does not start at its least node",
        "path # does not exit the window",
        "path # head has a preimage",
        "orbit # has unknown kind loop",
        "orbits do not cover the window",
    }


def test_walk_state_marks_exactly_the_points_without_an_in_window_preimage():
    # every fixed-point-free injection of [0, N) into [0, N + 1), N <= 5
    functions = permuting = 0
    for n in range(1, 6):
        for values in permutations(range(n + 1), n):
            if any(x == v for x, v in enumerate(values)):
                continue
            image = set(values)
            state = _walk_state(FiniteFunction(values))
            assert list(state) == [int(x in image) for x in range(n)], values
            if max(values) < n:
                assert 0 not in state
                permuting += 1
            functions += 1
    assert functions == 377 and permuting == 56


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


class _Huge(list):
    def __len__(self):
        return 2**32 + 1


def test_inlined_draws_refuse_bounds_past_two_to_the_32():
    # refused before any draw or allocation, as below() refuses them
    with pytest.raises(ValueError, match="got 4294967297"):
        random_fpf_function(0, 2**32 + 2)
    rng = Lcg64(0)
    with pytest.raises(ValueError, match="got 4294967297"):
        rng.shuffle(_Huge())
    assert rng.next_u32() == Lcg64(0).next_u32()


# === the seeded stream is a contract ===

# SHA-256 of ",".join(map(str, values)) for random_fpf_function(seed, n,
# injective). Seed 7 (injective) and seed 22 (not) at n = 10^4 each reject
# one raw draw, so the rejection step is pinned too; -1 pins seed masking.
_STREAM_PINS = """
0 1 False 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
0 1 True 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
0 2 False b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da
0 2 True b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da
0 3 False 45db9b8e2fb4f8f4f06a8045741a53708a309db363193bff7f70a3d1b1401cb8
0 3 True 38264fae802697f3bceeb1a0d6b9c69f39daa7cacf8c2e9400e3ce4ad7789d0c
0 7 False d8b55f65bf0e299b1abcd620485fad4b14c2651c7ec23063f227f8a3eb989af4
0 7 True 03713ca7c4fe15bb256bcf336a267e70ee60afdebe341757d890fea73f8f470b
0 1001 False db9d2258f4bda3fc91bc32084d19bd5dc2a3ec56ce1040311086a12105d205ab
0 1001 True e5cb8c62f1b0333172572443752eb7e4b305270701d127691d307aeb20ab5a3c
0 10000 False fcda8666c135e8be51fad550f884013ff319faca76b454a3d5ffb6860c3598bd
0 10000 True 1e17fac3c5d6ccfb491b8f0f48aef83bd72951a713f8d2bb5f7101544d8485e8
7 1 False 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
7 1 True 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
7 2 False b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da
7 2 True b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da
7 3 False d25bf250186f7eedaa276c208677e13ee176d1814cbf45bc13e286f9ac3318eb
7 3 True e53ba35eba4d20674a2e2825f5c6eb7bf97494d1124a4f7636ca88e96fdcadb1
7 7 False f5111351486d1876b7fa91331d73c447a251bea05da19170c57ec0fe01ae99da
7 7 True aa32255e59b4b46d46808b06cf1de52bdbfe828449843f89fabbaa7c474fea0c
7 1001 False 6d57a6fcad0b1ee095b9ea0f61688a7ffda5a3049a1f4b8f28e4b43be0c9f22b
7 1001 True 1e8820c0b6055f124731d126d12512bf18fc3d50b51771ec93f69db199c58cb7
7 10000 False 71216e9b4bc2428a219dd7e64fad9825aa4039a43c20a285a0e94eb0f56e8672
7 10000 True 0813e29b0ad1fda668edc5ff28b5e0319d7e7dea2185cf10730367d6f2920902
22 1 False 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
22 1 True 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
22 2 False b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da
22 2 True da3e59883b89334cfdb2f44a35bdab076caad9eed92a2af9674540e1abfc2edd
22 3 False d25bf250186f7eedaa276c208677e13ee176d1814cbf45bc13e286f9ac3318eb
22 3 True ade5aa392903732cb785f91e714f9aa4002eefd9183d394aa6f89c649d95f8e7
22 7 False 4a172740f441c5979ac4145a50225e1bfc27feee4dc0dbeeeaa4592634c7b4b1
22 7 True 4ce84a6e67f6880f37964179252f1155969f78fd4bde6c208384d4f7070f98ae
22 1001 False 53f0af225e20deb008391c1253818d76ff3e5d773e0fe024a4a809e29b17ea29
22 1001 True 87c589538e8f682cc4d45c4c9f7b59493ebd042d8095c21d4df77da14e5d98e7
22 10000 False 6bdddfb983929a16baebb4fd60c33cee356ea18c22c0dc5990458fbb7bfb3e1f
22 10000 True f333c60c251e857cd0f57ca54d333c59bfbd15ced55e1ef9cd0ee57408ec0b60
-1 1 False 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
-1 1 True 6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b
-1 2 False b0e4f9bb7b55e4b181760ae93c958c14b451a7556206dfa952d81f0f2165a9da
-1 2 True da3e59883b89334cfdb2f44a35bdab076caad9eed92a2af9674540e1abfc2edd
-1 3 False 45db9b8e2fb4f8f4f06a8045741a53708a309db363193bff7f70a3d1b1401cb8
-1 3 True cea67d8b58d72bb9387778326578aa3e58971aeb9f43ff6eaa599fbdeb5a3103
-1 7 False 5353f691032fcdd4cd3be78ac6f2e9bd12a4605d551beefb4295e954aefbb9cf
-1 7 True c4707bcb302faafb7c280420eb2adb5c5be46ba984404fe69cf063309b1de36a
-1 1001 False 855266bc552e7c2ee3634e1d075f275e9e2824ea2a383f00367e8fa89c8a4b2f
-1 1001 True 729d4f24dc04ef4cef91039c187fd71269bdff4f278259ab40f60609303d8ed7
-1 10000 False b0e7d2aa06a0c4fdd20e4a268faa165e19af3bca27762c6f286d8bf8c6383c03
-1 10000 True 9d466ac8016027f4c92d338db3ded7ce8867a40699d0af16d56bb25c0059f259
"""


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def test_seeded_functions_are_pinned():
    rows = [line.split() for line in _STREAM_PINS.strip().splitlines()]
    assert len(rows) == 48
    for seed, n, injective, digest in rows:
        fn = random_fpf_function(int(seed), int(n), injective == "True")
        assert _digest(fn.values) == digest, (seed, n, injective)


def test_lcg_draws_are_pinned():
    rng = Lcg64(0)
    assert [rng.next_u32() for _ in range(4)] == [
        621631368,
        2521019141,
        3491972291,
        1388466058,
    ]
    rng = Lcg64(1)
    assert [rng.below(10) for _ in range(8)] == [6, 2, 4, 6, 1, 6, 7, 1]
    # about half of the raw draws are rejected for this bound (8 of 14 here)
    rng = Lcg64(2)
    assert [rng.below(2**31 + 1) for _ in range(6)] == [
        631022399,
        566041309,
        269575948,
        123666831,
        1895651089,
        542641756,
    ]
    assert rng.next_u32() == 916770199
    rng = Lcg64(2)
    assert [rng.below(2**32) for _ in range(3)] == [4123822284, 2890696179, 3334322826]


def test_lcg_shuffles_are_pinned():
    rng = Lcg64(3)
    items = list(range(12))
    rng.shuffle(items)
    assert items == [1, 4, 10, 5, 7, 11, 2, 8, 3, 9, 0, 6]
    # the generator carries on from where the shuffle left it
    assert rng.next_u32() == 14717119
    for items in ([], ["a"]):
        rng = Lcg64(4)
        rng.shuffle(items)
        assert rng.next_u32() == 2207184128
