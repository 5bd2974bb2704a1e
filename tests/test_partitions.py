"""Interval partitions, escape blocks, and localization.

verify_escape rescans the defining inequality point by point, each point
against its tightest endpoint pair, and serves as the oracle for
escape_intervals. Both are also pinned to the plain O(N * blocks)
recurrence and rescan kept below as references. Domination and
localization get hand-checked frozen examples plus negative controls
with planted violations.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset_lab.freesets import is_maximal_free, max_free_subset
from freeset_lab.funcgraph import FiniteFunction, Subset, random_fpf_function
from freeset_lab.partitions import (
    IntervalPartition,
    PartitionIntoParts,
    dominates,
    escape_intervals,
    localized_function,
    partition_function,
    verify_escape,
    verify_localization,
)


# === interval partitions ===


def test_blocks_and_lookup():
    p = IntervalPartition((0, 3, 7, 10))
    assert p.block_count == 3
    assert list(p.blocks()) == [(0, 3), (3, 7), (7, 10)]


def test_endpoints_must_increase_from_zero():
    with pytest.raises(ValueError):
        IntervalPartition((1, 3))
    with pytest.raises(ValueError):
        IntervalPartition((0, 3, 3))


def test_interval_json_round_trip():
    p = IntervalPartition((0, 2, 5))
    assert IntervalPartition.from_json(p.to_json()) == p
    assert p.to_json() == {"endpoints": [0, 2, 5]}


# === domination ===


def test_dominates_refuses_a_negative_window():
    outer = IntervalPartition((0, 5))
    inner = IntervalPartition((0, 2, 5))
    with pytest.raises(ValueError, match="window is -1"):
        dominates(outer, inner, -1)
    assert dominates(outer, inner, 0) == (0, None)


def test_coarse_dominates_fine():
    outer = IntervalPartition((0, 4, 8, 12))
    inner = IntervalPartition((0, 2, 4, 6, 8, 10, 12))
    assert dominates(outer, inner, 12) == (0, None)


def test_fine_fails_against_coarse():
    outer = IntervalPartition((0, 2, 4, 6, 8, 10, 12))
    inner = IntervalPartition((0, 4, 8, 12))
    count, last = dominates(outer, inner, 12)
    assert count == 6 and last == 5


def test_domination_is_about_whole_blocks():
    outer = IntervalPartition((0, 3, 6))
    inner = IntervalPartition((0, 2, 7))

    # [0,3) contains [0,2) but [3,6) holds no complete inner block
    assert dominates(outer, inner, 6) == (1, 1)


def test_window_truncates_the_tail():
    outer = IntervalPartition((0, 2, 40))
    inner = IntervalPartition((0, 1, 2, 40))
    count, last = dominates(outer, inner, 3)
    assert count == 0 and last is None


# === fixed-point-free function from a partition ===


def test_parity_partition_function():
    part = PartitionIntoParts(10, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1))
    fn = partition_function(part)
    assert fn.values == (1, 2, 0, 1, 0, 1, 0, 1, 0, 1)
    assert all(v != x for x, v in enumerate(fn.values))


def test_partition_function_finds_no_fixed_point_anywhere():
    for seed in range(30):
        rng_fn = random_fpf_function(seed, 15)
        parts = tuple(v % 4 for v in rng_fn.values)
        part = PartitionIntoParts(15, parts)
        fn = partition_function(part)
        for k in range(15):
            assert fn.values[k] != k
            expected = parts[k] if parts[k] != k else k + 1
            assert fn.values[k] == expected


def test_parts_json_round_trip():
    # the document `partition fp` reads; no report prints a partition back
    doc = {"n": 4, "parts": [0, 0, 1, 1]}
    assert PartitionIntoParts.from_json(doc) == PartitionIntoParts(4, (0, 0, 1, 1))


# === escape intervals ===


def test_successor_escapes_in_pairs():
    fn = FiniteFunction([k + 1 for k in range(8)])
    assert escape_intervals(fn).endpoints == (0, 2, 4, 6, 8)


def test_shift_by_five_escapes_in_sixes():
    fn = FiniteFunction([k + 5 for k in range(18)])
    assert escape_intervals(fn).endpoints == (0, 6, 12, 18)


def test_swaps_escape_in_pairs():
    fn = FiniteFunction([1, 0, 3, 2, 5, 4])
    assert escape_intervals(fn).endpoints == (0, 2, 4, 6)


def test_escape_rejects_non_injective():
    with pytest.raises(ValueError):
        escape_intervals(FiniteFunction([1, 0, 0]))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 200))
def test_escape_blocks_pass_direct_rescan(seed, n):
    fn = random_fpf_function(seed, n, injective=True)
    partition = escape_intervals(fn)
    assert verify_escape(partition, fn) == ()


def test_rescan_catches_planted_bad_block():
    fn = FiniteFunction([k + 5 for k in range(18)])
    too_fine = IntervalPartition((0, 3, 12, 18))
    bad = verify_escape(too_fine, fn)
    assert bad, "a block boundary inside an image range must be flagged"


def _escape_reference(fn):
    """The recurrence with a full rescan per block, O(N * blocks)."""
    n = fn.window
    ends = [0]
    while ends[-1] < n:
        h = ends[-1]
        top = h
        for x in range(h + 1):
            top = max(top, fn.values[x])
        for x in range(n):
            if fn.values[x] <= h:
                top = max(top, x)
        ends.append(min(top + 1, n))
    return tuple(ends)


def _violations_reference(ends, fn):
    """Every point against every endpoint pair inside the window."""
    n = fn.window
    bad = []
    for i in range(len(ends) - 1):
        h, nxt = ends[i], ends[i + 1]
        if nxt >= n:
            continue
        for x in range(h + 1):
            if fn.values[x] >= nxt:
                bad.append((i, x, fn.values[x]))
        for x in range(n):
            if fn.values[x] <= h and x >= nxt:
                bad.append((i, x, fn.values[x]))
    return tuple(bad)


def _shift(k, n):
    return FiniteFunction([x + k for x in range(n)])


def test_escape_matches_reference_on_seeded_functions():
    for seed in range(300):
        fn = random_fpf_function(seed, 2 + seed % 150, injective=True)
        partition = escape_intervals(fn)
        assert partition.endpoints == _escape_reference(fn)
        assert verify_escape(partition, fn) == ()


def test_escape_matches_reference_on_shifts():
    for k in range(1, 6):
        for n in (k + 1, 2 * k + 1, 37, 120):
            fn = _shift(k, n)
            partition = escape_intervals(fn)
            assert partition.endpoints == _escape_reference(fn)
            assert verify_escape(partition, fn) == ()


def test_violations_match_reference_on_planted_partitions():
    rng = random.Random(20240)
    flagged = 0
    for seed in range(400):
        n = rng.randint(2, 60)
        fn = random_fpf_function(seed, n, injective=True)
        for _ in range(5):
            # endpoints may run past the window, up to n + 3
            inner = rng.sample(range(1, n + 4), rng.randint(1, min(n, 10)))
            ends = (0, *sorted(inner))
            got = verify_escape(IntervalPartition(ends), fn)
            assert got == _violations_reference(ends, fn)
            flagged += bool(got)
    assert flagged > 1000


def test_violations_match_reference_on_too_fine_shift_blocks():
    for k in range(1, 6):
        fn = _shift(k, 40)
        ends = tuple(range(0, 41, k))
        got = verify_escape(IntervalPartition(ends), fn)
        assert got and got == _violations_reference(ends, fn)


def test_escape_and_maximality_scale_linearly():
    # the O(N * blocks) versions need tens of seconds here
    n = 20000
    fn = _shift(1, n)
    start = time.perf_counter()
    partition = escape_intervals(fn)
    assert verify_escape(partition, fn) == ()
    found = max_free_subset([fn], n, "greedy")
    assert is_maximal_free(found, [fn], n)
    assert time.perf_counter() - start < 5.0
    assert partition.block_count == n // 2
    assert found.elements == tuple(range(0, n, 2))


def test_localized_function_frozen_example():
    g = FiniteFunction([2, 2, 3, 5, 5, 6, 8, 8, 9, 5])
    a = Subset.of(10, [0, 3, 6, 9])
    fn = localized_function(g, a)
    assert fn.values == (2, 2, 3, 5, 5, 6, 8, 8, 9, 10)


def test_localization_agreement_partition():
    # the same-block points 0, 1, 3, 4, 6 and 7 follow g; the rest take
    # the successor, which g itself takes at 2, 5 and 8
    g = FiniteFunction([2, 2, 3, 5, 5, 6, 8, 8, 9, 5])
    a = Subset.of(10, [0, 3, 6, 9])
    fn = localized_function(g, a)
    assert verify_localization(g, a, fn) == ()
    agree = tuple(i for i in range(g.window) if fn.values[i] == g.values[i])
    assert agree == (0, 1, 2, 3, 4, 5, 6, 7, 8)


def test_verify_localization_names_one_wrong_point_in_each_branch():
    g = FiniteFunction([2, 2, 3, 5, 5, 6, 8, 8, 9, 5])
    a = Subset.of(10, [0, 3, 6, 9])
    values = list(localized_function(g, a).values)
    follows = FiniteFunction(values[:4] + [6] + values[5:])
    assert verify_localization(g, a, follows) == ((4, "should follow g"),)
    successor = FiniteFunction(values[:9] + [0])
    assert verify_localization(g, a, successor) == ((9, "should take successor"),)
    both = FiniteFunction([values[0], 0] + values[2:4] + [6] + values[5:])
    assert verify_localization(g, a, both) == (
        (1, "should follow g"),
        (4, "should follow g"),
    )
    # 9 lies past the last block, so following g there is wrong too
    wrapped = FiniteFunction(values[:9] + [5])
    assert verify_localization(g, a, wrapped) == ((9, "should take successor"),)


def test_verify_localization_refuses_a_window_other_than_gs():
    # one pair, at the first point one window has and the other lacks
    g = FiniteFunction([2, 2, 3, 5, 5, 6, 8, 8, 9, 5])
    a = Subset.of(10, [0, 3, 6, 9])
    values = list(localized_function(g, a).values)
    longer = FiniteFunction(values + [11])
    assert verify_localization(g, a, longer) == ((10, "window differs from g's"),)
    shorter = FiniteFunction(values[:9])
    assert verify_localization(g, a, shorter) == ((9, "window differs from g's"),)


def test_localized_needs_two_anchors():
    g = FiniteFunction([1, 2, 0])
    with pytest.raises(ValueError):
        localized_function(g, Subset.of(3, [0]))
