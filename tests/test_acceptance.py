"""Acceptance gate: one criterion per test, one verdict line each.

Each test prints "criterion K: PASS/FAIL - detail" before asserting, so
the transcript always shows every verdict. Budgets are wall-clock
seconds measured around the whole criterion.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from itertools import product

from freeset_lab.boundedfam import (
    bad_set,
    build_block_system,
    build_ed_blocks,
    constant_growth,
    meeting_function,
    selector_free_check,
    shadow_set,
    verify_freeness_claim,
    verify_meeting,
    verify_shadows,
)
from freeset_lab.cli import main as cli_main
from freeset_lab.freesets import katetov_partition, max_free_subset, verify_coloring
from freeset_lab.funcgraph import (
    Lcg64,
    Subset,
    image_overlap,
    random_fpf_function,
)
from freeset_lab.involutions import decompose_into_involutions, verify_decomposition
from freeset_lab.partitions import escape_intervals, verify_escape
from freeset_lab.rosenthal import (
    find_fragmenting_set,
    function_to_matrix,
    verify_fragmentation,
)


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_involution_cover():
    started = time.perf_counter()
    unexplained_total = 0
    for i in range(200):
        fn = random_fpf_function(1000 + i, 1000, injective=True)
        res = decompose_into_involutions(fn)
        ok, unexplained = verify_decomposition(fn, res)
        if not ok:
            unexplained_total += max(1, len(unexplained))
        unexplained_total += len(unexplained)
    elapsed = time.perf_counter() - started
    ok = unexplained_total == 0 and elapsed <= 10.0
    _verdict(
        1,
        ok,
        f"200 x N=1000 decompositions, {unexplained_total} unexplained edges, "
        f"{elapsed:.2f}s (budget 10s)",
    )
    assert unexplained_total == 0
    assert elapsed <= 10.0


def test_criterion_2_three_class_partition():
    started = time.perf_counter()
    violations = 0
    for i in range(200):
        fn = random_fpf_function(2000 + i, 1000)
        violations += len(verify_coloring(katetov_partition(fn), fn))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed <= 5.0
    _verdict(
        2,
        ok,
        f"200 x N=1000 colorings, {violations} monochromatic edges, "
        f"{elapsed:.2f}s (budget 5s)",
    )
    assert violations == 0
    assert elapsed <= 5.0


def test_criterion_3_matrix_bridge():
    mismatches = 0
    checked = 0
    for n in range(1, 13):
        for s in range(50):
            fn = random_fpf_function(3000 + 100 * n + s, n)
            matrix = function_to_matrix(fn)
            for mask in range(1, 1 << n):
                a = Subset(n, tuple(i for i in range(n) if mask >> i & 1))
                checked += 1
                free = not image_overlap(a, fn).elements
                if verify_fragmentation(matrix, a, Fraction(1)).ok != free:
                    mismatches += 1
    ok = mismatches == 0
    _verdict(
        3,
        ok,
        f"bridge holds on {checked} subsets across N=1..12, {mismatches} mismatches",
    )
    assert mismatches == 0


def test_criterion_4_block_system_claims():
    started = time.perf_counter()
    system = build_block_system(constant_growth(2, 2), 2)
    prefix = system.j_starts[-1]
    violations = 0
    for i in range(200):
        fn = random_fpf_function(4000 + i, prefix, injective=True)
        shadows = [shadow_set(system, fn, n) for n in range(system.depth)]
        # |S_f(n)| <= 2 * start(J_n) < |I_n|, both bounds from the system
        for n, s in enumerate(shadows):
            lo, hi = system.interval(n)
            if not len(s.elements) <= 2 * system.j_starts[n] < hi - lo:
                violations += 1
        violations += len(verify_shadows(system.j_starts, fn, shadows))
        ell = meeting_function(system, shadows)
        violations += len(verify_meeting(system, shadows, ell))
        for h in product(range(2), repeat=6):
            claim = verify_freeness_claim(system, fn, list(h))
            violations += len(claim.uncertified)
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed <= 60.0
    _verdict(
        4,
        ok,
        f"64 coded sets x 200 functions on the 34-point prefix, "
        f"{violations} violations, {elapsed:.2f}s (budget 60s)",
    )
    assert violations == 0
    assert elapsed <= 60.0


def _ed_instances():
    blocks = build_ed_blocks(4)
    prefix = blocks.starts[-1]
    for i in range(200):
        fn = random_fpf_function(6000 + i, prefix, injective=True)
        yield blocks, prefix, i, fn


def test_criterion_5_measured_blocks():
    blocks = build_ed_blocks(4)
    shape_ok = blocks.sizes == (1, 2, 12, 90, 840) and blocks.unit_masses == (
        Fraction(0),
        Fraction(1),
        Fraction(1, 3),
        Fraction(1, 15),
        Fraction(1, 105),
    )
    heavy = 0
    mismatched = 0
    for blocks, prefix, i, fn in _ed_instances():
        bads = [bad_set(blocks, fn, n) for n in range(blocks.block_count())]
        heavy += sum(b.mass > 2 for b in bads)
        # B_f(n) is S_f(n) over the measured blocks
        mismatched += len(verify_shadows(blocks.starts, fn, bads))
    ok = shape_ok and heavy == 0 and mismatched == 0
    _verdict(
        5,
        ok,
        f"sizes 1,2,12,90,840 with masses 1,1/3,1/15,1/105: {shape_ok}; "
        f"{heavy} overweight and {mismatched} wrong bad sets over 200 functions",
    )
    assert shape_ok
    assert heavy == 0
    assert mismatched == 0


def test_criterion_6_selector_freeness():
    crossings = 0
    selectors = 0
    for blocks, prefix, i, fn in _ed_instances():
        bads = [bad_set(blocks, fn, n) for n in range(blocks.block_count())]
        flagged = [set(b.elements) for b in bads]
        rng = Lcg64(9000 + i)
        for _ in range(100):
            chosen = []
            for n in range(1, blocks.block_count()):
                lo, hi = blocks.starts[n], blocks.starts[n + 1]
                pool = [x for x in range(lo, hi) if x not in flagged[n]]
                if pool:
                    chosen.append(pool[rng.below(len(pool))])
            report = selector_free_check(
                blocks, fn, Subset.of(prefix, chosen), bads
            )
            selectors += 1
            crossings += len(report.cross_block_edges)
    ok = crossings == 0
    _verdict(
        6,
        ok,
        f"{selectors} selectors dodging every bad set, {crossings} cross-block edges",
    )
    assert crossings == 0


def test_criterion_7_constructor_vs_verifier():
    disagreements = 0
    count = 0

    # 400 colorings, every class certified free by the exhaustive search
    for i in range(400):
        n = 2 + i % 11
        fn = random_fpf_function(7000 + i, n)
        col = katetov_partition(fn)
        count += 1
        if verify_coloring(col, fn):
            disagreements += 1
            continue
        exact = max_free_subset([fn], n, mode="exact")
        for c in range(3):
            cls = col.color_class(c)
            if image_overlap(cls, fn).elements != ():
                disagreements += 1
            if len(cls.elements) > len(exact.elements):
                disagreements += 1

    # 300 greedy fragmenting searches certified by the dense recheck
    for i in range(300):
        n = 4 + i % 9
        fn = random_fpf_function(8000 + i, n, injective=True)
        matrix = function_to_matrix(fn)
        count += 1
        found = find_fragmenting_set(matrix, Fraction(1), 1, "greedy")
        if found is None:
            disagreements += 1  # a singleton always fragments a 0-1 matrix at 1
            continue
        if not verify_fragmentation(matrix, found, Fraction(1)).ok:
            disagreements += 1

    # 300 escape partitions, each endpoint checked against the recurrence
    for i in range(300):
        n = 2 + i % 11
        fn = random_fpf_function(8500 + i, n, injective=True)
        count += 1
        if verify_escape(escape_intervals(fn), fn):
            disagreements += 1

    ok = disagreements == 0 and count == 1000
    _verdict(
        7,
        ok,
        f"{count} instances across colorings, fragmenting searches, and "
        f"escape partitions, {disagreements} disagreements",
    )
    assert count == 1000
    assert disagreements == 0


TIMING = re.compile(r'"elapsed_seconds": [0-9.e+-]+')


def test_criterion_8_batch_determinism(capsys):
    args = [
        "batch",
        "--op",
        "involutions-decompose",
        "--seed",
        "123",
        "--count",
        "40",
        "--n",
        "200",
    ]
    assert cli_main(list(args)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    second = capsys.readouterr().out
    identical = TIMING.sub("T", first) == TIMING.sub("T", second)
    doc = json.loads(first)
    ok = identical and doc["ok"]
    _verdict(
        8,
        ok,
        f"two identical-seed batch runs, byte-identical modulo timing: {identical}",
    )
    assert identical
    assert doc["ok"]
