"""Exact-arithmetic matrices and fragmentation search.

verify_fragmentation is the one fragmentation predicate: it is checked
against row sums computed here by definition, and the 0-1 bridge ties it
back to the edge scan from funcgraph. Searches are certified by it,
never by their own bookkeeping.
"""

from __future__ import annotations

import ast
import re
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeset_lab import rosenthal
from freeset_lab.freesets import max_free_subset
from freeset_lab.funcgraph import (
    FiniteFunction,
    Lcg64,
    Subset,
    image_overlap,
    random_fpf_function,
)
from freeset_lab.rosenthal import (
    EXACT_DIM_CAP,
    GREEDY_BITS_CAP,
    Fragmentation,
    RosenthalMatrix,
    find_fragmenting_set,
    function_to_matrix,
    parse_fraction,
    verify_fragmentation,
)


def _matrix(entries, bound="1"):
    rows = len(entries)
    cols = len(entries[0])
    return RosenthalMatrix(
        rows,
        cols,
        tuple(tuple(Fraction(e) for e in row) for row in entries),
        Fraction(bound),
    )


# === construction and serialization ===


def test_rejects_row_sum_over_bound():
    with pytest.raises(ValueError):
        _matrix([["1/2", "2/3"]])


def test_rejects_negative_entry():
    with pytest.raises(ValueError):
        _matrix([["-1/2", "0"]])


def test_json_round_trip():
    m = _matrix([["1/2", "1/2", "0"], ["0", "1/3", "2/3"]])
    again = RosenthalMatrix.from_json(m.to_json())
    assert again == m
    assert m.to_json()["entries"][0] == ["1/2", "1/2", "0"]


def test_fraction_helpers():
    assert parse_fraction("3/6") == Fraction(1, 2)
    assert parse_fraction("3") == 3
    assert parse_fraction("-1/2") == Fraction(-1, 2)
    assert parse_fraction("0.25") == Fraction(1, 4)
    assert parse_fraction("1e-3") == Fraction(1, 1000)
    assert parse_fraction("2E+0004299") == 2 * 10**4299


# rows of valid entries whose integer form passes the cap: three denominators
# with an LCM of about 5700 digits, and two with an LCM of about 3850 digits
# under a scaled sum of about 6240 digits
@pytest.mark.parametrize(
    "row, bound",
    [
        (["0", f"1/{3**4000}", f"1/{7**2300}", f"1/{11**1800}"], "1"),
        (["0", f"{10**4299 - 1}/{3**4000}", f"1/{7**2300}", "0"], str(10**4299)),
        (["0", f"{10**4299 - 1}/{3**4000}", f"1/{7**2300}", "0"], "1"),
    ],
    ids=["scale", "sum", "sum-over-bound"],
)
def test_rows_past_the_integer_cap_are_refused(row, bound):
    with pytest.raises(ValueError, match="past the cap of 4300"):
        _matrix([row] + [["0"] * 4] * 3, bound)


@pytest.mark.parametrize(
    "text",
    [
        "1e4301",
        "1e-4301",
        " 5e99999999999 ",
        "2E+4300",
        "1e-4300",
        "12345e4296",
    ],
)
def test_exponent_past_the_cap_is_refused(text):
    with pytest.raises(ValueError, match="past the cap of 4300"):
        parse_fraction(text)


# Fraction reads underscores from Python 3.11 on and spaces around "/" from
# 3.12 on; 3.10 refuses both, so every version must
@pytest.mark.parametrize("text", ["1_0", "1 /2", "1/ 2", "1_0/0", "1E+1_0000"])
def test_underscores_and_inner_spaces_are_refused(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        parse_fraction(text)


# === fragmentation predicate ===


def test_verifier_matches_row_sums_by_definition():
    one = Fraction(1)
    matrices = [
        *(function_to_matrix(random_fpf_function(s, 8, True)) for s in range(20)),
        *(_rational_matrix(seed, 6 + seed % 3) for seed in range(4)),
        _prime_matrix(),
    ]
    for m in matrices:
        for mask in range(1, 1 << m.dim):
            a = Subset(m.dim, tuple(i for i in range(m.dim) if mask >> i & 1))
            sums = [
                (k, sum(m.entries[k][j] for j in a.elements if j != k))
                for k in a.elements
            ]
            epss = [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), one, Fraction(3, 2)]
            # the first row's own off-diagonal sum as eps: a sum equal to eps fails
            tie = sums[0][1]
            if tie:
                assert verify_fragmentation(m, a, tie) == Fragmentation(*sums[0])
                epss.append(tie)
            for eps in epss:
                failing = [(k, total) for k, total in sums if total >= eps]
                want = failing[0] if failing else (None, None)
                assert verify_fragmentation(m, a, eps) == Fragmentation(*want)


def _small_matrices():
    """Every matrix of at most 2 x 2 with entries in {0, 1/2, 1}, and every
    3 x 3 0-1 matrix."""
    halves = (Fraction(0), Fraction(1, 2), Fraction(1))
    shapes = [(rows, cols, halves) for rows in (1, 2) for cols in (1, 2)]
    for rows, cols, values in [*shapes, (3, 3, halves[::2])]:
        for cells in product(values, repeat=rows * cols):
            entries = tuple(cells[r * cols : (r + 1) * cols] for r in range(rows))
            yield RosenthalMatrix(rows, cols, entries, Fraction(3))


def test_verify_fragmentation_is_exact_on_every_small_matrix():
    # A fragments at eps when every row of A sums to less than eps over
    # the rest of A; the first row that does not is the witness
    matrices = checks = 0
    for m in _small_matrices():
        matrices += 1
        for mask in range(1 << m.dim):
            elements = tuple(i for i in range(m.dim) if mask >> i & 1)
            a = Subset(m.dim, elements)
            sums = [
                (k, sum(m.entries[k][j] for j in set(elements) - {k}))
                for k in elements
            ]
            for eps in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                failing = [(k, total) for k, total in sums if total >= eps]
                want = failing[0] if failing else (None, None)
                got = verify_fragmentation(m, a, eps)
                assert got == Fragmentation(*want), (m, elements, eps)
                checks += 1
    assert matrices == 614 and checks == 13386


def test_failure_reports_offending_row():
    m = _matrix([["0", "1"], ["1", "0"]])
    a = Subset(2, (0, 1))
    res = verify_fragmentation(m, a, Fraction(1))
    assert not res.ok
    assert res.witness_row == 0
    assert res.witness_sum == 1


def test_verifier_refuses_sets_past_the_square_and_nonpositive_eps():
    # a 2 x 3 matrix: column 2 has no row, so a set holding 2 is refused
    m = _matrix([["0", "1/2", "1/2"], ["1/2", "0", "1/2"]])
    with pytest.raises(ValueError, match=r"element 2 outside \[0, 2\)"):
        verify_fragmentation(m, Subset(3, (0, 2)), Fraction(1))
    with pytest.raises(ValueError, match="eps must be positive"):
        verify_fragmentation(m, Subset(2, (0,)), Fraction(0))


def test_diagonal_entries_do_not_count():
    m = _matrix([["1", "0"], ["0", "1"]])
    a = Subset(2, (0, 1))

    # row k only sums entries at columns in A minus column k itself
    assert verify_fragmentation(m, a, Fraction(1, 2)).ok


# === the 0-1 bridge ===


def test_bridge_on_all_subsets_of_small_windows():
    for n in (3, 5, 8):
        for seed in range(10):
            fn = random_fpf_function(seed, n)
            m = function_to_matrix(fn)
            for mask in range(1, 1 << n):
                a = Subset(n, tuple(i for i in range(n) if mask >> i & 1))
                free = not image_overlap(a, fn).elements
                assert verify_fragmentation(m, a, Fraction(1)).ok == free


def test_function_matrix_shape():
    fn = FiniteFunction([1, 5, 0])
    m = function_to_matrix(fn)
    assert m.entries[0][1] == 1
    assert all(e == 0 for e in m.entries[1])  # boundary edge leaves a zero row
    assert m.entries[2][0] == 1
    assert m.row_bound == 1


# === monotonicity ===


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_fragmentation_is_downward_closed(seed, n):
    fn = random_fpf_function(seed, n, injective=True)
    m = function_to_matrix(fn)
    rng_elems = [i for i in range(n) if (seed >> i) & 1]
    if not rng_elems:
        rng_elems = [0]
    a = Subset(n, tuple(rng_elems))
    if verify_fragmentation(m, a, Fraction(1)).ok and len(rng_elems) > 1:
        smaller = Subset(n, tuple(rng_elems[:-1]))
        assert verify_fragmentation(m, smaller, Fraction(1)).ok


# === search ===


def _prime_matrix():
    """Rows over distinct prime denominators, so a row's LCM is not its
    largest denominator; at ε = 5/6, row 3 sums to exactly 1/2 + 1/3 over
    (0, 1, 3, 4), which is the maximum just above 5/6 but not at it."""
    return _matrix(
        [
            ["0", "1/2", "1/3", "1/5", "0"],
            ["1/3", "0", "1/5", "0", "1/7"],
            ["1/5", "1/7", "0", "1/11", "1/2"],
            ["1/2", "0", "1/13", "0", "1/3"],
            ["1/7", "1/2", "1/3", "0", "0"],
        ],
        "2",
    )


# row 0 sums to exactly 1/2 over the whole set, so at ε = 1/2 it never fragments
_EDGE = _matrix([["0", "1/3", "1/6"], ["0", "0", "0"], ["0", "0", "0"]])


def _search_cases():
    one = Fraction(1)
    cases = [
        (function_to_matrix(random_fpf_function(seed, 9, injective=True)), one)
        for seed in range(15)
    ]
    for seed in range(10):
        m = _rational_matrix(seed, 6 + seed % 5)
        cases += [(m, eps) for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), one)]
    for eps in (Fraction(1, 2), Fraction(8, 15), Fraction(5, 6), one):
        cases.append((_prime_matrix(), eps))
    cases.append((_EDGE, Fraction(1, 2)))
    for seed in range(4):
        cases += [(m, eps) for m in _rectangular(seed) for eps in (Fraction(1, 4), one)]
    # ties everywhere: uniform and block-diagonal matrices, where the room
    # left in each joining row closes most branches
    for dim, size, entry in product(range(3, 11), (2, 3, 4, 10), ("1/9", "1/4", "1/3")):
        m = _blocks(dim, size, Fraction(entry))
        cases += [(m, eps) for eps in (Fraction(1, 2), one)]
    # the same blocks spread over the window: the chosen rows with an entry
    # in a column are not contiguous, and ties cross blocks
    shapes = product((6, 8, 9), (2, 3, 4), ("1/4", "1/3"))
    for seed, (dim, size, entry) in enumerate(shapes):
        m = _interleaved(dim, size, Fraction(entry), seed)
        cases += [(m, eps) for eps in (Fraction(1, 2), one, Fraction(3, 2))]
    return cases


def _blocks(dim, size, entry):
    """entry off the diagonal of each block of size consecutive indices (the
    last block may be shorter), 0 elsewhere; one block of at least dim
    indices is the uniform matrix."""
    zero = Fraction(0)
    entries = tuple(
        tuple(entry if j != k and j // size == k // size else zero for j in range(dim))
        for k in range(dim)
    )
    return RosenthalMatrix(dim, dim, entries, max(1, entry * (size - 1)))


def _interleaved(dim, size, entry, seed):
    """_blocks(dim, size, entry) relabelled by a seeded shuffle, so that
    each block's indices lie apart from one another."""
    perm = list(range(dim))
    Lcg64(seed).shuffle(perm)
    m = _blocks(dim, size, entry)
    entries = tuple(tuple(m.entries[p][q] for q in perm) for p in perm)
    return RosenthalMatrix(dim, dim, entries, m.row_bound)


def _rectangular(seed):
    """A rational matrix grown by two columns past dim, whose entries carry
    denominators (17 to 37) no square entry has, so each row's scale spans
    more than the dim x dim square; and the same matrix grown by two rows."""
    m = _rational_matrix(seed, 6 + seed)
    fresh = [Fraction(1, p) for p in (17, 19, 23, 29, 31, 37)]
    wide = tuple(
        row + (fresh[k % 6], fresh[(k + 1) % 6]) for k, row in enumerate(m.entries)
    )
    extra = tuple(tuple(fresh[(k + j) % 6] for j in range(m.cols)) for k in range(2))
    two = Fraction(2)
    return (
        RosenthalMatrix(m.rows, m.cols + 2, wide, two),
        RosenthalMatrix(m.rows + 2, m.cols, m.entries + extra, two),
    )


def test_exact_search_finds_max_and_lex_min():
    for m, eps in _search_cases():
        got = find_fragmenting_set(m, eps, 1, "exact")
        assert got is not None
        assert verify_fragmentation(m, got, eps).ok

        # oracle: sweep all subsets for the largest, lex-smallest witness
        dim = m.dim
        best = ()
        for mask in range(1, 1 << dim):
            elems = tuple(i for i in range(dim) if mask >> i & 1)
            a = Subset(dim, elems)
            if verify_fragmentation(m, a, eps).ok:
                if len(elems) > len(best) or (
                    len(elems) == len(best) and elems < best
                ):
                    best = elems
        assert got.elements == best
    assert not verify_fragmentation(_EDGE, Subset(3, (0, 1, 2)), Fraction(1, 2)).ok
    assert find_fragmenting_set(_EDGE, Fraction(1, 2), 1, "exact").elements == (0, 1)


def _block_cycles(dim: int, c: int) -> FiniteFunction:
    """The permutation of [0, dim) that cycles each block of c consecutive
    points; a last point left alone joins the block before it."""
    starts = list(range(0, dim, c))
    if dim - starts[-1] == 1:
        starts.pop()
    values = [0] * dim
    for lo, hi in zip(starts, [*starts[1:], dim]):
        for x in range(lo, hi):
            values[x] = x + 1 if x + 1 < hi else lo
    return FiniteFunction(values)


def test_exact_search_at_eps_one_is_the_exact_max_free_set():
    # at ε = 1 a function's 0-1 matrix fragments exactly on its free sets,
    # so both exact searches must return the same lex-smallest optimum
    functions = [
        random_fpf_function(seed, dim, injective=seed % 2 == 0)
        for dim in (*range(10, 16), EXACT_DIM_CAP)
        for seed in range(4)
    ]
    # ties everywhere: 3-cycles, 2-cycles and the shift x -> x + 1
    for dim in range(10, 16):
        functions += [
            _block_cycles(dim, 3),
            _block_cycles(dim, 2),
            FiniteFunction(range(1, dim + 1)),
        ]
    for fn in functions:
        got = find_fragmenting_set(function_to_matrix(fn), Fraction(1), 1, "exact")
        assert got.elements == max_free_subset([fn], fn.window, "exact").elements


def test_exact_search_on_the_uniform_matrix_at_the_cap_is_quick():
    # every 11 of the 22 indices fragment at ε = 1/2, and no 12 do; a bound
    # of taken plus candidates alone expands every 11-set, for seconds
    m = _blocks(EXACT_DIM_CAP, EXACT_DIM_CAP, Fraction(1, EXACT_DIM_CAP - 1))
    start = time.perf_counter()
    got = find_fragmenting_set(m, Fraction(1, 2), 1, "exact")
    assert time.perf_counter() - start < 1.0
    assert got.elements == tuple(range(11))


def test_all_epsilon_matrix_has_no_pair():
    eps = Fraction(1, 3)
    m = _matrix([["1/3"] * 3] * 3)
    assert find_fragmenting_set(m, eps, 2, "exact") is None
    assert find_fragmenting_set(m, eps, 2, "greedy") is None


def test_swap_matrix_singletons_fragment():
    m = _matrix([["0", "1"], ["1", "0"]])
    got = find_fragmenting_set(m, Fraction(1), 1, "exact")
    assert got is not None and got.elements == (0,)


def test_greedy_search_is_certified():
    for seed in range(25):
        fn = random_fpf_function(seed, 16, injective=True)
        m = function_to_matrix(fn)
        got = find_fragmenting_set(m, Fraction(1), 2, "greedy")
        if got is not None:
            assert verify_fragmentation(m, got, Fraction(1)).ok
            assert len(got.elements) >= 2


def _rational_matrix(seed, dim):
    """Rows with 3 positive entries in random off-diagonal columns, each a
    random share (denominators 2..12) of at most half the row's remaining
    budget, so every row sums below 1."""
    rng = Lcg64(seed)
    rows = []
    for k in range(dim):
        row = [Fraction(0)] * dim
        budget = Fraction(1)
        cols = [j for j in range(dim) if j != k]
        rng.shuffle(cols)
        for j in cols[:3]:
            d = 2 + rng.below(11)
            v = Fraction(1 + rng.below(d), d) * budget / 2
            row[j] = v
            budget -= v
        rows.append(tuple(row))
    return RosenthalMatrix(dim, dim, tuple(rows), Fraction(1))


def test_greedy_search_on_rational_matrices_is_certified():
    for seed in range(20):
        m = _rational_matrix(seed, 6 + seed % 15)
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            got = find_fragmenting_set(m, eps, 1, "greedy")
            # every singleton fragments, so a set is always found
            assert got is not None
            assert len(got.elements) >= 1
            assert verify_fragmentation(m, got, eps).ok


def _greedy_reference(matrix, eps):
    """Greedy's rule from its docstring, in Fractions over matrix.entries:
    join the index whose addition keeps the largest off-diagonal row sum
    over the set smallest, ties to the lowest index, while that sum stays
    below eps. own[k] is row k over the chosen columns other than k."""
    rows = matrix.entries
    chosen, own = [], [Fraction(0)] * matrix.dim
    while True:
        scores = [
            (max([own[v], *(own[k] + rows[k][v] for k in chosen)]), v)
            for v in range(matrix.dim)
            if v not in chosen
        ]
        joinable = [pick for pick in scores if pick[0] < eps]
        if not joinable:
            return tuple(sorted(chosen))
        v = min(joinable)[1]
        own = [o + (rows[k][v] if k != v else 0) for k, o in enumerate(own)]
        chosen.append(v)


def test_greedy_search_joins_what_its_rule_picks():
    epsilons = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    cases = _search_cases()
    for dim in range(6, 21):
        cases += [(_rational_matrix(dim, dim), eps) for eps in epsilons]
    for dim in range(5, 41):
        fn = random_fpf_function(dim, dim, injective=dim % 2 == 0)
        cases.append((function_to_matrix(fn), Fraction(1)))
    for m, eps in cases:
        got = find_fragmenting_set(m, eps, 0, "greedy")
        assert got.elements == _greedy_reference(m, eps)


@pytest.mark.parametrize(
    "wide", [lambda k: Fraction(1, 2**k), lambda k: Fraction(2**k)], ids=["scale", "sum"]
)
def test_greedy_search_is_capped_by_dimension_cubed_times_row_bits(wide):
    # row 0 holds one entry, whose scale or scaled sum 2**k has k + 1 bits;
    # dim 25 is the least dim a row the fields allow can pass the cap at
    dim = 25
    k = GREEDY_BITS_CAP // dim**3 - 1
    under, past = (
        _matrix([[0, e, *[0] * (dim - 2)]] + [[0] * dim] * (dim - 1), max(e, 1))
        for e in (wide(k), wide(k + 1))
    )
    got = find_fragmenting_set(under, Fraction(1), 0, "greedy")
    assert got.elements == _greedy_reference(under, Fraction(1))
    with pytest.raises(ValueError, match=re.escape(f"not 25**3 x {k + 2}")):
        find_fragmenting_set(past, Fraction(1), 0, "greedy")


def test_greedy_search_takes_the_widest_rows_at_small_dims():
    # every row's scale has 14,284 bits, the most a field allows, and dim 10
    # is far under the cap
    dim, scale = 10, 2**14283
    entries = [[Fraction(j + 1, scale) * (j != k) for j in range(dim)] for k in range(dim)]
    m = _matrix(entries)
    assert max(m.scales).bit_length() == 14284
    got = find_fragmenting_set(m, Fraction(1), 0, "greedy")
    assert got.elements == _greedy_reference(m, Fraction(1)) == tuple(range(dim))
    # a diagonal entry never enters a score, so its width is not counted
    wide = [[Fraction(2**14000) if j == k == 0 else 0 for j in range(25)] for k in range(25)]
    got = find_fragmenting_set(_matrix(wide, 2**14000), Fraction(1), 0, "greedy")
    assert got.elements == tuple(range(25))


def _named_in(function: str) -> tuple[set, set]:
    """The module-level functions of rosenthal that `function` names, and
    the attributes it reads off `matrix`."""
    tree = ast.parse(Path(rosenthal.__file__).read_text(encoding="utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    nodes = list(ast.walk(defs[function]))
    named = {n.id for n in nodes if isinstance(n, ast.Name) and n.id in defs}
    read = {
        n.attr
        for n in nodes
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "matrix"
    }
    return named, read


def test_verifier_shares_no_code_with_the_searches():
    # the verifier certifies both search modes from the entries alone
    assert _named_in("verify_fragmentation") == (set(), {"entries"})


def test_searches_read_only_the_scaled_rows():
    # both modes search the integer rows of the dim x dim square
    read = {"dim", "scaled", "scales"}
    assert _named_in("find_fragmenting_set") == (set(), read)


def test_exact_refuses_oversized_instance():
    fn = random_fpf_function(0, 23, injective=True)
    with pytest.raises(ValueError):
        find_fragmenting_set(function_to_matrix(fn), Fraction(1), 1, "exact")
