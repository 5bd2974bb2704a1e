"""The workloads: inputs made from a seed, the ops, and their checks.

An op is the unit each workload times. Every op's output is checked, and
a check returns the list of what was wrong, empty when the op is correct.

- structured: one constructor plus its verifier on a hard input,
  in-process: shift-k functions through escape intervals and greedy
  maximal free sets, case-2 derangements through the involution cover,
  and the coded and measured block systems.
- oneshot: one CLI child per subcommand path (two for involutions
  decompose) on input files written during set-up; what an interactive
  user pays per call. It is the timed path into rosenthal's exact search
  and check, exact free sets, and a batch on the default thread pool.

There is no timed workload of large seeded batches or of exact searches:
on a shared 2-core host the run-to-run spread of their throughput
(batch children on the CLI's default thread pool, Fraction-heavy
searches) reached a quarter to a third of its median. The traced rows
still time every batch op at N = 10^3, 10^4 and 10^5, the pool against
one thread, and the exact and greedy fragmenting searches at dim 22.

A round is a fixed list of ops. Timed runs repeat whole rounds, so every
run sees the same mix of op sizes whatever its length.

Each workload also has a reference: fixed work that runs no program code
and costs what the workload's ops cost in kind (structured: a pure-Python
loop over a list, a set and a dict; oneshot: an isolated bare interpreter
start). Timed runs time it right before each op to gauge how fast the
shared host runs at that moment. Set-ups run in-process in both
workloads, so the loop gauges them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Optional

import program

program.load()

from freeset_lab import cli  # noqa: E402
from freeset_lab.boundedfam import (  # noqa: E402
    bad_set,
    build_block_system,
    build_ed_blocks,
    constant_growth,
    meeting_function,
    selector_free_check,
    shadow_set,
    verify_freeness_claim,
    verify_meeting,
)
from freeset_lab.freesets import (  # noqa: E402
    is_maximal_free,
    katetov_partition,
    max_free_subset,
    verify_coloring,
)
from freeset_lab.funcgraph import (  # noqa: E402
    FiniteFunction,
    Lcg64,
    Subset,
    orbit_decomposition,
    random_fpf_function,
    verify_orbits,
)
from freeset_lab.involutions import (  # noqa: E402
    decompose_into_involutions,
    verify_decomposition,
)
from freeset_lab.partitions import escape_intervals, verify_escape  # noqa: E402
from freeset_lab.rosenthal import (  # noqa: E402
    RosenthalMatrix,
    find_fragmenting_set,
    function_to_matrix,
    verify_fragmentation,
)

from tracing import NULL, NullTracer, Tracer, patched_cli  # noqa: E402

@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload and traced row."""

    shift_escape: tuple[tuple[int, int], ...]  # (k, n)
    shift_greedy: tuple[tuple[int, int], ...]  # (k, n)
    derangements: tuple[int, ...]  # odd n
    coded_ops: int
    measured_ops: int
    measured_depth: int
    selectors: int
    family_window: int
    oneshot_n: int
    oneshot_dim: int
    # traced rows
    scale_ns: tuple[int, ...]
    scale_points: int
    shift_ks: tuple[int, ...]
    shift_ns: tuple[int, ...]
    baseline_n: int
    baseline_dim: int
    pool_batch: tuple[int, int]  # (count, n)
    probe_reps: int


# Timed rounds leave out the largest hard inputs (x+3 escape at N = 8000,
# a case-2 derangement at N = 10^5): one such op costs seconds, so a 20 s
# run would rest on a handful of samples. The traced rows time the escape
# at N = 8000.
FULL = Sizes(
    shift_escape=tuple((k, n) for n in (1000, 2000, 4000) for k in (1, 2, 3)),
    shift_greedy=tuple((k, n) for n in (1000, 2000, 4000, 8000) for k in (1, 2, 3)),
    derangements=(10_001, 30_001, 60_001),
    coded_ops=40,
    measured_ops=8,
    measured_depth=4,
    selectors=100,
    family_window=24,
    oneshot_n=10_000,
    oneshot_dim=16,
    scale_ns=(1_000, 10_000, 100_000),
    scale_points=100_000,
    shift_ks=(1, 2, 3),
    shift_ns=(1000, 2000, 4000, 8000),
    baseline_n=4000,
    baseline_dim=22,
    pool_batch=(200, 5000),
    probe_reps=5,
)

# For the benchmark's own tests: every code path, in well under a second.
TINY = Sizes(
    shift_escape=((1, 40), (3, 80)),
    shift_greedy=((2, 40), (3, 80)),
    derangements=(101, 301),
    coded_ops=2,
    measured_ops=2,
    measured_depth=2,
    selectors=5,
    family_window=10,
    oneshot_n=300,
    oneshot_dim=8,
    scale_ns=(100, 1000),
    scale_points=1000,
    shift_ks=(1, 3),
    shift_ns=(40, 80),
    baseline_n=200,
    baseline_dim=10,
    pool_batch=(4, 200),
    probe_reps=1,
)


@dataclass
class Op:
    label: str
    run: Callable[[NullTracer], Any]
    check: Callable[[Any], list[str]]
    # In-process stand-in for an op that starts a CLI child, used by the
    # traced replay.
    replay: Optional[Callable[[NullTracer], Any]] = None


# === checks ===


def check_cli(code: int, text: str, expect_exit: int = 0, count: Optional[int] = None) -> list[str]:
    """Exit code and `ok` of one report; for a batch, passed == count."""
    fails = []
    if code != expect_exit:
        fails.append(f"exit code {code}, expected {expect_exit}")
    try:
        doc = json.loads(text)
    except ValueError:
        return fails + ["report is not JSON"]
    if not isinstance(doc, dict):
        return fails + ["report is not a JSON object"]
    if doc.get("ok") is not (expect_exit == 0):
        fails.append(f"ok is {doc.get('ok')!r}")
    if count is not None:
        result = doc.get("result") or {}
        if result.get("passed") != count:
            fails.append(f"batch passed {result.get('passed')!r} of {count}")
        if len(doc.get("instances") or ()) != count:
            fails.append("batch instance count differs from --count")
    return fails


def check_search(found, verdict, oracle=None) -> list[str]:
    """A search found a set, the dense verifier accepts it, and at ε = 1 it
    equals the exact maximum free set."""
    if found is None:
        return ["search returned no set"]
    fails = []
    if not verdict.ok:
        fails.append(f"row {verdict.witness_row} sums to {verdict.witness_sum}")
    if oracle is not None and oracle.elements != found.elements:
        fails.append(f"fragmenting set {found.elements} != max free set {oracle.elements}")
    return fails


def check_count(what: str, count: int) -> list[str]:
    return [f"{count} {what}"] if count else []


def check_empty(what: str, items) -> list[str]:
    return check_count(what, len(items))


# === input generators ===


def shift(tr: NullTracer, k: int, n: int) -> FiniteFunction:
    """x -> x + k on [0, n); the last k points exit the window."""
    return tr.call(FiniteFunction, tuple(range(k, n + k)))


def derangement(tr: NullTracer, rng: Lcg64, n: int) -> FiniteFunction:
    """A permutation of [0, n) into cycles of length 2..10 over shuffled points.

    It has no path, and for odd n the cycle lengths sum to an odd number,
    so the count of odd cycles is odd: the involution cover's case 2.
    """
    points = list(range(n))
    rng.shuffle(points)
    values = [0] * n
    i = 0
    while i < n:
        length = 2 + rng.below(9)
        if n - i - length < 2:
            length = n - i
        cycle = points[i : i + length]
        for j, x in enumerate(cycle):
            values[x] = cycle[(j + 1) % length]
        i += length
    return tr.call(FiniteFunction, tuple(values))


def rational_matrix(tr: NullTracer, rng: Lcg64, dim: int) -> RosenthalMatrix:
    """Rows with 3 positive entries in random columns off the diagonal,
    each taking a random share (denominators 2..12) of at most half the
    row's remaining budget, so every row sums below 1."""
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
    return tr.call(RosenthalMatrix, dim, dim, tuple(rows), Fraction(1))


def seed_stream(seed: int):
    """An endless stream of instance seeds drawn from the workload seed."""
    rng = Lcg64(seed)
    while True:
        yield rng.next_u32()


# === in-process CLI ===


@contextlib.contextmanager
def _serial_batches():
    # The traced replay runs batch instances on the calling thread, so
    # their spans nest under cli.main.
    old = os.environ.get("FREESET_LAB_THREADS")
    os.environ["FREESET_LAB_THREADS"] = "1"
    try:
        yield
    finally:
        if old is None:
            del os.environ["FREESET_LAB_THREADS"]
        else:
            os.environ["FREESET_LAB_THREADS"] = old


def cli_inprocess(tr: NullTracer, argv: list[str]) -> tuple[int, str]:
    """cli.main on argv with stdout captured; returns (exit code, report).

    Also times a re-emission of the report (`json.dumps(..., indent=2)`)
    as the cli.emit span and counts the report's bytes.
    """
    buf = io.StringIO()
    patch = patched_cli(tr) if isinstance(tr, Tracer) else contextlib.nullcontext()
    with patch, _serial_batches(), contextlib.redirect_stdout(buf):
        code = tr.call(cli.main, list(argv))
    text = buf.getvalue()
    doc = json.loads(text)
    with tr.span("cli.emit"):
        json.dumps(doc, indent=2)
    tr.count("cli.reports")
    tr.count("cli.report_bytes", len(text))
    return code, text


def cli_op(label: str, argv: list[str], count: Optional[int] = None) -> Op:
    return Op(
        label,
        run=lambda tr: program.run_cli(argv),
        check=lambda res: check_cli(*res, count=count),
        replay=lambda tr: cli_inprocess(tr, argv),
    )


# === op builders shared with the traced rows ===


def escape_op(label: str, fn: FiniteFunction) -> Op:
    def run(tr):
        partition = tr.call(escape_intervals, fn)
        return tr.call(verify_escape, partition, fn)

    return Op(label, run, lambda bad: check_empty("escape violations", bad))


def greedy_op(label: str, fn: FiniteFunction) -> Op:
    n = fn.window

    def run(tr):
        found = tr.call(max_free_subset, [fn], n, "greedy")
        return tr.call(is_maximal_free, found, [fn], n)

    return Op(label, run, lambda ok: [] if ok else ["greedy set is not maximal free"])


def decompose_op(label: str, fn: FiniteFunction) -> Op:
    def run(tr):
        res = tr.call(decompose_into_involutions, fn)
        return tr.call(verify_decomposition, fn, res)

    def check(verdict):
        ok, unexplained = verdict
        return (["decomposition rejected"] if not ok else []) + check_empty(
            "unexplained edges", unexplained
        )

    return Op(label, run, check)


def orbits_op(label: str, fn: FiniteFunction) -> Op:
    def run(tr):
        return tr.call(verify_orbits, fn, tr.call(orbit_decomposition, fn))

    return Op(label, run, lambda complaints: check_empty("orbit complaints", complaints))


def katetov_op(label: str, fn: FiniteFunction) -> Op:
    def run(tr):
        return tr.call(verify_coloring, tr.call(katetov_partition, fn), fn)

    return Op(label, run, lambda bad: check_empty("monochromatic edges", bad))


CODED_HS = [list(h) for h in product(range(2), repeat=6)]


def coded_op(label: str, system, fn: FiniteFunction) -> Op:
    """Criterion 4 on one function: shadows, meeting function, all 64 claims."""

    def run(tr):
        shadows = [tr.call(shadow_set, system, fn, n) for n in range(system.depth)]
        ell = tr.call(meeting_function, system, shadows)
        missed = tr.call(verify_meeting, system, shadows, ell)
        uncertified = sum(
            len(tr.call(verify_freeness_claim, system, fn, h).uncertified) for h in CODED_HS
        )
        return sum(not s.within_bounds for s in shadows), missed, uncertified

    def check(res):
        out_of_bounds, missed, uncertified = res
        return (
            check_count("shadows over their bound", out_of_bounds)
            + check_empty("meeting misses", missed)
            + check_count("uncertified claim edges", uncertified)
        )

    return Op(label, run, check)


def measured_op(label: str, blocks, fn: FiniteFunction, seed: int, selectors: int) -> Op:
    """Criteria 5 and 6 on one function: bad sets, then selectors dodging them."""
    prefix = blocks.starts[-1]

    def run(tr):
        bads = [tr.call(bad_set, blocks, fn, n) for n in range(blocks.block_count())]
        pools = []
        for n in range(1, blocks.block_count()):
            flagged = set(bads[n].elements)
            pool = [x for x in range(blocks.starts[n], blocks.starts[n + 1]) if x not in flagged]
            if pool:
                pools.append(pool)
        rng = Lcg64(seed)
        crossings = 0
        for _ in range(selectors):
            chosen = Subset.of(prefix, (pool[rng.below(len(pool))] for pool in pools))
            report = tr.call(selector_free_check, blocks, fn, chosen, bads)
            crossings += len(report.cross_block_edges)
        return sum(b.mass > 2 for b in bads), crossings

    def check(res):
        heavy, crossings = res
        return check_count("bad sets over mass 2", heavy) + check_count(
            "cross-block selector edges", crossings
        )

    return Op(label, run, check)


def frag01_op(label: str, fn: FiniteFunction, matrix, optimum: dict) -> Op:
    """Exact fragmenting set at ε = 1 against the exact maximum free set."""
    one = Fraction(1)

    def run(tr):
        found = tr.call(find_fragmenting_set, matrix, one, 1, "exact")
        verdict = tr.call(verify_fragmentation, matrix, found, one)
        oracle = tr.call(max_free_subset, [fn], matrix.dim, "exact")
        optimum[(id(matrix), one)] = len(found)
        return found, verdict, oracle

    return Op(label, run, lambda res: check_search(*res))


def search_op(label: str, matrix, eps: Fraction, mode: str, optimum: dict) -> Op:
    """One search and its dense verification. Exact searches record their
    optimum size in `optimum`; a later greedy search on the same matrix
    counts whether it reached that size."""

    def run(tr):
        found = tr.call(find_fragmenting_set, matrix, eps, 1, mode)
        verdict = None if found is None else tr.call(verify_fragmentation, matrix, found, eps)
        key = (id(matrix), eps)
        if mode == "exact" and found is not None:
            optimum[key] = len(found)
        elif mode == "greedy" and key in optimum:
            tr.count("rosenthal.greedy_pairs")
            tr.count("rosenthal.greedy_matches", found is not None and len(found) == optimum[key])
        return found, verdict

    return Op(label, run, lambda res: check_search(*res))


# === workloads ===


# Seconds reference_loop takes on a 2-core x86-64 machine with Python 3.11
# when the host is calm.
REFERENCE_LOOP_S = 0.0015


def reference_loop() -> None:
    """Fixed pure-Python work over a list, a set and a dict, the kinds of
    work set-ups and in-process ops do, touching no program code."""
    xs = list(range(2000))
    seen, image = set(), {}
    for r in range(6):
        for i in xs:
            j = xs[(i * 7 + r) % 2000]
            if j not in seen:
                seen.add(j)
            image[i] = j


class Workload:
    """Inputs from a seed (`setup`) and a fixed list of ops per round."""

    name: str
    subprocess = False  # ops start CLI children
    # Seconds one round takes on a 2-core x86-64 machine with Python 3.11,
    # the reference timed before each op included.
    round_s: float
    # Seconds the reference takes on the same machine when the host is calm.
    reference_s = REFERENCE_LOOP_S

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self, tr: NullTracer = NULL) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work a run does once after set-up, before timing."""

    def reference(self) -> None:
        """Fixed work that runs no program code, timed to gauge the host."""
        reference_loop()

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Structured(Workload):
    name = "structured"
    round_s = 5.5

    def setup(self, tr=NULL):
        s = self.sizes
        seeds = seed_stream(self.seed)
        ops = [escape_op(f"escape.shift{k}.n{n}", shift(tr, k, n)) for k, n in s.shift_escape]
        ops += [greedy_op(f"greedy.shift{k}.n{n}", shift(tr, k, n)) for k, n in s.shift_greedy]
        rng = Lcg64(next(seeds))
        ops += [decompose_op(f"decompose.case2.n{n}", derangement(tr, rng, n)) for n in s.derangements]
        system = build_block_system(constant_growth(2, 2), 2)
        for _ in range(s.coded_ops):
            fn = tr.call(random_fpf_function, next(seeds), system.j_starts[-1], injective=True)
            ops.append(coded_op("blocks.coded", system, fn))
        blocks = build_ed_blocks(s.measured_depth)
        for _ in range(s.measured_ops):
            fn = tr.call(random_fpf_function, next(seeds), blocks.starts[-1], injective=True)
            ops.append(measured_op("blocks.measured", blocks, fn, next(seeds), s.selectors))
        self.ops = ops

    def round(self, r):
        return self.ops


ONESHOT_BATCH = 2  # instances in oneshot's batch call, one per default worker here


class Oneshot(Workload):
    name = "oneshot"
    subprocess = True
    round_s = 4.0
    reference_s = 0.045

    def setup(self, tr=NULL):
        s = self.sizes
        n = s.oneshot_n
        seeds = seed_stream(self.seed)
        rng = Lcg64(next(seeds))
        self.dir = program.WORK / f"oneshot-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)

        def put(name: str, doc) -> str:
            path = self.dir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        inj = tr.call(random_fpf_function, next(seeds), n, injective=True)
        anyf = tr.call(random_fpf_function, next(seeds), n)
        f_inj = put("inj.json", inj.to_json())
        f_any = put("any.json", anyf.to_json())
        free_set = put("free_set.json", tr.call(max_free_subset, [anyf], n, "greedy").to_json())

        parts = tr.call(decompose_into_involutions, inj).parts
        part_files = [put(f"part{i}.json", p.to_json()) for i, p in enumerate(parts)]
        ends = [0]
        while ends[-1] + 151 <= n:
            ends.append(ends[-1] + 51 + 2 * rng.below(50))  # odd block sizes
        colors = [rng.below(4) for _ in range(len(ends) - 1)]

        dim = s.oneshot_dim
        f01 = tr.call(random_fpf_function, next(seeds), dim)
        m01 = put("m01.json", tr.call(function_to_matrix, f01).to_json())
        m01_set = put("m01_set.json", tr.call(max_free_subset, [f01], dim, "exact").to_json())
        mrat = put("mrat.json", rational_matrix(tr, rng, dim).to_json())

        labels = [k % 100 for k in range(n)]
        rng.shuffle(labels)
        step = 2 + rng.below(10)
        loc_set = json.dumps(list(range(rng.below(step), n, step)))

        system = build_block_system(constant_growth(2, 2), 2)
        f34 = tr.call(random_fpf_function, next(seeds), system.j_starts[-1], injective=True)
        h = json.dumps([rng.below(2) for _ in range(system.i_endpoints[-1])])
        depth = s.measured_depth
        ed = build_ed_blocks(depth)
        f_ed = tr.call(random_fpf_function, next(seeds), ed.starts[-1], injective=True)
        selector = [ed.starts[b] + rng.below(ed.sizes[b]) for b in range(1, depth + 1)]

        w = s.family_window
        fam = [tr.call(random_fpf_function, next(seeds), w) for _ in range(2)]
        colorings = [tr.call(katetov_partition, f).to_json() for f in fam]

        calls = [
            ["orbits", "--fn", f_inj],
            ["free", "--set", free_set, "--fn", f_any],
            ["katetov", "--fn", f_any],
            # Twice, as the slowest call: the tail percentile then falls
            # among its samples, not on the edge between two kinds of call.
            ["involutions", "decompose", "--fn", f_inj],
            ["involutions", "decompose", "--fn", f_inj],
            ["involutions", "combine", *[a for f in part_files for a in ("--part", f)],
             "--blocks", put("blocks.json", {"endpoints": ends}),
             "--colors", put("colors.json", colors)],
            ["rosenthal", "check", "--matrix", m01, "--set", m01_set, "--eps", "1"],
            ["rosenthal", "search", "--matrix", mrat, "--eps", "1/4", "--min-size", "1",
             "--mode", "exact"],
            ["partition", "fp", "--partition", put("parts.json", {"n": n, "parts": labels})],
            ["partition", "escape", "--fn", f_inj],
            ["partition", "localize", "--fn", f_any, "--set", loc_set],
            ["dominates", "--i", json.dumps({"endpoints": list(range(0, n + 1, 100))}),
             "--j", json.dumps({"endpoints": list(range(0, n + 1, 10))}), "--n", str(n - n % 100)],
            ["blocks", "build", "--g", "2", "--depth", "2"],
            ["blocks", "verify", "--g", "2", "--depth", "2",
             "--fn", put("f34.json", f34.to_json()), "--h", h],
            ["ed", "build", "--depth", str(depth)],
            ["ed", "badset", "--depth", str(depth), "--fn", put("f_ed.json", f_ed.to_json())],
            ["ed", "member", "--depth", str(depth), "--set", json.dumps(selector), "--k", "2"],
            ["oracle", "freeset", "--n", str(w),
             *[a for i, f in enumerate(fam) for a in ("--fn", put(f"fam{i}.json", f.to_json()))]],
            ["oracle", "unsplit", "--min-size", "1",
             *[a for i, c in enumerate(colorings) for a in ("--coloring", put(f"col{i}.json", c))]],
            ["batch", "--op", "orbits", "--seed", str(next(seeds)), "--count", str(ONESHOT_BATCH),
             "--n", str(n)],
        ]
        self.ops = [
            cli_op(
                " ".join(a for a in argv[:2] if not a.startswith("-")),
                argv,
                ONESHOT_BATCH if argv[0] == "batch" else None,
            )
            for argv in calls
        ]

    def reference(self):
        program.run_isolated()

    def warm_up(self):
        # The first child of a run pays for compiling and caching bytecode.
        code, text = self.ops[0].run(NULL)
        if check_cli(code, text):
            raise RuntimeError(f"warm-up call failed: {text[:200]}")

    def round(self, r):
        return self.ops

    def close(self):
        if getattr(self, "dir", None) is not None:
            for path in self.dir.iterdir():
                path.unlink()
            self.dir.rmdir()


WORKLOADS = {w.name: w for w in (Structured, Oneshot)}
