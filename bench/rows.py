"""Fixed rows every traced run measures besides its workload's replay.

- scaling rows: per-layer self time of each batch op over the same number
  of points at each N in 10^3, 10^4 and 10^5, and of escape intervals,
  their verifier and the maximality check on shift-k functions for N
  from 10^3 to 8*10^3;
- baseline rows: the remaining ROADMAP item-1 figures, each printed
  beside the figure ROADMAP quotes;
- CLI rows: bare interpreter start, fresh import of freeset_lab.cli,
  in-process cli.main calls, and one batch with one thread and with the
  default pool;
- one op of each block system, so every layer has spans in every traced
  run.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from fractions import Fraction

import program
from tracing import Tracer
from workloads import (
    Sizes,
    seed_stream,
    check_cli,
    cli_inprocess,
    coded_op,
    decompose_op,
    escape_op,
    frag01_op,
    greedy_op,
    katetov_op,
    measured_op,
    orbits_op,
    search_op,
    shift,
)
from freeset_lab.boundedfam import build_block_system, build_ed_blocks, constant_growth
from freeset_lab.funcgraph import random_fpf_function
from freeset_lab.rosenthal import function_to_matrix

SCALE_SPANS = (
    "funcgraph.generate",
    "involutions.decompose",
    "involutions.verify",
    "funcgraph.orbits",
    "funcgraph.verify_orbits",
    "partitions.escape",
    "partitions.verify_escape",
    "freesets.katetov",
    "freesets.verify_coloring",
)
SHIFT_SPANS = ("partitions.escape", "partitions.verify_escape", "freesets.maximal_check")

TIMING = re.compile(r'"elapsed_seconds": [0-9.eE+-]+')


def mask_timing(report: str) -> str:
    return TIMING.sub('"elapsed_seconds": T', report)


def row_names(s: Sizes) -> list[str]:
    """Metric names of the rows, in the order `run_rows` fills them."""
    count, n = s.pool_batch
    names = [f"scaling.{span}.n{m}_s" for m in s.scale_ns for span in SCALE_SPANS]
    names += [
        f"scaling.shift{k}.{span}.n{m}_s" for k in s.shift_ks for m in s.shift_ns for span in SHIFT_SPANS
    ]
    names += [
        f"baseline.freesets.greedy.n{s.baseline_n}_s",
        f"baseline.freesets.maximal_check.n{s.baseline_n}_s",
        f"baseline.rosenthal.exact.dim{s.baseline_dim}_s",
        f"baseline.freesets.exact.dim{s.baseline_dim}_s",
        f"baseline.cli.batch_{count}x{n}_1thread_s",
        f"baseline.cli.batch_{count}x{n}_default_s",
        "cli.pool_speedup",
        "cli.interpreter_s",
        "cli.startup_s",
    ]
    return names


def baseline_table(s: Sizes, m: dict) -> list[dict]:
    """Each ROADMAP item-1 baseline: ROADMAP's figure first, an earlier
    reading on the same kind of machine second, then this run's value and
    the metric it comes from."""
    big, top = s.scale_ns[-1], s.shift_ns[-1]
    count, n = s.pool_batch
    rows = [
        ("decompose, N=10^5", "0.58 s", "0.53 s", f"scaling.involutions.decompose.n{big}_s"),
        ("verify_decomposition, N=10^5", "0.44 s", "0.37 s", f"scaling.involutions.verify.n{big}_s"),
        ("escape_intervals, x+3, N=8000", "1.0 s", "0.97 s", f"scaling.shift3.partitions.escape.n{top}_s"),
        ("verify_escape, x+3, N=8000", "-", "1.28 s", f"scaling.shift3.partitions.verify_escape.n{top}_s"),
        ("is_maximal_free, N=4000", "0.32 s", "0.15-0.19 s",
         f"baseline.freesets.maximal_check.n{s.baseline_n}_s"),
        ("greedy max_free_subset, N=4000", "3.6 ms", "-", f"baseline.freesets.greedy.n{s.baseline_n}_s"),
        ("exact fragmenting search, dim 22", "1.05 s", "0.86-1.18 s",
         f"baseline.rosenthal.exact.dim{s.baseline_dim}_s"),
        ("exact MIS, same matrix", "0.2 ms", "0.1 ms", f"baseline.freesets.exact.dim{s.baseline_dim}_s"),
        ("batch 200 x N=5000, 1 thread", "8.5 s", "-", f"baseline.cli.batch_{count}x{n}_1thread_s"),
        ("batch 200 x N=5000, default pool", "9.4 s", "-", f"baseline.cli.batch_{count}x{n}_default_s"),
        ("pool speed-up (1 thread / default)", "0.90", "0.84-0.9", "cli.pool_speedup"),
    ]
    return [
        {"row": row, "roadmap": rm, "earlier": sc, "measured": m.get(name), "metric": name}
        for row, rm, sc, name in rows
    ]


def run_rows(tr: Tracer, seed: int, s: Sizes) -> tuple[dict, int, list[list[str]]]:
    """Measure every row; returns (metrics, checks made, failures of each failed check)."""
    seeds = seed_stream(seed + 1)
    metrics: dict = {}
    checks = 0
    failures: list[list[str]] = []

    def record(label, bad):
        nonlocal checks
        checks += 1
        if bad:
            failures.append([f"{label}: {b}" for b in bad])

    def do(op, label):
        with tr.op(label):
            res = op.run(tr)
        record(label, op.check(res))

    for n in s.scale_ns:
        label = f"scale.n{n}"
        for _ in range(s.scale_points // n):
            seed_i = next(seeds)
            with tr.op(label):
                inj = tr.call(random_fpf_function, seed_i, n, injective=True)
                anyf = tr.call(random_fpf_function, seed_i, n)
            for op in (decompose_op, orbits_op, escape_op):
                do(op(label, inj), label)
            do(katetov_op(label, anyf), label)
        st = tr.self_times(label)
        for span in SCALE_SPANS:
            metrics[f"scaling.{span}.n{n}_s"] = st[span]

    for k in s.shift_ks:
        for n in s.shift_ns:
            label = f"shift{k}.n{n}"
            with tr.op(label):
                fn = shift(tr, k, n)
            do(escape_op(label, fn), label)
            do(greedy_op(label, fn), label)
            st = tr.self_times(label)
            for span in SHIFT_SPANS:
                metrics[f"scaling.shift{k}.{span}.n{n}_s"] = st[span]

    label = "baseline.maximal"
    with tr.op(label):
        fn = tr.call(random_fpf_function, next(seeds), s.baseline_n)
    do(greedy_op(label, fn), label)
    st = tr.self_times(label)
    metrics[f"baseline.freesets.greedy.n{s.baseline_n}_s"] = st["freesets.greedy"]
    metrics[f"baseline.freesets.maximal_check.n{s.baseline_n}_s"] = st["freesets.maximal_check"]

    label = "baseline.fragmenting"
    with tr.op(label):
        fn = tr.call(random_fpf_function, next(seeds), s.baseline_dim)
        matrix = tr.call(function_to_matrix, fn)
    optimum: dict = {}
    do(frag01_op(label, fn, matrix, optimum), label)
    do(search_op(label, matrix, Fraction(1), "greedy", optimum), label)
    st = tr.self_times(label)
    metrics[f"baseline.rosenthal.exact.dim{s.baseline_dim}_s"] = st["rosenthal.exact"]
    metrics[f"baseline.freesets.exact.dim{s.baseline_dim}_s"] = st["freesets.exact"]

    label = "row.blocks"
    system = build_block_system(constant_growth(2, 2), 2)
    blocks = build_ed_blocks(s.measured_depth)
    with tr.op(label):
        f_coded = tr.call(random_fpf_function, next(seeds), system.j_starts[-1], injective=True)
        f_measured = tr.call(random_fpf_function, next(seeds), blocks.starts[-1], injective=True)
    do(coded_op(label, system, f_coded), label)
    do(measured_op(label, blocks, f_measured, next(seeds), s.selectors), label)

    count, n = s.pool_batch
    argv = ["batch", "--op", "involutions-decompose", "--seed", str(next(seeds)),
            "--count", str(count), "--n", str(n)]
    walls, reports = {}, {}
    for threads in (1, None):
        started = time.perf_counter()
        code, reports[threads] = program.run_cli(argv, threads)
        walls[threads] = time.perf_counter() - started
        record(f"batch threads={threads}", check_cli(code, reports[threads], count=count))
    same = mask_timing(reports[1]) == mask_timing(reports[None])
    record("batch", [] if same else ["report differs between one thread and the default pool"])
    metrics[f"baseline.cli.batch_{count}x{n}_1thread_s"] = walls[1]
    metrics[f"baseline.cli.batch_{count}x{n}_default_s"] = walls[None]
    metrics["cli.pool_speedup"] = walls[1] / walls[None]

    bare, imported = [], []
    for _ in range(s.probe_reps):
        for code, out in (("pass", bare), ("import freeset_lab.cli", imported)):
            started = time.perf_counter()
            program.run_python(code)
            out.append(time.perf_counter() - started)
    metrics["cli.interpreter_s"] = statistics.median(bare)
    metrics["cli.startup_s"] = statistics.median(imported) - statistics.median(bare)

    label = "row.cli"
    inj = random_fpf_function(next(seeds), s.oneshot_n, injective=True)
    for argv in (
        ["katetov", "--fn", '{"n": 5, "values": [1, 2, 3, 4, 0]}'],
        ["involutions", "decompose", "--fn", json.dumps(inj.to_json())],
    ):
        with tr.op(label):
            code, text = cli_inprocess(tr, argv)
        record(f"{label} {argv[0]}", check_cli(code, text))

    return metrics, checks, failures
