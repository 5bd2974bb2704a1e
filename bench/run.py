#!/usr/bin/env python3
"""Benchmark of freeset-lab: two workloads, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload structured --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): structured, oneshot.

With --trace 0 the run sets its inputs up eleven times (setup_s is the
median), runs the workload's untimed warm-up (oneshot: one CLI call that
compiles and caches bytecode), then measures round(--seconds / round_s)
whole rounds of the workload's ops, where round_s is the length of one
round on a 2-core x86-64 machine with Python 3.11. So a run lasts about
--seconds there, and every run of a workload has the same number and mix
of samples, which keeps the percentiles comparable; a run stops early
after 1.5 times --seconds on a slower machine. One process does the work
with no extra threads; oneshot starts one CLI child at a time, and batch
children keep the CLI's default pool size. Every op's output is checked.
After the timed phase, two same-seed batches must match byte for byte
apart from elapsed_seconds.

Times are given at reference speed. A shared host's speed swings by a
third and more from one minute to the next, far more than the changes
the benchmark must resolve. So right before each op the run times the
workload's reference, fixed work that runs no program code
(workloads.py), and scales the op's wall time by the reference's nominal
length over its length just then: wall time on a host running at the
nominal speed. Set-ups are scaled the same way by a pure-Python
reference loop timed before each. The program cannot move a reference,
so a change to the program moves the scaled times as it moves wall times
on a steady host. The wall-clock figures are printed beside each metric.
End-to-end metrics:

    setup_s         median time to make the inputs and write input files
    ops_per_s       ops completed and verified per second of the median
                    round (ops per round over its scaled length)
    op_p50_ms       median time of one op
    op_tail_ms      highest of p50/p75/p90/p95/p99/p99.9 with at least ten
                    samples beyond it; the report names it and the count
    verified_ratio  1 - failed/attempted (the fail ratio's complement)
    peak_rss_mb     peak resident memory of the process doing the work:
                    this one, or for oneshot its largest child

With --trace 1 the run replays one round in-process, first untraced and
then traced, and measures the fixed rows in rows.py. It prints the
per-layer metrics: self time per layer, work counts and ratios, the
scaling and baseline rows, and the tracing overhead. Spans are written
to .bench_build/freeset-lab/.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 unless the program's sources
are missing or the run itself breaks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import program
from rows import baseline_table, mask_timing, row_names, run_rows
from tracing import NULL, Tracer
from workloads import FULL, REFERENCE_LOOP_S, WORKLOADS, check_cli, reference_loop

SETUPS = 11
# A run that takes this many times --seconds stops after its current round.
OVERRUN = 1.5
LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
MAX_LISTED_FAILURES = 10

LAYER_TIMES = (
    "funcgraph.generate",
    "funcgraph.orbits",
    "funcgraph.verify_orbits",
    "involutions.decompose",
    "involutions.verify",
    "freesets.katetov",
    "freesets.verify_coloring",
    "freesets.greedy",
    "freesets.maximal_check",
    "freesets.exact",
    "partitions.escape",
    "partitions.verify_escape",
    "rosenthal.matrix_build",
    "rosenthal.exact",
    "rosenthal.greedy",
    "rosenthal.verify",
    "boundedfam.shadow",
    "boundedfam.meeting",
    "boundedfam.claim",
    "boundedfam.badset",
    "boundedfam.selector",
    "cli.main",
    "cli.emit",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units(sizes) -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{span}_s": "s" for span in LAYER_TIMES}
    units.update(
        {
            "funcgraph.points": "count",
            "involutions.uncovered_edges": "count",
            "involutions.case2_ratio": "ratio",
            "partitions.blocks": "count",
            "rosenthal.found_ratio": "ratio",
            "rosenthal.greedy_match_ratio": "ratio",
            "boundedfam.claims": "count",
            "cli.report_bytes": "bytes",
            "trace.overhead_ratio": "ratio",
        }
    )
    for name in row_names(sizes):
        units[name] = "ratio" if name == "cli.pool_speedup" else "s"
    return units


# === statistics ===


def quantile(ordered: list[float], p: float) -> float:
    """Linear interpolation between the order statistics around p."""
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond its rank;
    the median when there are too few samples for any."""
    best = LADDER[0]
    for p in LADDER:
        if n - math.ceil(p * n) >= 10:
            best = p
    return best


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# === environment ===


def git_sha() -> str:
    if not (program.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=program.ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "batch_workers": program.default_workers(),
        "FREESET_LAB_THREADS": None,
    }


# === runs ===


def run_op(op, tr, use_replay: bool = False):
    """Run one op and check it; returns (seconds, failures)."""
    fn = (op.replay or op.run) if use_replay else op.run
    started = time.perf_counter()
    try:
        res = fn(tr)
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        return time.perf_counter() - started, [f"raised {exc.__class__.__name__}: {exc}"]
    elapsed = time.perf_counter() - started
    try:
        return elapsed, op.check(res)
    except Exception as exc:
        return elapsed, [f"check raised {exc.__class__.__name__}: {exc}"]


def determinism_check(seed: int) -> list[str]:
    """Two same-seed batches: byte-identical apart from elapsed_seconds."""
    argv = ["batch", "--op", "involutions-decompose", "--seed", str(seed), "--count", "40", "--n", "200"]
    first = program.run_cli(argv)
    second = program.run_cli(argv)
    fails = check_cli(*first, count=40) + check_cli(*second, count=40)
    if mask_timing(first[1]) != mask_timing(second[1]):
        fails.append("same-seed batch reports differ beyond elapsed_seconds")
    return [f"determinism: {f}" for f in fails]


def speed_scale(reference, nominal_s: float) -> tuple[float, float]:
    """Time a reference; returns (its seconds, the factor that takes a wall
    time measured now to reference speed)."""
    started = time.perf_counter()
    reference()
    took = time.perf_counter() - started
    return took, nominal_s / took


def timed_run(cls, seed: int, seconds: float, sizes) -> dict:
    # The set-ups take a second or two, within which the host's speed
    # drifts little: one scale, from the median reference loop, serves them.
    setup_walls, setup_references = [], []
    for i in range(SETUPS):
        wl = cls(seed, sizes)
        setup_references.append(speed_scale(reference_loop, REFERENCE_LOOP_S)[0])
        started = time.perf_counter()
        wl.setup()
        setup_walls.append(time.perf_counter() - started)
        if i < SETUPS - 1:
            wl.close()
    setup_wall = statistics.median(setup_walls)
    setup_s = setup_wall * REFERENCE_LOOP_S / statistics.median(setup_references)
    references = []
    wl.warm_up()
    planned = max(1, round(seconds / cls.round_s))
    try:
        samples, walls, round_times, by_label = [], [], [], {}
        failures, failed_ops, rounds = [], 0, 0
        started = time.perf_counter()
        while rounds < planned and time.perf_counter() - started < OVERRUN * seconds:
            round_time = 0.0
            for op in wl.round(rounds):
                took, scale = speed_scale(wl.reference, cls.reference_s)
                references.append(took)
                elapsed, bad = run_op(op, NULL)
                walls.append(elapsed)
                samples.append(elapsed * scale)
                round_time += elapsed * scale
                by_label.setdefault(op.label, []).append(elapsed * scale)
                if bad:
                    failed_ops += 1
                    failures.extend(f"{op.label}: {b}" for b in bad)
            round_times.append(round_time)
            rounds += 1
        phase = time.perf_counter() - started
        rss = peak_rss_mb(wl.subprocess)
    finally:
        wl.close()
    det = determinism_check(seed)
    failures += det
    attempted = len(samples) + 1
    failed = failed_ops + bool(det)
    ordered, wall_ordered = sorted(samples), sorted(walls)
    tail_p = tail_percentile(len(ordered))
    verified = len(samples) - failed_ops
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": verified / rounds / statistics.median(round_times),
        "op_p50_ms": quantile(ordered, 0.5) * 1e3,
        "op_tail_ms": quantile(ordered, tail_p) * 1e3,
        "verified_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups; wall {setup_wall:.4g} s; reference loop "
        f"{statistics.median(setup_references) * 1e3:.4g} ms against {REFERENCE_LOOP_S * 1e3:g} ms",
        "ops_per_s": f"{len(samples)} ops in {rounds} of {planned} rounds over {phase:.2f} s; "
        f"wall {verified / sum(walls):.4g} ops per op-second",
        "op_p50_ms": f"p50 of {len(samples)} samples; wall {quantile(wall_ordered, 0.5) * 1e3:.4g} ms",
        "op_tail_ms": f"p{tail_p * 100:g} of {len(samples)} samples, "
        f"{len(samples) - math.ceil(tail_p * len(samples))} beyond it; "
        f"wall {quantile(wall_ordered, tail_p) * 1e3:.4g} ms",
        "verified_ratio": f"{failed} of {attempted} attempted failed, fail_ratio {failed / attempted:g} "
        "(the last attempt is the same-seed determinism check)",
        "peak_rss_mb": "largest CLI child" if wl.subprocess else "this process",
    }
    detail = {
        "rounds": rounds,
        "reference": {
            "nominal_ms": cls.reference_s * 1e3,
            "median_ms": statistics.median(references) * 1e3,
            "count": len(references),
        },
        "ops": {k: {"count": len(v), "p50_ms": statistics.median(v) * 1e3} for k, v in by_label.items()},
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "units": END_TO_END,
        "notes": notes,
        "detail": detail,
    }


def replay(wl, tr) -> tuple[int, list[list[str]]]:
    """One round in-process: CLI ops through cli.main, the rest as timed.
    Returns (checks made, failures of each failed check)."""
    failures, checks = [], 0
    for op in wl.round(0):
        with tr.op(op.label):
            _, bad = run_op(op, tr, use_replay=True)
        checks += 1
        if bad:
            failures.append([f"{op.label}: {b}" for b in bad])
    return checks, failures


def traced_run(cls, seed: int, sizes) -> dict:
    walls = {}
    for mode, tr in (("untraced", NULL), ("traced", Tracer())):
        wl = cls(seed, sizes)
        started = time.perf_counter()
        try:
            wl.setup(tr)
            checks, failures = replay(wl, tr)
        finally:
            wl.close()
        walls[mode] = time.perf_counter() - started
    row_metrics, row_checks, row_failures = run_rows(tr, seed, sizes)
    det = determinism_check(seed)
    failed_checks = failures + row_failures + ([det] if det else [])
    attempted = checks + row_checks + 1
    failed = len(failed_checks)
    failures = [f for check in failed_checks for f in check]

    st = tr.self_times()
    c = tr.counts
    metrics = {f"{span}_s": st.get(span, 0.0) for span in LAYER_TIMES}
    metrics.update(
        {
            "funcgraph.points": c["funcgraph.points"],
            "involutions.uncovered_edges": c["involutions.uncovered_edges"],
            "involutions.case2_ratio": c["involutions.case2"] / c["involutions.decompositions"],
            "partitions.blocks": c["partitions.blocks"],
            "rosenthal.found_ratio": c["rosenthal.found"] / c["rosenthal.searches"],
            "rosenthal.greedy_match_ratio": c["rosenthal.greedy_matches"] / c["rosenthal.greedy_pairs"],
            "boundedfam.claims": c["boundedfam.claims"],
            "cli.report_bytes": c["cli.report_bytes"] / c["cli.reports"],
            "trace.overhead_ratio": walls["traced"] / walls["untraced"],
        }
    )
    metrics.update(row_metrics)
    units = per_layer_units(sizes)
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics out of step with their spec: {set(metrics) ^ set(units)}")
    path = program.WORK / f"trace-{cls.name}-seed{seed}.json"
    tr.write(path)
    notes = {
        "trace.overhead_ratio": f"set-up plus one replayed round: traced {walls['traced']:.3f} s, "
        f"untraced {walls['untraced']:.3f} s",
        "involutions.case2_ratio": f"{c['involutions.case2']} of {c['involutions.decompositions']} decompositions",
        "rosenthal.found_ratio": f"{c['rosenthal.found']} of {c['rosenthal.searches']} searches",
        "rosenthal.greedy_match_ratio": f"{c['rosenthal.greedy_matches']} of {c['rosenthal.greedy_pairs']} "
        "greedy searches reached the exact optimum size",
        "cli.report_bytes": f"mean over {c['cli.reports']} reports",
    }
    detail = {
        "spans_file": str(path.relative_to(program.ROOT)),
        "span_count": len(tr.spans),
        "baselines": baseline_table(sizes, metrics),
        "other_spans_s": {k: v for k, v in st.items() if f"{k}_s" not in metrics},
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "units": units,
        "notes": notes,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)), flush=True)
    if args.trace:
        out = traced_run(cls, args.seed, FULL)
    else:
        out = timed_run(cls, args.seed, args.seconds, FULL)
    report(out)
    return 0


def report(out: dict) -> None:
    for name, value in out["metrics"].items():
        note = out["notes"].get(name, "")
        print(f"{name:48s} {value:>16.6g} {out['units'][name]:6s} {note}")
    if out["detail"].get("baselines"):
        print("baselines: ROADMAP figure | earlier reading | this run")
        for row in out["detail"]["baselines"]:
            print(f"  {row['row']:40s} {row['roadmap']:>8s} | {row['earlier']:>12s} | {row['measured']:.6g}")
    for failure in out["failures"][:MAX_LISTED_FAILURES]:
        print(f"FAILED {failure}")
    print("detail " + json.dumps(out["detail"]))
    final = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k]} for k, v in out["metrics"].items()},
    }
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    sys.exit(main())
