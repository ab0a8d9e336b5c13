#!/usr/bin/env python3
"""The repo's benchmark: one workload, one process, one closed-loop caller.

::

    python3 benchmarks/e2e/run.py --workload bl_query --seed 1 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --workload bl_query --seed 1 --seconds 30 --trace 1
    python3 benchmarks/e2e/run.py --repeat 10          # the repeatability check
    python3 benchmarks/e2e/run.py --smoke              # <=10 s, correctness only

A caller of ``remote_query``/``transact``/``exchange`` blocks for its
reply and the code is GIL-bound, so one caller measures the program
rather than the scheduler. Every operation's output is checked; the last
line of stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) — end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``. See README.md beside this file for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns, process_time_ns
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT} holds no src/repro: the benchmark runs the program from a full checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from measure import blocks_by_start, percentile, quiet_quartile, spread  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, CheckFailed  # noqa: E402

#: Operations run (and checked) on every fresh deployment before it is
#: timed; part of ``setup_s``. Three, not more, because set-up runs three
#: times per process and the driver's whole schedule has a fixed budget.
WARMUP_OPS = 3
SETUP_REPEATS = 3
TRACED_OPS = 100
SMOKE_OPS = 5
BLOCKS = 8

#: The end-to-end metrics of BENCHMARK.json, in its order, with their units.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "ops/s",
    "cpu_ms_per_op": "ms",
    "wire_bytes_per_op": "bytes",
    "envelopes_per_op": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# -- one operation ----------------------------------------------------------------


class Sample(NamedTuple):
    """One timed, checked operation."""

    start_ns: int
    wall_ns: int
    cpu_ns: int
    error: str | None


def one_op(deployment, index: int, tracer=None) -> Sample:
    """prepare (untimed) -> run (timed) -> check (untimed)."""
    inputs = deployment.prepare(index)
    error = output = None
    if tracer is not None:
        tracer.begin_op(index)
    cpu_start = process_time_ns()
    start = perf_counter_ns()
    try:
        output = deployment.run(inputs)
    except Exception:  # noqa: BLE001 - counted as a failed op, reported below
        error = traceback.format_exc()
    wall = perf_counter_ns() - start
    cpu = process_time_ns() - cpu_start
    if tracer is not None:
        tracer.end_op()
    if error is None:
        try:
            deployment.check(inputs, output)
        except CheckFailed as exc:
            error = f"output check failed: {exc}"
    return Sample(start, wall, cpu, error)


def set_up(workload_class, seed: int):
    """Deployment + fixtures + warm-up; returns it with the seconds it took."""
    start = perf_counter_ns()
    deployment = workload_class(seed)
    for index in range(WARMUP_OPS):
        sample = one_op(deployment, index)
        if sample.error is not None:
            deployment.close()
            raise RuntimeError(f"warm-up operation failed:\n{sample.error}")
    return deployment, (perf_counter_ns() - start) / 1e9


def settle() -> None:
    """Drop set-up garbage and park the survivors outside the collector's
    reach, so a full collection of the deployment never lands in a window."""
    gc.collect()
    gc.freeze()


def timed_loop(deployment, seconds: float, first_index: int, tracer=None, max_ops=None):
    samples: list[Sample] = []
    window_start = perf_counter_ns()
    deadline = window_start + int(seconds * 1e9)
    index = first_index
    while perf_counter_ns() < deadline and (max_ops is None or len(samples) < max_ops):
        samples.append(one_op(deployment, index, tracer))
        index += 1
    return samples, window_start


def report_failures(samples: list[Sample]) -> int:
    failures = [sample.error for sample in samples if sample.error is not None]
    if failures:
        print(f"{len(failures)} of {len(samples)} operations FAILED; first:", file=sys.stderr)
        print(failures[0], file=sys.stderr)
    return len(failures)


def emit(samples: list[Sample], metrics: dict) -> None:
    """The result line. The exit code stays 0: ``correct`` carries the verdict."""
    failed = report_failures(samples)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def latencies_ms(samples: list[Sample]) -> list[float]:
    return [sample.wall_ns / 1e6 for sample in samples if sample.error is None]


# -- the untraced run: end-to-end metrics -----------------------------------------


def run_end_to_end(workload_class, seed: int, seconds: float) -> int:
    setups = []
    deployment = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
            deployment = None
            gc.collect()
        deployment, took = set_up(workload_class, seed)
        setups.append(took)
    settle()
    tally = deployment.tally
    trips_before, bytes_before = tally.round_trips, tally.bytes
    samples, window_start = timed_loop(deployment, seconds, WARMUP_OPS)
    attempted = len(samples)
    round_trips = tally.round_trips - trips_before
    wire_bytes = tally.bytes - bytes_before
    deployment.close()

    good = [sample for sample in samples if sample.error is None]
    if not good:
        report_failures(samples)
        return 1
    walls = latencies_ms(good)
    cpus = [sample.cpu_ns / 1e6 for sample in good]
    offsets = [(sample.start_ns - window_start) / 1e9 for sample in good]

    # The four timings, each computed per block of the window; the run
    # reports the quiet-side quartile of the blocks (see measure.py).
    timings = {
        "latency_p50_ms": ("lower", lambda wall, cpu: percentile(wall, 0.50)),
        "latency_p90_ms": ("lower", lambda wall, cpu: percentile(wall, 0.90)),
        "throughput_ops_s": ("higher", lambda wall, cpu: 1e3 / statistics.fmean(wall)),
        "cpu_ms_per_op": ("lower", lambda wall, cpu: statistics.fmean(cpu)),
    }
    blocks = blocks_by_start(offsets, seconds, BLOCKS)
    per_block = {
        name: [
            statistic([walls[i] for i in block], [cpus[i] for i in block]) if block else None
            for block in blocks
        ]
        for name, (_, statistic) in timings.items()
    }
    values = {name: quiet_quartile(per_block[name], timings[name][0]) for name in timings}
    values.update(
        wire_bytes_per_op=wire_bytes / attempted,
        envelopes_per_op=round_trips / attempted,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        setup_s=statistics.median(setups),
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(f"workload {workload_class.name}  seed {seed}  window {seconds:g} s  "
          f"closed loop, 1 caller  n={len(good)} verified ops of {attempted} attempted")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  "
          f"setups {' '.join('%.3f' % s for s in setups)} s")
    for name, metric in metrics.items():
        print(f"  {name:<20} {metric['value']:>14.4f} {metric['unit']:<6} n={len(good)}")
    print(f"  per block of {seconds / BLOCKS:g} s (n = {' '.join(str(len(b)) for b in blocks)}); "
          f"reported = quiet-side quartile of the {BLOCKS}:")
    for name, series in per_block.items():
        cells = " ".join("     -- " if value is None else f"{value:8.2f}" for value in series)
        whole = timings[name][1](walls, cpus)
        print(f"  {name:<20} {cells}   whole window {whole:.2f}")
    emit(samples, metrics)
    return 0


# -- the traced run: per-layer metrics --------------------------------------------


def run_traced(workload_class, seed: int, seconds: float) -> int:
    from spans import OP_SEAM, Tracer, layer_metrics, layer_table

    # Untraced reference first, on a deployment built before any seam is
    # wrapped: the overhead figure compares against the genuine article.
    deployment, _ = set_up(workload_class, seed)
    settle()
    reference, _ = timed_loop(deployment, seconds / 3, WARMUP_OPS)
    deployment.close()
    del deployment

    tracer = Tracer()
    tracer.install()
    deployment, _ = set_up(workload_class, seed)
    settle()
    samples, _ = timed_loop(deployment, seconds * 2 / 3, WARMUP_OPS, tracer, TRACED_OPS)
    deployment.close()
    if not latencies_ms(samples) or not latencies_ms(reference):
        report_failures(samples + reference)
        return 1

    table = layer_table(tracer.spans)
    metrics = layer_metrics(table)
    untraced_p50 = percentile(latencies_ms(reference), 0.50)
    traced_p50 = percentile(latencies_ms(samples), 0.50)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "unit": "%",
    }

    op_wall = table[OP_SEAM]["wall_ms"]
    print(f"workload {workload_class.name}  seed {seed}  traced ops n={len(samples)}  "
          f"untraced reference ops n={len(reference)}  spans {len(tracer.spans)}")
    print(f"  p50 traced {traced_p50:.3f} ms  untraced {untraced_p50:.3f} ms")
    print(f"  {'seam':<30} {'calls/op':>9} {'bytes/op':>11} {'self ms/op':>11} {'% of op':>8}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["ms"]):
        label = "(outside every seam)" if name == OP_SEAM else name
        print(f"  {label:<30} {row['calls']:>9.2f} {row['bytes']:>11.0f} {row['ms']:>11.3f} "
              f"{100 * row['ms'] / op_wall:>7.1f}%")
    print(f"  absent seams: {tracer.absent or 'none'}")
    for name in ("trace.coverage_pct", "trace.overhead_pct"):
        print(f"  {name:<30} {metrics[name]['value']:.2f} %")
    write_spans(workload_class.name, seed, tracer, table)
    emit(samples + reference, metrics)
    return 0


def write_spans(workload: str, seed: int, tracer, table: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    index = {id(span): number for number, span in enumerate(tracer.spans)}
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with path.open("w") as out:
        json.dump(
            {
                "columns": ["seam", "parent", "op", "start_ns", "end_ns", "size"],
                "absent": tracer.absent,
                "table": table,
                "spans": [
                    [seam, index.get(id(parent)), op, start, end, size]
                    for seam, parent, op, start, end, size in tracer.spans
                ],
            },
            out,
        )
    print(f"  spans written to {path.relative_to(ROOT)}")


# -- --smoke and --repeat ---------------------------------------------------------


def run_smoke(names: list[str], seed: int) -> int:
    failed = 0
    for name in names:
        deployment = WORKLOADS[name](seed)
        samples = [one_op(deployment, index) for index in range(SMOKE_OPS)]
        deployment.close()
        failed += report_failures(samples)
        walls = latencies_ms(samples)
        shown = f"p50 {percentile(walls, 0.5):.1f} ms" if walls else "no op succeeded"
        print(f"smoke {name:<18} {len(walls)}/{SMOKE_OPS} ops verified  "
              f"{shown}  (NOT FOR COMPARISON: no warm-up, n={SMOKE_OPS})")
    print("smoke " + ("FAILED" if failed else "ok"))
    return 1 if failed else 0


def run_repeat(names: list[str], seed: int, seconds: int, sets: int, bounds: dict) -> int:
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for number in range(sets):
        for name in names:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                       str(seed + number), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=180 + seconds)
            if done.returncode != 0:
                print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                print(f"set {number} {name}: exit {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[name].append(result)
            print(f"set {number + 1}/{sets} {name}: n={result['attempted']} "
                  f"p50 {result['metrics']['latency_p50_ms']['value']:.2f} ms", flush=True)

    print(f"\n{sets} sets x {seconds} s  nproc {len(os.sched_getaffinity(0))}  "
          f"python {platform.python_version()}")
    print(f"{'workload':<18} {'metric':<20} {'min':>12} {'median':>12} {'max':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    exceeded = []
    for name in names:
        if any(result["failed"] for result in runs[name]):
            exceeded.append(f"{name}: an operation failed")
        for metric, bound in bounds.items():
            values = [result["metrics"][metric]["value"] for result in runs[name]]
            share = spread(values)
            ratio = share / bound
            print(f"{name:<18} {metric:<20} {min(values):>12.4f} {statistics.median(values):>12.4f} "
                  f"{max(values):>12.4f} {share:>8.4f} {bound:>6.2f} {ratio:>12.2f}")
            # The set-up time's spread is shown, not gated: the acceptance
            # rule compares its medians between sets, not its quartiles.
            if ratio > 1 and metric != "setup_s":
                exceeded.append(f"{name} {metric}: spread {share:.4f} > bound {bound}")
            if metric == "envelopes_per_op" and len(set(values)) != 1:
                exceeded.append(f"{name} envelopes_per_op differs between runs: {sorted(set(values))}")
    for line in exceeded:
        print("NOT REPEATABLE:", line)
    return 1 if exceeded else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="timed window; default BENCHMARK.json's")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="K",
                        help="run K sets (seeds seed..seed+K-1) and gate their spread")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_OPS} checked ops per workload, no timing claims")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
    names = [args.workload] if args.workload else known
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.smoke:
        return run_smoke(names, args.seed)
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 sets to have a spread")
        bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
        return run_repeat(names, args.seed, seconds, args.repeat, bounds)
    if args.workload is None:
        parser.error("--workload is required (or use --repeat / --smoke)")

    run = run_traced if args.trace else run_end_to_end
    return run(WORKLOADS[args.workload], args.seed, seconds)


if __name__ == "__main__":
    sys.exit(main())
