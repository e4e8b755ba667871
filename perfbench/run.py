"""sentinelsim benchmark: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload seed_sweep --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each exists):

    seed_sweep   parse -> engine.run -> text render of small scenarios
    long_stream  engine.run -> text render of one ~10^5-event scenario
    alert_storm  cli.main(["run", ..., "--format", "structured"]) on door-heavy input

Each workload is a closed loop with one client: operation i+1 starts when
operation i has returned and its output has been checked. Only the
operation itself is timed; output checks, the golden digest gate and the
alert_storm --out file checks run outside the timed region.

Timing metrics are host time scaled by the reference speed measured next
to the operations (see speed.py), because the reference host's shared cores
slowed all Python code by up to 1.7x for longer than a run. The raw
figures are printed beside them.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run spends half its time untraced and half with
span wrappers installed, and the JSON carries the per-layer metrics. The
lines before it print every metric by name with its unit, the failure
fraction, the golden gate and the exact simulated counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import gen
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timed per run for setup_s; their median is reported.
SETUP_PROBES = 9
# Full span records kept in memory per traced run (aggregates cover all spans).
SPAN_CAP = 50_000


def tail(latencies: List[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when none has.

    A long_stream run holds only a few dozen operations, so its tail is p50
    or p75: the maximum of so few samples moved by 25% between runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def measure_setup(workload: str, seed: int, workdir: str) -> List[dict]:
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe-{k}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "--workload", workload, "--seed", str(seed), "--workdir", probe_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


class Phase:
    """Operations of one stretch of the closed loop."""

    def __init__(self):
        self.latencies: List[float] = []  # host seconds
        self.scaled: List[float] = []  # host seconds at the reference speed
        self.events: List[int] = []  # scenario events per operation, 0 if it raised
        self.failed = 0
        self.problems: List[str] = []
        # exact simulated counts summed over the first cycle of inputs
        self.counts: Dict[str, int] = {}

    @property
    def ops(self) -> int:
        return len(self.latencies)


def closed_loop(wl, seconds: float, first_op: int, tracer=None, count_cycle: bool = False) -> Phase:
    """Run operations until ``seconds`` have passed. With ``count_cycle`` the
    loop also runs at least one full cycle of inputs and sums their counts.

    The reference kernel runs at the start and after every WINDOW_S; an
    operation is scaled by the mean (smoothed) kernel time at the two ends
    of its window.
    """
    phase = Phase()
    clock = time.perf_counter
    min_ops = wl.cycle if count_cycle else 1
    kernel = [speed.kernel_seconds()]
    kernel_at = [clock()]
    window_of: List[int] = []
    next_kernel = clock() + speed.WINDOW_S
    deadline = clock() + seconds
    i = first_op
    while clock() < deadline or phase.ops < min_ops:
        if clock() >= next_kernel:
            kernel.append(speed.kernel_seconds())
            kernel_at.append(clock())
            next_kernel = clock() + speed.WINDOW_S
        if tracer is not None:
            tracer.op_id = i
        start = clock()
        try:
            output = wl.op(i)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            end = clock()
            events = 0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            end = clock()
            events = wl.events_of(i)
            problems, counts = wl.check(i, output)
            if count_cycle and i - first_op < wl.cycle:
                for key, value in counts.items():
                    phase.counts[key] = phase.counts.get(key, 0) + value
        window_of.append(len(kernel) - 1)
        phase.latencies.append(end - start)
        phase.events.append(events)
        if problems:
            phase.failed += 1
            phase.problems.extend(f"op {i}: {p}" for p in problems)
        i += 1
    kernel.append(speed.kernel_seconds())
    kernel_at.append(clock())
    smooth = speed.smooth(kernel, kernel_at)
    phase.scaled = [
        latency * 2 * speed.REFERENCE_S / (smooth[w] + smooth[w + 1])
        for latency, w in zip(phase.latencies, window_of)
    ]
    return phase


def end_to_end(phase: Phase, setup: List[dict]) -> Dict[str, dict]:
    busy = sum(phase.scaled)
    return {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in setup), "unit": "s"},
        "runs_per_s": {"value": phase.ops / busy, "unit": "1/s"},
        "run_p50_ms": {"value": statistics.median(phase.scaled) * 1e3, "unit": "ms"},
        "events_per_s": {"value": sum(phase.events) / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> Dict[str, dict]:
    busy = sum(traced.latencies)
    ops = traced.ops
    traced_p50 = statistics.median(traced.scaled)
    untraced_p50 = statistics.median(untraced.scaled)
    metrics = {
        f"{layer}.self_pct": {"value": 100 * self_s / busy, "unit": "%"}
        for layer, self_s in tracer.layer_self().items()
    }
    calls = {name: st[0] for name, st in tracer.stats.items()}
    metrics.update({
        "traced_op_p50_ms": {"value": traced_p50 * 1e3, "unit": "ms"},
        "trace_overhead_pct": {"value": 100 * (traced_p50 / untraced_p50 - 1), "unit": "%"},
        "events.max_depth": {"value": tracer.counts["events.max_depth"], "unit": "count"},
        "events.pushes_per_op": {"value": tracer.counts["events.pushes"] / ops, "unit": "count"},
        "airframe.encodes_per_op": {"value": calls["airframe.encode_frame"] / ops, "unit": "count"},
        "config.resolves_per_op": {"value": calls["config.resolve_run_config"] / ops, "unit": "count"},
    })
    return metrics


def print_metrics(metrics: Dict[str, dict], notes: Optional[Dict[str, str]] = None) -> None:
    notes = notes or {}
    for name, m in metrics.items():
        print(f"{name:26s} {m['value']:14.4f} {m['unit']:6s} {notes.get(name, '')}".rstrip())


def print_trace(tracer, setup_tracer, traced: Phase, untraced: Phase) -> None:
    print(f"# untraced: {untraced.ops} ops, p50 {statistics.median(untraced.scaled) * 1e3:.4f} ms; "
          f"traced: {traced.ops} ops, p50 {statistics.median(traced.scaled) * 1e3:.4f} ms (reference speed)")
    print("# spans of the traced operations: calls, total ms, self ms, self ms per op")
    for row in tracer.span_table(traced.ops):
        print(f"span {row['span']:36s} {row['calls']:9d} {row['total_ms']:12.3f} "
              f"{row['self_ms']:12.3f} {row['self_ms_per_op']:10.4f}")
    print("# spans of set-up and of the untimed --out runs (not in the metrics): calls, self ms")
    for row in setup_tracer.span_table(1):
        if row["calls"]:
            print(f"setup-span {row['span']:30s} {row['calls']:9d} {row['self_ms']:12.3f}")
    print(f"# counts at layer boundaries: {json.dumps(tracer.counts, sort_keys=True)}")


def run(args) -> dict:
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> dict:
    setup = [] if args.trace else measure_setup(args.workload, args.seed, workdir)

    texts = gen.prepare(args.workload, args.seed, ROOT, workdir)
    import golden
    import spans
    import workloads

    setup_tracer = spans.Tracer(span_cap=SPAN_CAP)
    setup_tracer.op_id = -1
    if args.trace:
        setup_tracer.install()
    try:
        wl = workloads.CLASSES[args.workload](texts, args.seed, workdir)
        file_cells, file_problems = wl.file_checks()
    finally:
        setup_tracer.uninstall()
    golden_cells, golden_problems = golden.check(ROOT)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if not args.trace:
        phase = closed_loop(wl, args.seconds, 0, count_cycle=True)
        phases = [phase]
        metrics = end_to_end(phase, setup)
        raw_busy = sum(phase.latencies)
        print_metrics(metrics, {
            "setup_s": f"median of {len(setup)} fresh interpreters; "
                       f"raw {statistics.median(p['raw_s'] for p in setup):.4f}",
            "runs_per_s": f"{phase.ops} operations; raw {phase.ops / raw_busy:.4f}",
            "run_p50_ms": f"raw {statistics.median(phase.latencies) * 1e3:.4f}",
            "events_per_s": f"raw {sum(phase.events) / raw_busy:.4f}",
        })
        # Printed, not gated: across ten seeds its spread reached 0.22 of its
        # median on the reference host, too close to the largest bound allowed.
        tail_s, pct, beyond = tail(phase.scaled)
        print_metrics({"run_tail_ms": {"value": tail_s * 1e3, "unit": "ms"}}, {
            "run_tail_ms": (f"p{pct}, {beyond} samples beyond" if pct < 100
                            else "max: no percentile has 10 samples beyond it")
                           + f"; raw {tail(phase.latencies)[0] * 1e3:.4f}; not in the JSON",
        })
    else:
        half = args.seconds / 2
        untraced = closed_loop(wl, half, 0, count_cycle=True)
        tracer = spans.Tracer(span_cap=SPAN_CAP)
        tracer.install()
        try:
            traced = closed_loop(wl, half, untraced.ops, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        print_metrics(metrics)
        print_trace(tracer, setup_tracer, traced, untraced)
        os.makedirs(OUT_ROOT, exist_ok=True)
        trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}.jsonl")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "ops": traced.ops})
        print(f"# span records written to {os.path.relpath(trace_path, ROOT)}")

    ops = sum(p.ops for p in phases)
    problems = golden_problems + file_problems + [p for ph in phases for p in ph.problems]
    failed = sum(p.failed for p in phases) + len(golden_problems) + len(file_problems)
    attempted = ops + golden_cells + file_cells
    print(f"failed_frac {failed / attempted:.6f} ({failed} failed / {attempted} attempted: {ops} operations, "
          f"{golden_cells} golden cells, {file_cells} --out runs)")
    print(f"golden {golden_cells} cells replayed twice: {len(golden_problems)} problems; "
          f"--out files of {file_cells} runs: {len(file_problems)} problems")
    counts = json.dumps(phases[0].counts, sort_keys=True)
    print(f"counts over the first {wl.cycle} operations: {counts} "
          f"sha256={hashlib.sha256(counts.encode()).hexdigest()[:16]}")
    for problem in problems[:20]:
        print(f"problem {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "sentinelsim", "__init__.py")):
        print(f"error: no sentinelsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
