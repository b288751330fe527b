"""One workload in one process: set up, warm up, then a timed closed loop.

Started by run.py; prints one JSON object as its last stdout line. The
loop has one caller: each in-process `tcqubits` CLI call is issued when
the previous one (and the check of its output, which is not timed) has
returned. Whole rounds of operations run while the next round is
expected to end within --seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ROUND_OPS = 100   # a timed round's least size: op_p90_ms needs ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC reading taken just before this process was started")
    p.add_argument("--setup-only", action="store_true", help="exit after set-up and warm-up")
    p.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds (0: timed)")
    p.add_argument("--copies", type=int, default=0,
                   help="copies of the base mix in a round (0: the workload's own)")
    p.add_argument("--spans", default="", help="where a traced run writes its spans")
    return p.parse_args(argv)


def call(main, argv):
    """One operation: (exit code, or the traceback text if it raised; stdout; elapsed ns)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter_ns()
        try:
            rc = main(list(argv))
        except Exception:  # an operation that crashes counts as failed; the loop goes on
            rc = traceback.format_exc()
        elapsed = time.perf_counter_ns() - start
    return rc, sink.getvalue(), elapsed


def warm_oracle(dim: int) -> float:
    """Time the first brute-force evolution at dim: it builds the dense decomposition."""
    from tcqubits.fock import number_state
    from tcqubits.oracle import evolve_oracle
    from tcqubits.propagator import JointState

    start = time.perf_counter()
    evolve_oracle(JointState.from_field(number_state(0, dim)), 0.0)
    return time.perf_counter() - start


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def round_metrics(rounds_ns) -> dict:
    """ops/s over all timed calls; p50 and p90 over the round's operations
    of each operation's mean time.

    rounds_ns holds one list of call times per round, in round order, so
    position k is the same operation (for validate, the same kind of call)
    in every round. Averaging each operation over the rounds, which are
    spread over the whole run, keeps the percentiles from jumping between
    the speeds the machine switches between from second to second.
    """
    means = sorted(statistics.fmean(times) for times in zip(*rounds_ns))
    calls = [ns for durations in rounds_ns for ns in durations]
    return {
        "ops_per_s": len(calls) / (sum(calls) / 1e9),
        "op_p50_ms": nearest_rank(means, 0.50) / 1e6,
        "op_p90_ms": nearest_rank(means, 0.90) / 1e6,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import tcqubits
    if Path(tcqubits.__file__).resolve().parent != SRC / "tcqubits":
        print(f"error: imported tcqubits from {tcqubits.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tcqubits import cli
    import tracing
    import workloads

    copies = args.copies or workloads.COPIES[args.workload]
    round_ops = workloads.rounds(args.workload, args.seed, copies)
    warmup_s = warm_oracle(workloads.VALIDATE_DIM) if args.workload == "validate" else 0.0
    warmup = round_ops(0)
    for op in warmup[:len(warmup) // copies]:   # one copy of the base mix: every kind of call
        call(cli.main, op.argv)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    traced_main = tracer.wrap(tracing.ROOT, cli.main) if tracer else None
    untraced, traced_ns, traced_ops = [], 0, 0   # untraced: per-round lists of call ns
    attempted = failed = known_faults = 0
    mismatches, crashes = [], []
    gc.collect()
    start = time.monotonic()
    index = 1
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        else:
            untraced.append([])
        try:
            for op in round_ops(index):
                if traced:
                    tracer.op = attempted
                rc, text, ns = call(traced_main if traced else cli.main, op.argv)
                attempted += 1
                failed += rc != 0
                known_faults += op.known_fault
                if traced:
                    traced_ns, traced_ops = traced_ns + ns, traced_ops + 1
                else:
                    untraced[-1].append(ns)
                if isinstance(rc, str):
                    crashes.append(rc)
                    continue
                try:
                    op.check(rc, text)
                except (workloads.OutputMismatch, ValueError, LookupError, TypeError) as exc:
                    mismatches.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
        if args.rounds:
            if index >= args.rounds:
                break
        else:
            elapsed = time.monotonic() - start
            if index >= (2 if tracer else 1) and elapsed * (index + 1) / index > args.seconds:
                break
        index += 1

    for line in mismatches[:5]:
        print(f"mismatch: {line}", file=sys.stderr)
    if crashes:
        print(f"{len(crashes)} operations raised; the first:\n{crashes[0]}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "known_faults": known_faults,
        "setup_s": setup_s,
        **round_metrics(untraced),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        untraced_ns = [ns for durations in untraced for ns in durations]
        untraced_rate = len(untraced_ns) / (sum(untraced_ns) / 1e9)
        traced_rate = traced_ops / (traced_ns / 1e9)
        result["layers"] = tracing.layer_metrics(tracer.spans, traced_ops)
        result["layers"]["oracle.warmup_s"] = warmup_s
        result["layers"]["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / untraced_rate)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
