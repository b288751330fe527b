"""Benchmark of the tcqubits CLI entry points `scan`, `plan` and `validate`.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each run starts its workload in fresh worker processes (bench/worker.py)
with BLAS pinned to one thread. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. --smoke
runs two rounds of one copy of every workload's base mix, traced, and
exits 1 unless every
output checks out and only the known-fault operations failed. Results (and spans of traced runs) go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("scan", "plan", "validate")
SETUP_REPEATS = 5   # set-ups per run: the measuring worker and two set-up-only workers on each side
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "1"), ("_ms", "ms"), (".ms", "ms"), ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def run_worker(args: list, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    def setups(n):
        return [] if traced else [run_worker(base + ["--setup-only"], CHILD_TIMEOUT_S)["setup_s"]
                                  for _ in range(n)]

    before = setups(SETUP_REPEATS // 2)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    res = run_worker(base + ["--trace", str(int(traced))] + (["--spans", str(spans)] if traced else []),
                     seconds + CHILD_TIMEOUT_S)
    after = setups(SETUP_REPEATS // 2)
    if traced:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in res["layers"].items()}
    else:
        res["setup_s"] = statistics.median(before + [res["setup_s"]] + after)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        res = run_worker(["--workload", workload, "--seed", "1", "--seconds", "0",
                          "--trace", "1", "--rounds", "2", "--copies", "1"], CHILD_TIMEOUT_S)
        ok &= res["correct"] and res["failed"] == res["known_faults"]
        print(json.dumps({"workload": workload, "correct": res["correct"],
                          "attempted": res["attempted"], "failed": res["failed"],
                          "known_faults": res["known_faults"], "op_p50_ms": res["op_p50_ms"]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="two short rounds of every workload, traced")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tcqubits" / "__init__.py").is_file():
        print(f"error: no tcqubits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required unless --smoke is given")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
