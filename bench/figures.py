"""Reference timings of three slow library calls, for the benchmark README.

    python3 bench/figures.py

Prints one JSON object: the median of three wall-clock timings each of
`first_concurrence_peak` (bell1 m = 30 field, threshold 0.999),
`bell1_negative_branch_roots()` and the dense oracle decomposition
`eigh(build_hamiltonian(dim))` at dims 64, 128, 256 and 384. BLAS runs
on one thread, as in the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tcqubits as tq  # noqa: E402
from tcqubits.oracle import build_hamiltonian  # noqa: E402


def median_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    field = tq.bell1_plan(30, np.pi).field
    figures = {
        "first_concurrence_peak_s": median_seconds(
            lambda: tq.first_concurrence_peak(field, 12.0, 0.999)),
        "bell1_negative_branch_roots_s": median_seconds(tq.bell1_negative_branch_roots),
    }
    for dim in (64, 128, 256, 384):
        figures[f"dense_decomposition_dim{dim}_ms"] = 1e3 * median_seconds(
            lambda: np.linalg.eigh(build_hamiltonian(dim)))
    print(json.dumps(figures, indent=1))


if __name__ == "__main__":
    main()
