"""Tests of the benchmark itself: its reference, its output checks and its smoke mode."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import tracing
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def run_op(op):
    from tcqubits import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(list(op.argv))
    return rc, sink.getvalue()


def rejects(op, rc, text) -> bool:
    try:
        op.check(rc, text)
    except (workloads.OutputMismatch, ValueError, LookupError, TypeError):
        return True
    return False


@pytest.fixture(scope="module")
def scan_outputs():
    return [(op, *run_op(op)) for op in workloads.scan_round(np.random.default_rng(5))]


@pytest.fixture(scope="module")
def plan_outputs():
    return [(op, *run_op(op)) for op in workloads.plan_round(np.random.default_rng(5))]


@pytest.fixture(scope="module")
def validate_output():
    op = workloads.validate_round(5, 0)[0]
    return (op, *run_op(op))


# ---------------------------------------------------------------------------
# the reference against known closed forms


def test_reference_single_photon_law():
    gts = np.linspace(0.0, 6.0, 301)
    rho = ref.Evolution(ref.number_field(1, 8)).densities(gts)
    law = np.sin(math.sqrt(2.0) * gts) ** 2
    assert np.max(np.abs(ref.concurrence_x(rho) - law)) < 1e-12
    assert np.max(np.abs(ref.concurrence(rho) - law)) < 1e-6


@pytest.mark.parametrize("m", [1, 8, 30, 400])
def test_reference_bell1_purity_factor(m):
    # |m+2> alone, at the time where A(m+1) = cos(gt sqrt(4m+6)) = -1
    gt = math.pi / math.sqrt(4.0 * m + 6.0)
    rho = ref.Evolution(ref.number_field(m + 2, m + 5)).densities([gt])[0]
    assert rho[0, 0].real == pytest.approx((4 * m * m + 12 * m + 8) / (4 * m * m + 12 * m + 9), abs=1e-12)


@pytest.mark.parametrize("target", [(1 / 3, 1 / 6), (0.2, 0.1), (0.3, 0.1)])
def test_reference_werner_recipe_reaches_target(target):
    x, u = ref.werner_recipe(*target)
    gt = math.acos(u) / math.sqrt(38.0)
    field = ref.superposition([(0, math.sqrt(1.0 - x)), (10, math.sqrt(x))], 16)
    els = ref.elements(ref.Evolution(field).densities([gt])[0])
    assert (els["v_plus"], els["w"]) == pytest.approx(target, abs=1e-12)


def test_reference_states_are_states():
    rng = np.random.default_rng(0)
    c = np.zeros(40, dtype=complex)
    c[:37] = rng.normal(size=37) + 1j * rng.normal(size=37)
    rho = ref.Evolution(c / np.linalg.norm(c)).densities(np.linspace(0.0, 12.0, 50))
    assert ref.density_defects(rho, 1e-12) == []
    conc = ref.concurrence(rho)
    assert np.all((conc >= 0.0) & (conc <= 1.0))


def test_self_times_subtract_children():
    spans = [(0, 0, -1, "cli.main", 0, 100), (0, 1, 0, "a.f", 10, 40), (0, 2, 1, "b.g", 15, 25)]
    assert tracing.self_times(spans) == {"cli.main": (70, 1), "a.f": (20, 1), "b.g": (10, 1)}


def test_round_metrics_average_each_operation_over_rounds():
    import worker

    # position 0 takes 10 or 30 ms, position 1 always 20 ms: both average 20 ms.
    rounds_ns = [[10e6, 20e6], [30e6, 20e6]]
    assert worker.round_metrics(rounds_ns) == {"ops_per_s": 4 / 0.08, "op_p50_ms": 20.0, "op_p90_ms": 20.0}
    means = worker.round_metrics([[1e6 * k for k in range(1, 101)]])
    assert (means["op_p50_ms"], means["op_p90_ms"]) == (50.0, 90.0)


def test_every_timed_round_holds_enough_operations():
    import worker

    for name, copies in workloads.COPIES.items():
        assert len(workloads.rounds(name, 1, copies)(1)) >= worker.ROUND_OPS, name


# ---------------------------------------------------------------------------
# output checks accept genuine outputs and reject doctored ones


def test_genuine_outputs_pass(scan_outputs, plan_outputs, validate_output):
    for op, rc, text in scan_outputs + plan_outputs + [validate_output]:
        op.check(rc, text)


def test_perturbed_scan_row_is_rejected(scan_outputs):
    rng = np.random.default_rng(1)
    for op, rc, text in scan_outputs:
        lines = text.splitlines()
        row = int(rng.integers(1, len(lines)))
        values = lines[row].split(",")
        col = int(rng.integers(1, len(values)))
        values[col] = repr(float(values[col]) + 1e-5)
        lines[row] = ",".join(values)
        assert rejects(op, rc, "\n".join(lines) + "\n"), op.argv


def test_flipped_passed_is_rejected(plan_outputs):
    for op, rc, text in plan_outputs:
        payload = json.loads(text)
        payload["verification"]["passed"] = not payload["verification"]["passed"]
        doctored = json.dumps(payload)
        assert rejects(op, rc, doctored), op.argv
        assert rejects(op, 1 - rc, doctored), op.argv


def test_wrong_werner_recipe_is_rejected(plan_outputs):
    for op, rc, text in plan_outputs:
        payload = json.loads(text)
        if payload["protocol"] == "werner":
            payload["params"]["c10_sq"] += 1e-6
            assert rejects(op, rc, json.dumps(payload)), op.argv


def test_inflated_validate_deviation_is_rejected(validate_output):
    op, rc, text = validate_output
    for key in ("max_density_dev", "max_joint_dev", "werner: max_dev"):
        doctored = re.sub(rf"({key}=)(\S+)", lambda m: f"{m[1]}{float(m[2]) + 1e-8!r}", text)
        assert doctored != text and rejects(op, rc, doctored), key


def test_known_fault_operations_are_in_every_plan_round():
    for seed in (1, 2, 3):
        ops = workloads.plan_round(np.random.default_rng(seed))
        assert sum(op.known_fault for op in ops) == len(workloads.KNOWN_FAULT_WERNER_TARGETS)


# ---------------------------------------------------------------------------
# the command


def test_smoke_mode_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in rows] == list(workloads.WORKLOADS)
    assert all(r["correct"] and r["attempted"] > 0 for r in rows)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
