"""The benchmark's operation mixes and the checks of each operation's output.

An operation is one in-process `tcqubits` CLI call (its argv) plus the
check of what it printed. Inputs come from the run's seed alone. A
workload's base mix is a handful of calls of every kind it covers; a
round is COPIES[workload] copies of that mix, each with its own seeded
parameters, so that a round holds at least 100 calls. A run repeats
whole rounds, so every run holds the same mix. Checks compare against `reference` (which shares no code
with the package) and against properties the method must have; they
never compare against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import reference as ref

ELEMENT_TOL = 1e-9      # closed form vs block reference, the package's own gate
MEASURE_TOL = 1e-6      # concurrence/fidelity: eigenvalue routes lose ~sqrt(eps) near rank deficiency
STATE_TOL = 1e-9        # trace, Hermiticity, positivity
VALIDATE_TOL = 1e-9
SCAN_STEPS = 100
VALIDATE_DIM = 128
VALIDATE_OPS_PER_COPY = 4
#: Copies of the base mix in one round: 100 scan, 120 plan and 100 validate calls.
COPIES = {"scan": 10, "plan": 5, "validate": 25}
#: bell1 base photon number. One value: a bell1 plan at m = 8 costs about
#: 25 % less than at m >= 14, and with several m values the p50 of a round
#: fell on the edge between two m groups and jumped between them from run
#: to run. The seed moves only the phases.
BELL1_M = 30

#: Non-default Werner targets. Both are feasible; the program solves them
#: but verifies against the eta = 1 matrix, so each such call reports
#: passed: false. They do not depend on the seed, so the failed share of
#: every run is the same.
KNOWN_FAULT_WERNER_TARGETS = ((0.2, 0.1), (0.3, 0.1))


class OutputMismatch(AssertionError):
    """A program output disagrees with the reference or a required property."""


@dataclass(frozen=True)
class Op:
    """One CLI call; check(exit code, stdout) raises OutputMismatch. A known-fault
    operation fails because of the fault described at KNOWN_FAULT_WERNER_TARGETS."""

    argv: tuple
    check: Callable[[int, str], None]
    known_fault: bool = False


def _expect(ok, message: str) -> None:
    if not ok:
        raise OutputMismatch(message)


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# scan


def _check_scan(field, outputs, gt_min, gt_max, sigma, single_photon, rc, text):
    if rc != 0:
        return
    lines = text.splitlines()
    columns = ["gt"]
    if "elements" in outputs:
        columns += ["v_plus", "v_minus", "w", "re_mu", "im_mu",
                    "re_h_plus", "im_h_plus", "re_h_minus", "im_h_minus"]
    columns += [c for c in ("concurrence", "fidelity") if c in outputs]
    _expect(lines[0].split(",") == columns, f"scan header {lines[0]!r}")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    _expect(data.shape == (SCAN_STEPS, len(columns)), f"scan table shape {data.shape}")
    col = {name: data[:, i] for i, name in enumerate(columns)}
    gts = col["gt"]
    _expect(np.array_equal(gts, np.linspace(gt_min, gt_max, SCAN_STEPS)), "scan gt grid")

    rho = ref.density_from_elements(col["v_plus"], col["v_minus"], col["w"],
                                    col["re_mu"] + 1j * col["im_mu"],
                                    col["re_h_plus"] + 1j * col["im_h_plus"],
                                    col["re_h_minus"] + 1j * col["im_h_minus"])
    defects = ref.density_defects(rho, STATE_TOL)
    _expect(not defects, f"scan states: {defects}")
    conc = col["concurrence"]
    _expect(np.all((conc >= 0.0) & (conc <= 1.0)), "concurrence outside [0, 1]")
    if single_photon:
        law = np.sin(math.sqrt(2.0) * gts) ** 2
        _expect(np.max(np.abs(conc - law)) <= ELEMENT_TOL, "single-photon law C = sin^2(sqrt2 gt)")

    expected = ref.Evolution(field).densities(gts)
    _expect(np.max(np.abs(rho - expected)) <= ELEMENT_TOL,
            f"scan elements off the reference by {np.max(np.abs(rho - expected)):.3e}")
    x_type = ref.is_x_type(expected)
    want = np.where(x_type, ref.concurrence_x(expected), ref.concurrence(expected))
    _expect(np.max(np.abs(conc - want)) <= MEASURE_TOL, "scan concurrence off the reference")
    if x_type.any():
        gap = np.abs(ref.concurrence(expected) - ref.concurrence_x(expected))[x_type]
        _expect(np.max(gap) <= MEASURE_TOL, "reference concurrence routes disagree")
    if sigma is not None:
        fid = ref.fidelity(expected, sigma)
        _expect(np.max(np.abs(col["fidelity"] - fid)) <= MEASURE_TOL,
                "scan fidelity off the reference")


def _scan_op(recipe, field, dim, gt_min, gt_max, outputs, sigma=None, target=None):
    argv = ["scan", "--field", recipe, "--dim", str(dim), "--gt-min", _num(gt_min),
            "--gt-max", _num(gt_max), "--steps", str(SCAN_STEPS), "--outputs", ",".join(outputs)]
    if target:
        argv += ["--target", target]
    check = partial(_check_scan, field, outputs, float(_num(gt_min)), float(_num(gt_max)),
                    sigma, recipe == "single-photon")
    return Op(tuple(argv), check)


def _recipe(terms) -> str:
    return ";".join(f"{n}:{_num(c.real)},{_num(c.imag)}" for n, c in terms)


def scan_round(rng, copies: int = 1) -> list:
    """copies × ten scans: Bell and Werner presets, even cats up to dim 192,
    single photon, and explicit superpositions with and without adjacent support."""
    return [op for _ in range(copies) for op in _scan_copy(rng)]


def _scan_copy(rng) -> list:
    ec = ("elements", "concurrence")
    ecf = ec + ("fidelity",)
    ops = []
    lo = rng.uniform(8.0, 8.5)
    ops.append(_scan_op("bell1-m30", ref.superposition([(30, 1), (32, 1)], 40), 40,
                        lo, lo + 3.0, ecf, ref.bell1_matrix(math.pi)))
    lo = rng.uniform(8.5, 9.5)
    ops.append(_scan_op("bell1-m40", ref.superposition([(40, 1), (42, -1)], 48), 48,
                        lo, lo + 3.0, ec))
    for a_lo, a_hi, dim in ((1.5, 3.0, 64), (3.0, 5.0, 128), (5.0, 7.0, 192)):
        alpha = float(_num(rng.uniform(a_lo, a_hi)))
        ops.append(_scan_op(f"even-coherent:{_num(alpha)}", ref.even_cat(alpha, dim), dim,
                            0.0, rng.uniform(4.0, 8.0), ec))
    x, _ = ref.werner_recipe(1.0 / 3.0, 1.0 / 6.0)
    ops.append(_scan_op("werner", ref.superposition([(0, math.sqrt(1 - x)), (10, math.sqrt(x))], 16),
                        16, 0.0, 2.2, ecf, ref.werner_matrix()))
    ops.append(_scan_op("single-photon", ref.number_field(1, 8), 8, 0.0, rng.uniform(3.0, 6.0), ec))
    for offsets, outputs in (((0, 2, 6), ec), ((0, 1, 3), ec), ((0, 1, 3), ecf)):
        n0 = int(rng.integers(2, 21))
        amps = [complex(float(_num(a)), float(_num(b))) for a, b in rng.normal(size=(3, 2))]
        terms = [(n0 + k, a) for k, a in zip(offsets, amps)]
        phi = float(_num(rng.uniform(-math.pi, math.pi)))
        fid = "fidelity" in outputs
        ops.append(_scan_op(_recipe(terms), ref.superposition(terms, 32), 32, 0.0,
                            rng.uniform(3.0, 8.0), outputs,
                            ref.bell1_matrix(phi) if fid else None,
                            f"bell1:{_num(phi)}" if fid else None))
    return ops


# ---------------------------------------------------------------------------
# plan


def _plan_payload(rc, text):
    payload = json.loads(text)
    ver = payload["verification"]
    _expect(ver["passed"] == (rc == 0), "verification verdict disagrees with the exit code")
    return payload, ver


def _amplitudes(payload) -> np.ndarray:
    return np.array([complex(a, b) for a, b in payload["field"]["amplitudes"]])


def _check_bell1(m, phi, rc, text):
    payload, ver = _plan_payload(rc, text)
    _expect(ver["passed"] == (ver["fidelity"] >= 1.0 - ver["tolerance"]), "bell1 verdict")
    field = ref.superposition([(m, 1.0), (m + 2, np.exp(-1j * (phi + math.pi)))], m + 5)
    _expect(np.max(np.abs(_amplitudes(payload) - field)) <= 1e-12, "bell1 field recipe")
    _expect(abs(payload["gt"][0] - ref.bell1_time(m)) <= 1e-12 * ref.bell1_time(m), "bell1 gt1")
    gt_peak = ver["gt_peak"]
    _expect(abs(gt_peak - payload["gt"][0]) <= 0.1 + 1e-12, "bell1 peak outside its bracket")
    rho = ref.Evolution(field).densities([gt_peak])
    fid = float(ref.fidelity(rho, ref.bell1_matrix(phi))[0])
    _expect(fid >= 1.0 - 1e-3, f"bell1 state fidelity {fid} below 1 - 1e-3")
    _expect(abs(ver["fidelity"] - fid) <= MEASURE_TOL, "bell1 reported fidelity")
    _expect(abs(ver["concurrence"] - float(ref.concurrence_x(rho)[0])) <= MEASURE_TOL,
            "bell1 reported concurrence")
    _expect(not ref.density_defects(rho, STATE_TOL), "bell1 state")


def _check_bell2(l, rc, text):
    payload, ver = _plan_payload(rc, text)
    _expect(ver["passed"] == (ver["max_element_dev"] <= ver["tolerance"]), "bell2 verdict")
    gt = l * math.pi / (2.0 * math.sqrt(2.0))
    _expect(abs(payload["gt"][0] - gt) <= 1e-12 * gt, "bell2 time")
    _expect(np.max(np.abs(_amplitudes(payload) - ref.number_field(1, 8))) == 0.0, "bell2 field")
    rho = ref.Evolution(ref.number_field(1, 8)).densities([gt])
    _expect(np.max(np.abs(rho - ref.bell2_matrix())) <= 1e-9, "bell2 state off its target")
    _expect(abs(ver["max_element_dev"] - np.max(np.abs(rho - ref.bell2_matrix()))) <= 1e-9,
            "bell2 reported deviation")
    _expect(abs(ver["fidelity"] - 1.0) <= MEASURE_TOL and abs(ver["concurrence"] - 1.0) <= MEASURE_TOL,
            "bell2 reported fidelity/concurrence")


def _check_werner(v_plus, w, gt_max, rc, text):
    payload, ver = _plan_payload(rc, text)
    _expect(ver["passed"] == (ver["max_element_dev"] <= ver["tolerance"]), "werner verdict")
    x, _ = ref.werner_recipe(v_plus, w)
    _expect(abs(payload["params"]["c10_sq"] - x) <= 1e-9, "werner |c10|^2")
    field = ref.superposition([(0, math.sqrt(1.0 - x)), (10, math.sqrt(x))], 16)
    _expect(np.max(np.abs(_amplitudes(payload) - field)) <= 1e-9, "werner field recipe")
    times = payload["gt"]
    _expect(times and times == sorted(times) and 0.0 <= times[0] and times[-1] <= gt_max,
            "werner times")
    rho = ref.Evolution(field).densities(times)
    got = ref.elements(rho)
    _expect(np.max(np.abs(got["v_plus"] - v_plus)) <= 2e-3 and np.max(np.abs(got["w"] - w)) <= 2e-3,
            "werner state misses the requested (v_plus, w)")
    _expect(np.all(ref.is_x_type(rho)) and not ref.density_defects(rho, STATE_TOL), "werner state")


def plan_round(rng, copies: int = 1) -> list:
    """copies × twenty-four plans: twenty bell1 (m = 30, random phase), one
    bell2 (odd l), one default Werner target and the two fixed non-default ones.

    bell1 plans make up 5/6 of the round, so p50 and p90 sit inside the
    bell1 times rather than on the edge between two kinds of plan.
    """
    return [op for _ in range(copies) for op in _plan_copy(rng)]


def _plan_copy(rng) -> list:
    ops = []
    for _ in range(20):
        phi = float(_num(rng.uniform(-math.pi, math.pi)))
        ops.append(Op(("plan", "bell1", "--m", str(BELL1_M), "--phi", _num(phi)),
                      partial(_check_bell1, BELL1_M, phi)))
    l = int(rng.integers(0, 8)) * 2 + 1
    ops.append(Op(("plan", "bell2", "--l", str(l)), partial(_check_bell2, l)))
    ops.append(Op(("plan", "werner"), partial(_check_werner, 1.0 / 3.0, 1.0 / 6.0, 2.2)))
    for v_plus, w in KNOWN_FAULT_WERNER_TARGETS:
        ops.append(Op(("plan", "werner", "--v-plus", _num(v_plus), "--w", _num(w)),
                      partial(_check_werner, v_plus, w, 2.2), known_fault=True))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# validate

_VALIDATE_LINES = (
    re.compile(r"random fields: trials=(\d+) dim=(\d+) support<=(\d+) "
               r"max_density_dev=(\S+) max_joint_dev=(\S+)$"),
    re.compile(r"preset bell1-m30: max_dev=(\S+)$"),
    re.compile(r"preset single-photon: max_dev=(\S+)$"),
    re.compile(r"preset werner: max_dev=(\S+)$"),
    re.compile(r"overall max deviation: (\S+) \((PASS|FAIL) at tol (\S+)\)$"),
)


def _check_validate(dim, trials, rc, text):
    if rc != 0:
        return
    lines = text.splitlines()
    _expect(len(lines) == len(_VALIDATE_LINES), "validate line count")
    found = [pat.match(line) for pat, line in zip(_VALIDATE_LINES, lines)]
    _expect(all(found), "validate output format")
    head = found[0].groups()
    _expect((int(head[0]), int(head[1]), int(head[2])) == (trials, dim, min(40, dim - 8)),
            "validate echo of trials/dim/support")
    devs = [float(head[3]), float(head[4])] + [float(f.group(1)) for f in found[1:4]]
    overall, verdict, tol = found[4].groups()
    _expect(all(math.isfinite(d) and 0.0 <= d <= VALIDATE_TOL for d in devs),
            f"validate deviations {devs}")
    _expect(float(overall) == max(devs), "validate overall deviation")
    _expect(verdict == "PASS" and float(tol) == VALIDATE_TOL,
            "validate verdict")


def validate_round(seed: int, index: int, copies: int = 1) -> list:
    """copies × four validate calls at one dim with one trial and a fresh seed each."""
    seeds = np.random.default_rng([seed, index]).integers(0, 2**31, copies * VALIDATE_OPS_PER_COPY)
    return [Op(("validate", "--dim", str(VALIDATE_DIM), "--trials", "1", "--seed", str(s)),
               partial(_check_validate, VALIDATE_DIM, 1)) for s in seeds]


def rounds(workload: str, seed: int, copies: int) -> Callable[[int], list]:
    """Round index -> that round's operations: copies of the base mix."""
    if workload == "validate":
        return partial(validate_round, seed, copies=copies)
    if workload == "scan":
        ops = scan_round(np.random.default_rng(seed), copies)
    elif workload == "plan":
        ops = plan_round(np.random.default_rng(seed), copies)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return lambda index: ops


WORKLOADS = ("scan", "plan", "validate")
