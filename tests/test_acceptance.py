"""Acceptance gate: one test per release criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines.
"""

import math
import time

import numpy as np
import pytest

from tcqubits import (FieldState, JointState, analytic_elements, apply_propagator,
                      assemble_density, bell1_negative_branch_roots, bell1_plan, bell2_plan,
                      compare_paths, concurrence, fidelity, first_concurrence_peak, is_x_type,
                      number_state, partial_trace, singlet_vector, superpose, target,
                      verify_plan, werner_forward_elements, werner_solve)
from tcqubits.protocols import NEGATIVE_BRANCH_REFERENCE_SEEDS

GT_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 8.673, 12.0)


def _report(num, text):
    print(f"[acceptance] criterion {num} PASS: {text}")


def random_field(rng, dim=64, support=40):
    amps = np.zeros(dim, dtype=complex)
    amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    amps /= np.linalg.norm(amps)
    return FieldState(amps)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240801)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        fld = random_field(rng)
        for gt in GT_GRID:
            worst = max(worst, compare_paths(fld, gt).max_density_dev)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9, f"max density deviation {worst:.3e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds budget"
    _report(1, f"100 fields x {len(GT_GRID)} times, max |rho_analytic - rho_oracle| "
               f"= {worst:.3e} <= 1e-9 in {elapsed:.1f}s")


def test_criterion_2_bell1_timing():
    results = {}
    for m, gt_ref in ((30, 8.67), (40, 9.9957)):
        plan = bell1_plan(m, math.pi)
        # independent evaluation of the closed-form time
        direct = math.pi / (math.sqrt(4 * m + 6) - math.sqrt(4 * m - 2))
        assert abs(plan.gt1 - direct) <= 1e-6
        res = first_concurrence_peak(plan.field, plan.gt1 + 0.5, 0.999)
        assert res is not None, f"no concurrence peak >= 0.999 for m={m}"
        gt_pk, c_pk = res
        assert abs(gt_pk - gt_ref) <= 0.02, f"m={m}: first peak at {gt_pk}"
        assert c_pk >= 0.999
        results[m] = (gt_pk, c_pk)
    _report(2, f"m=30 peak at gt={results[30][0]:.4f} (C={results[30][1]:.6f}), "
               f"m=40 peak at gt={results[40][0]:.4f} (C={results[40][1]:.6f})")


def test_criterion_3_bell1_state_and_phase_steering():
    plan = bell1_plan(30, math.pi)
    res = first_concurrence_peak(plan.field, plan.gt1 + 0.5, 0.999)
    assert res is not None
    gt_pk, _ = res
    rho = partial_trace(apply_propagator(JointState.from_field(plan.field, "gg"), gt_pk))
    fid = fidelity(rho, target("bell1", phi=math.pi))
    assert fid >= 0.999
    for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        predicted_mu = bell1_plan(30, phi).predicted.mu
        delta = (np.angle(predicted_mu) - phi) % (2 * math.pi)
        delta = min(delta, 2 * math.pi - delta)
        assert delta <= 1e-6
    _report(3, f"fidelity to bell1(pi) at peak = {fid:.6f} >= 0.999; "
               "arg(mu) tracks phi over the sweep to 1e-6")


def test_criterion_4_bell2_trajectory_and_state():
    fld = number_state(1, 8)
    gts = np.linspace(0.0, 4.5, 1000)
    conc = concurrence(assemble_density(analytic_elements(fld, gts)))
    worst = float(np.max(np.abs(conc - np.sin(math.sqrt(2) * gts) ** 2)))
    assert worst <= 1e-9, f"trajectory deviation {worst:.3e}"
    # maxima at odd multiples of the base time
    for l in (1, 3):
        gt_l = l * math.pi / (2 * math.sqrt(2))
        rho_l = assemble_density(analytic_elements(fld, gt_l))
        assert concurrence(rho_l) >= 1.0 - 1e-9
    rho = partial_trace(apply_propagator(JointState.from_field(fld, "gg"),
                                         math.pi / (2 * math.sqrt(2))))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1:3, 1:3] = 0.5
    dev = float(np.max(np.abs(rho - expected)))
    assert dev <= 1e-9
    _report(4, f"concurrence = sin^2(sqrt2 gt) to {worst:.2e} on 1000 points; "
               f"state deviation at gt2 = {dev:.2e} <= 1e-9")


def test_criterion_5_werner():
    # three-digit-rounded coefficients driven through the full pipeline
    fld = superpose([(0, math.sqrt(0.274)), (10, math.sqrt(0.726))], dim=16)
    pattern = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
    pattern[1, 2] = pattern[2, 1] = 1 / 6
    period = 2 * math.pi / math.sqrt(38)
    worst = 0.0
    for gt in (0.314, period - 0.314):
        rho = partial_trace(apply_propagator(JointState.from_field(fld, "gg"), gt))
        worst = max(worst, float(np.max(np.abs(rho - pattern))))
    assert worst <= 2e-3, f"element deviation {worst:.3e}"

    # independent solve must land on the reference values
    plan = werner_solve(1 / 3, 1 / 6, gt_max=3.2)
    assert abs(plan.c0_sq - 0.274) <= 5e-4
    assert abs(plan.times[0] - 0.314) <= 1e-3
    assert abs(plan.period - 1.019) <= 1e-3
    for t in plan.times:
        folded = t % plan.period
        off = min(abs(folded - plan.times[0]), abs(plan.period - folded - plan.times[0]))
        assert off <= 1e-6, f"time {t} off the period lattice by {off:.2e}"
        vp, _, w = werner_forward_elements(plan.c10_sq, t)
        assert max(abs(vp - 1 / 3), abs(w - 1 / 6)) <= 1e-9
    _report(5, f"rounded inputs deviate {worst:.2e} <= 2e-3 from the 1/3,1/6 pattern; "
               f"solver returns |c0|^2 = {plan.c0_sq:.6f}, gt = {plan.times[0]:.6f} + lattice")


def test_criterion_6_negative_branch():
    roots = bell1_negative_branch_roots()
    for x_ref, m_ref in NEGATIVE_BRANCH_REFERENCE_SEEDS:
        matches = [r for r in roots
                   if abs(r.c_m_sq - x_ref) <= 1e-4 and abs(r.m - m_ref) <= 1e-4]
        assert matches, f"pair ({x_ref}, {m_ref}) not reproduced"
        assert all(not r.feasible for r in matches), f"pair ({x_ref}, {m_ref}) wrongly feasible"
    _report(6, "all four reference (|c_m|^2, m) pairs reproduced to 1e-4 and "
               "classified infeasible")


def test_criterion_7_invariant_suite():
    rng = np.random.default_rng(31415)
    checks = {k: 0.0 for k in ("unitarity", "trace", "hermiticity", "positivity",
                               "excitation", "w_equals_p", "concurrence_range")}
    for _ in range(50):
        dim = int(rng.integers(12, 33))
        support = dim - 8
        br = np.zeros((4, dim), dtype=complex)
        br[:, :support] = rng.normal(size=(4, support)) + 1j * rng.normal(size=(4, support))
        br /= np.linalg.norm(br)
        state = JointState(br)
        gt = float(rng.uniform(-8, 8))
        out = apply_propagator(state, gt)
        checks["unitarity"] = max(checks["unitarity"], abs(np.linalg.norm(out.branches) - 1))
        checks["excitation"] = max(checks["excitation"],
                                   abs(out.excitation_number() - state.excitation_number()))
        rho = partial_trace(out)
        checks["trace"] = max(checks["trace"], abs(np.trace(rho).real - 1.0))
        checks["hermiticity"] = max(checks["hermiticity"],
                                    float(np.max(np.abs(rho - rho.conj().T))))
        checks["positivity"] = max(checks["positivity"],
                                   max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))))
        c = concurrence(rho)
        checks["concurrence_range"] = max(checks["concurrence_range"],
                                          max(0.0 - c, c - 1.0))

        # |gg>-initial runs additionally pin the identical-qubit structure
        fld = random_field(rng, dim=dim, support=support)
        rho_gg = partial_trace(apply_propagator(JointState.from_field(fld, "gg"), abs(gt)))
        checks["w_equals_p"] = max(checks["w_equals_p"],
                                   abs(rho_gg[1, 1].real - rho_gg[1, 2].real),
                                   abs(rho_gg[1, 2].imag))

    assert checks["unitarity"] <= 1e-12
    assert checks["trace"] <= 1e-10
    assert checks["hermiticity"] <= 1e-10
    assert checks["positivity"] <= 1e-9
    assert checks["excitation"] <= 1e-10
    assert checks["w_equals_p"] <= 1e-10
    assert checks["concurrence_range"] <= 0.0 + 1e-15

    # X-type classification under the no-adjacent-support condition
    for _ in range(50):
        levels = sorted(rng.choice(np.arange(0, 20, 2), size=4, replace=False))
        fld = superpose([(int(n), complex(rng.normal(), rng.normal())) for n in levels], dim=28)
        rho = assemble_density(analytic_elements(fld, float(rng.uniform(0, 10))))
        assert is_x_type(rho, 1e-12)

    worst = max(checks.values())
    _report(7, f"50-instance invariant suite passed; worst deviation {worst:.2e}")


def test_criterion_8_separability_and_never_singlet():
    assert concurrence(target("werner", eta=1.0).matrix) == 0.0
    psi = singlet_vector()
    proj = np.outer(psi, psi.conj())
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        fld = random_field(rng, dim=32, support=int(rng.integers(1, 25)))
        gt = float(rng.uniform(0, 12))
        rho = assemble_density(analytic_elements(fld, gt))
        worst = max(worst, fidelity(rho, proj))
    assert worst <= 0.5 + 1e-9
    _report(8, f"werner concurrence exactly 0; max singlet fidelity {worst:.2e} <= 1/2 + 1e-9")
