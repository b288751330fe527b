import math

import numpy as np
import pytest

from tcqubits import (JointState, analytic_elements, apply_propagator, assemble_density,
                      bell1_conditions_residual, bell1_negative_branch_roots, bell1_plan,
                      bell1_purity_factor, bell1_time, bell2_plan, concurrence, fidelity,
                      first_concurrence_peak, partial_trace, singlet_vector, superpose,
                      target, verify_plan, werner_forward_elements, werner_solve)
from tcqubits.protocols import (NEGATIVE_BRANCH_REFERENCE_SEEDS, WERNER_PERIOD,
                                golden_section_max, negative_branch_curve,
                                negative_branch_residuals)

RNG = np.random.default_rng(77)


# --- small solvers ----------------------------------------------------------

def test_golden_section_max_quadratic():
    # argmax of a flat quadratic top resolves only to ~sqrt(eps)
    x, fx = golden_section_max(lambda t: -(t - 2.0) ** 2 + 5.0, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(5.0, abs=1e-12)


# --- first-class Bell plan --------------------------------------------------

def test_bell1_times():
    assert bell1_time(30) == pytest.approx(math.pi / (math.sqrt(126) - math.sqrt(118)), abs=1e-15)
    assert bell1_time(30) == pytest.approx(8.6738, abs=1e-3)
    assert bell1_time(40) == pytest.approx(9.99572, abs=1e-4)


def test_bell1_purity_factor_m30():
    assert bell1_purity_factor(30) == pytest.approx(3968 / 3969, abs=1e-15)


def test_bell1_purity_factor_increases():
    vals = [bell1_purity_factor(m) for m in range(1, 60)]
    assert all(0 < v < 1 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bell1_plan_field_recipe():
    plan = bell1_plan(30, math.pi)
    amps = plan.field.amplitudes
    assert abs(amps[30]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(amps[32]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert np.count_nonzero(np.abs(amps) > 1e-15) == 2
    # phi = pi makes the pair an equal plus-superposition
    assert amps[32] == pytest.approx(amps[30], abs=1e-12)


def test_bell1_plan_rejects_small_m():
    with pytest.raises(ValueError):
        bell1_plan(0, 0.0)


def test_bell1_plan_rejects_small_dim():
    with pytest.raises(ValueError):
        bell1_plan(30, 0.0, dim=33)


def test_bell1_predicted_elements():
    plan = bell1_plan(30, math.pi)
    q = plan.purity_factor
    assert plan.predicted.v_plus == pytest.approx(q / 2, abs=1e-12)
    assert plan.predicted.v_minus == pytest.approx(1 - q / 2, abs=1e-12)
    assert plan.predicted.w == 0.0
    assert abs(plan.predicted.mu) == pytest.approx(math.sqrt(q) / 2, abs=1e-12)


def test_bell1_phase_steering():
    # the argument of the predicted coherence equals the requested phase
    for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2.113):
        plan = bell1_plan(25, phi)
        delta = (np.angle(plan.predicted.mu) - phi) % (2 * math.pi)
        assert min(delta, 2 * math.pi - delta) <= 1e-6


def test_bell1_conditions_at_time_zero():
    b_lo, b_hi, a_lo, a_hi = bell1_conditions_residual(17, 0.0)
    assert (b_lo, b_hi, a_lo, a_hi) == (0.0, 0.0, 1.0, 1.0)


def test_bell1_conditions_near_ideal_at_gt1_for_m30():
    b_lo, b_hi, a_lo, a_hi = bell1_conditions_residual(30, bell1_time(30))
    assert abs(a_lo - 1.0) <= 1e-3
    assert abs(a_hi + 1.0) <= 1e-3
    assert max(b_lo, b_hi) <= 0.05
    assert max(b_lo, b_hi) > 0.0  # approximate, never exact


def test_bell1_conditions_poor_for_small_m():
    b_lo, b_hi, a_lo, _ = bell1_conditions_residual(1, bell1_time(1))
    assert max(b_lo, b_hi) > 0.5
    assert abs(a_lo - 1.0) > 1.0


def test_bell1_first_peak_even_m_property():
    # the first high peak sits within gt1 +/- 0.02 and reaches the purity bound
    for m in (8, 10, 12, 14, 16):
        plan = bell1_plan(m, 0.0)
        q = plan.purity_factor
        res = first_concurrence_peak(plan.field, plan.gt1 + 0.5, q - 1e-6, samples=2048)
        assert res is not None, f"no peak found for m={m}"
        gt_pk, c_pk = res
        assert abs(gt_pk - plan.gt1) <= 0.02
        assert c_pk >= q - 1e-6


def test_verify_bell1():
    report = verify_plan(bell1_plan(30, math.pi))
    assert report.passed
    assert report.fidelity >= 0.999
    assert abs(report.gt_peak - bell1_time(30)) <= 0.1
    assert report.concurrence >= 0.999
    assert report.prediction_dev <= 1e-3


@pytest.mark.parametrize("m", [30, 300, 1000, 2000])
def test_verify_bell1_refines_to_the_main_peak(m):
    # the main peak has 1 - F = 1/(4 (2m+3)^2); concurrence maxima lie
    # pi/(2 sqrt(4m+6)) apart, closer than 0.1 for m >= 14, and a side
    # peak scores far worse (20 instead of 1/4 at m = 1000)
    report = bell1_plan(m, 0.0).verify()
    assert abs((1.0 - report.fidelity) * (2 * m + 3) ** 2 - 0.25) <= 1e-3


def test_bell1_fidelity_at_nominal_time():
    plan = bell1_plan(30, math.pi)
    from tcqubits import target
    rho = assemble_density(analytic_elements(plan.field, 8.673))
    assert fidelity(rho, target("bell1", phi=math.pi)) >= 0.999


def test_bell1_plan_json():
    plan = bell1_plan(30, math.pi)
    data = plan.to_json()
    assert data["protocol"] == "bell1"
    assert data["params"] == {"m": 30, "phi": math.pi, "purity_factor": plan.purity_factor}
    assert data["gt"] == [plan.gt1]
    assert data["gt"][0] == pytest.approx(8.6738, abs=1e-3)
    assert data["field"] == plan.field.to_json()
    assert data["field"]["dim"] == 35
    mu = plan.predicted.mu
    assert data["predicted"] == {
        "v_plus": plan.predicted.v_plus, "v_minus": plan.predicted.v_minus,
        "w": 0.0, "p": 0.0, "h_plus": [0.0, 0.0], "h_minus": [0.0, 0.0],
        "mu": [mu.real, mu.imag]}


# --- negative branch --------------------------------------------------------

def test_negative_branch_residuals_are_dependent():
    # the two residuals cancel identically: the solution set is a curve
    for _ in range(50):
        x = float(RNG.uniform(-3, 3))
        m = float(RNG.uniform(-3, 3))
        if min(abs(2 * m - 1), abs(2 * m + 3)) < 1e-3:
            continue
        r1, r2 = negative_branch_residuals(x, m)
        assert r1 + r2 == pytest.approx(0.0, abs=1e-10)


def test_negative_branch_curve_solves_conditions():
    for m in (-2.2, -0.9, 0.2, 1.7, 2.5):
        x = negative_branch_curve(m)
        r1, r2 = negative_branch_residuals(x, m)
        assert max(abs(r1), abs(r2)) <= 1e-12


def test_negative_branch_reproduces_reference_roots():
    roots = bell1_negative_branch_roots()
    for x_ref, m_ref in NEGATIVE_BRANCH_REFERENCE_SEEDS:
        matches = [r for r in roots
                   if abs(r.c_m_sq - x_ref) <= 1e-4 and abs(r.m - m_ref) <= 1e-4]
        assert matches, f"reference root ({x_ref}, {m_ref}) not recovered"
        assert all(not r.feasible for r in matches)


def test_negative_branch_roots_solve_conditions():
    ms = np.linspace(-2.95, 2.95, 60)  # steps of 0.1 that miss the poles at m = -3/2, +-1/2
    roots = bell1_negative_branch_roots(ms)
    assert [r.m for r in roots] == list(ms)
    assert all(max(abs(v) for v in negative_branch_residuals(r.c_m_sq, r.m)) <= 1e-12
               for r in roots)


def test_negative_branch_low_m_is_infeasible():
    # m = 0: |c_m|^2 = 0.4375 lies in [0, 1] but the m-1 block is unphysical;
    # m = 1: (2m-1)(2m+3) = 5, so A(m-1) = A(m+1) = -1 never hold together
    low, one = bell1_negative_branch_roots([0, 1])
    assert not low.feasible and "m-1 block" in low.reason
    assert not one.feasible and "perfect square" in one.reason


def test_negative_branch_never_feasible_at_integer_m():
    # (2m-1)(2m+3) = (2m+1)^2 - 4 lies strictly between two squares for m >= 1
    assert not any(r.feasible for r in bell1_negative_branch_roots(range(200)))


# --- second-class Bell plan -------------------------------------------------

def test_bell2_time():
    assert bell2_plan(1).gt2 == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-15)
    assert bell2_plan(1).gt2 == pytest.approx(1.1107, abs=1e-4)
    assert bell2_plan(3).gt2 == pytest.approx(3 * math.pi / (2 * math.sqrt(2)), abs=1e-15)


@pytest.mark.parametrize("bad_l", [2, 0, -1, 4])
def test_bell2_rejects_non_odd(bad_l):
    with pytest.raises(ValueError):
        bell2_plan(bad_l)


def test_bell2_records_uniqueness():
    plan = bell2_plan(1)
    assert plan.unique_m == 1
    assert plan.predicted.w == 0.5
    # m/(4m-2) >= 1/2 forces m <= 1 among positive integers
    assert all(m / (4 * m - 2) < 0.5 for m in range(2, 30))


def test_bell2_trajectory_identity():
    plan = bell2_plan(1)
    for gt in np.linspace(0, 4.5, 200):
        rho = assemble_density(analytic_elements(plan.field, float(gt)))
        assert concurrence(rho) == pytest.approx(math.sin(math.sqrt(2) * gt) ** 2, abs=1e-9)


def test_verify_bell2():
    report = verify_plan(bell2_plan(1))
    assert report.passed
    assert report.max_element_dev <= 1e-9
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)
    assert report.concurrence == pytest.approx(1.0, abs=1e-9)


# --- Werner plan ------------------------------------------------------------

def test_werner_solve_recovers_known_solution():
    plan = werner_solve(1 / 3, 1 / 6)
    # exact solution of the target system: |c10|^2 = 98/135, cos = -5/14
    assert plan.c10_sq == pytest.approx(98 / 135, abs=1e-10)
    assert plan.c0_sq == pytest.approx(37 / 135, abs=1e-10)
    assert plan.c0_sq + plan.c10_sq == pytest.approx(1.0, abs=1e-9)
    assert plan.times[0] == pytest.approx(math.acos(-5 / 14) / math.sqrt(38), abs=1e-10)
    assert plan.c0_sq == pytest.approx(0.274, abs=5e-4)
    assert plan.period == pytest.approx(1.019, abs=1e-3)


def test_werner_solve_reflection_pair():
    plan = werner_solve(1 / 3, 1 / 6)
    base = [t for t in plan.times if t < plan.period]
    assert len(base) == 2
    assert base[0] + base[1] == pytest.approx(plan.period, abs=1e-10)


def test_werner_solve_lattice_extension():
    plan = werner_solve(1 / 3, 1 / 6, gt_max=3.2)
    for t in plan.times:
        folded = t % plan.period
        off = min(abs(folded - plan.times[0]), abs(plan.period - folded - plan.times[0]))
        assert off <= 1e-9
    assert list(plan.times) == sorted(plan.times)
    assert plan.times[-1] <= 3.2


def test_werner_solve_residuals():
    plan = werner_solve(1 / 3, 1 / 6)
    for t in plan.times:
        vp, _, w = werner_forward_elements(plan.c10_sq, t)
        assert abs(vp - 1 / 3) <= 1e-9
        assert abs(w - 1 / 6) <= 1e-9


def test_werner_solve_degenerate_targets():
    plan = werner_solve(0.0, 0.0)
    assert plan.degenerate
    assert plan.times == (0.0,)


def test_werner_solve_infeasible_box():
    # consistent on the circle but demands |c10|^2 > 1
    with pytest.raises(ValueError, match="feasible"):
        werner_solve(0.5, 0.25)


@pytest.mark.parametrize("targets, gt_max", [((1 / 3, 1 / 6), 0.1), ((0.0, 0.0), -0.5)])
def test_werner_solve_rejects_gt_max_below_first_time(targets, gt_max):
    with pytest.raises(ValueError, match="no solution time"):
        werner_solve(*targets, gt_max=gt_max)


def test_werner_solve_rejects_inconsistent_targets():
    with pytest.raises(ValueError, match="targets"):
        werner_solve(0.6, 0.25)


def test_werner_forward_periodicity_and_reflection():
    for _ in range(25):
        x = float(RNG.uniform(0, 1))
        gt = float(RNG.uniform(0, 5))
        base = werner_forward_elements(x, gt)
        shifted = werner_forward_elements(x, gt + WERNER_PERIOD)
        mirrored = werner_forward_elements(x, -gt)
        assert np.allclose(base, shifted, atol=1e-9)
        assert np.allclose(base, mirrored, atol=1e-12)


def test_verify_werner():
    report = verify_plan(werner_solve(1 / 3, 1 / 6))
    assert report.passed
    assert report.max_element_dev <= 1e-9  # solver output is far inside the 2e-3 gate
    assert len(report.per_time) == len(report.gt_values)


@pytest.mark.parametrize("targets", [(1 / 3, 1 / 6), (0.2, 0.1), (0.4, 0.05)])
def test_verify_werner_rows_equal_scalar_pipeline_calls(targets):
    # verify_plan evaluates every time in one batch; each row must be what
    # the per-time route gives
    plan = werner_solve(*targets, gt_max=12.0)
    report = verify_plan(plan)
    tgt = target("werner", eta=1.0)
    joint = JointState.from_field(plan.field(), "gg")
    assert [row[0] for row in report.per_time] == list(plan.times)
    for t, dev, fid, conc in report.per_time:
        rho = partial_trace(apply_propagator(joint, t))
        assert (dev, fid, conc) == (float(np.max(np.abs(rho - tgt.matrix))),
                                    fidelity(rho, tgt), concurrence(rho))
    assert report.max_element_dev == max(row[1] for row in report.per_time)
    assert (report.fidelity, report.concurrence) == report.per_time[-1][2:]


def test_werner_plan_json():
    plan = werner_solve(1 / 3, 1 / 6)
    data = plan.to_json()
    assert data["protocol"] == "werner"
    assert data["params"] == {"c0_sq": plan.c0_sq, "c10_sq": plan.c10_sq,
                              "period": plan.period, "degenerate": False}
    assert data["params"]["c0_sq"] == pytest.approx(37 / 135, abs=1e-9)
    assert data["gt"] == list(plan.times) and len(data["gt"]) >= 2
    assert data["field"] == plan.field().to_json()
    assert data["predicted"]["mu"] == [0.0, 0.0]


# --- cross-protocol properties ----------------------------------------------

def test_never_reaches_singlet():
    # w = p >= 0 keeps the singlet overlap at zero for any field and time
    psi = singlet_vector()
    proj = np.outer(psi, psi.conj())
    for _ in range(50):
        support = int(RNG.integers(1, 20))
        amps = RNG.normal(size=support) + 1j * RNG.normal(size=support)
        fld = superpose(list(enumerate(amps)), dim=support + 8)
        gt = float(RNG.uniform(0, 12))
        rho = assemble_density(analytic_elements(fld, gt))
        assert fidelity(rho, proj) <= 0.5 + 1e-9


def test_pipeline_matches_analytic_at_plan_times():
    plan = bell1_plan(12, 0.4)
    joint = JointState.from_field(plan.field, "gg")
    rho_pipe = partial_trace(apply_propagator(joint, plan.gt1))
    rho_analytic = assemble_density(analytic_elements(plan.field, plan.gt1))
    assert np.max(np.abs(rho_pipe - rho_analytic)) <= 1e-10


def test_verify_plan_rejects_unknown_type():
    with pytest.raises(AttributeError, match="verify"):
        verify_plan(object())


@pytest.mark.parametrize("plan,default", [(bell1_plan(8, 0.0), 1e-3), (bell2_plan(1), 1e-9),
                                          (werner_solve(1 / 3, 1 / 6), 2e-3)])
def test_each_plan_verifies_at_its_own_default_tolerance(plan, default):
    assert verify_plan(plan) == plan.verify()
    assert verify_plan(plan).tolerance == default
    assert verify_plan(plan, 0.5).tolerance == 0.5
