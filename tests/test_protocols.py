import json
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from tcqubits import (JointState, abc, analytic_elements, apply_propagator, assemble_density,
                      bell1_negative_branch_roots, bell1_plan, bell1_purity_factor, bell1_time,
                      bell2_plan, concurrence, evolve_oracle, fidelity, first_concurrence_peak,
                      number_state, partial_trace, singlet_vector, superpose, target,
                      verify_plan, werner_forward_elements, werner_solve)
from tcqubits import protocols
from tcqubits.cli import SCAN_CHUNK, main
from tcqubits.protocols import (NEGATIVE_BRANCH_REFERENCE_SEEDS, WERNER_MAX_LATTICE,
                                WERNER_PERIOD, _concurrence_at, _refine_peak, golden_section_max,
                                linspace_at, negative_branch_curve, negative_branch_residuals)

RNG = np.random.default_rng(77)


# --- small solvers ----------------------------------------------------------

def test_golden_section_max_quadratic():
    # argmax of a flat quadratic top resolves only to ~sqrt(eps)
    x, fx = golden_section_max(lambda t: -(t - 2.0) ** 2 + 5.0, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(5.0, abs=1e-12)


def test_refine_peak_quadratic_and_bracket_edge():
    x, fx = _refine_peak(lambda t: -(t - 2.0) ** 2 + 5.0, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert fx == pytest.approx(5.0, abs=1e-12)
    x, fx = _refine_peak(lambda t: t, 0.0, 1.0)   # a maximum on the bracket's end
    assert 1.0 - 1e-10 <= x <= 1.0 and fx == x


@pytest.mark.parametrize("m", [4, 30, 300, 2000])
def test_batched_refinement_matches_golden_section(m):
    # the concurrence is flat to round-off within ~1e-8 of its peak, so
    # neither search places it more finely than that
    plan = bell1_plan(m, 0.0)
    half = min(0.1, math.pi / (4.0 * math.sqrt(4.0 * m + 6.0)))
    lo, hi = plan.gt1 - half, plan.gt1 + half
    gt_peak, peak = _refine_peak(partial(_concurrence_at, plan.field), lo, hi)
    gt_ref, peak_ref = golden_section_max(
        lambda t: concurrence(assemble_density(analytic_elements(plan.field, t))), lo, hi)
    assert abs(peak - peak_ref) <= 1e-15
    assert abs(gt_peak - gt_ref) <= 5e-9


def _counting_concurrence(monkeypatch):
    """Route the protocols' concurrence through a wrapper; returns its list of call sizes."""
    sizes = []

    def counted(fld, gts):
        sizes.append(np.size(gts))
        return _concurrence_at(fld, gts)

    monkeypatch.setattr("tcqubits.protocols._concurrence_at", counted)
    return sizes


def test_bell1_verification_zooms_onto_the_peak_in_a_few_calls(monkeypatch):
    # a fixed 16-fold shrink needs 8 rounds plus one evaluation at the midpoint
    sizes = _counting_concurrence(monkeypatch)
    for phi in np.random.default_rng(2024).uniform(-math.pi, math.pi, 20):
        sizes.clear()
        bell1_plan(30, phi).verify()
        assert len(sizes) <= 4, (phi, sizes)
        assert set(sizes) == {33}


def test_bell1_refinement_reads_a_round_off_plateau_as_converged(monkeypatch):
    # a zoomed grid whose 33 values lie within a few ulps of the peak can hold its
    # largest on an edge by round-off alone; read as an edge miss, it cost 5 rounds
    # at 1 to 12 of these 100 phases per m
    sizes = _counting_concurrence(monkeypatch)
    for m in (4, 10, 40, 100):
        for phi in np.random.default_rng(m).uniform(-math.pi, math.pi, 100):
            sizes.clear()
            bell1_plan(m, float(phi)).verify()
            assert len(sizes) <= 4, (m, phi, sizes)

def test_bell1_refinement_never_takes_more_calls_than_a_fixed_shrink(monkeypatch):
    sizes = _counting_concurrence(monkeypatch)
    for m in range(1, 61):
        for phi in (0.0, 1.0, math.pi):
            sizes.clear()
            bell1_plan(m, phi).verify()
            assert len(sizes) <= 9, (m, phi, sizes)


@pytest.mark.parametrize("family, falls_back", [
    (lambda p: lambda t: -np.abs(t - p), True),
    (lambda p: lambda t: -np.where(t < p, (p - t) ** 2, 400.0 * (t - p) ** 2), False),
    (lambda p: lambda t: 20.0 * (t - p) - np.expm1(20.0 * (t - p)), False),
], ids=["kink", "skewed", "smooth-skewed"])
def test_refinement_keeps_a_peak_its_parabolas_misjudge(family, falls_back):
    # a zoomed grid whose largest sits on its edge sends the next grid back
    # over the whole certified bracket, so the next grid is wider
    widened = 0
    for p in np.random.default_rng(9).uniform(0.01, 0.99, 50):
        spans = []

        def f(t, g=family(p)):
            spans.append(t[-1] - t[0])
            return g(t)

        x, fx = _refine_peak(f, 0.0, 1.0)
        assert abs(x - p) <= 1e-10, p
        assert fx == family(p)(np.array([x]))[0]
        widened += any(b > a for a, b in zip(spans, spans[1:]))
    assert (widened > 0) == falls_back


def test_refinement_takes_the_middle_of_a_flat_top():
    # rounding turns a smooth top into a run of equal values; a zoomed grid
    # inside it takes the tie nearest its middle rather than the first one,
    # on its edge, which falls back to the whole bracket (13 calls here)
    for p in np.random.default_rng(4).uniform(0.1, 0.9, 20):
        calls = []

        def f(t, p=p):
            calls.append(t)
            return np.round(-(t - p) ** 2, 12)

        x, fx = _refine_peak(f, 0.0, 1.0)
        assert fx == 0.0 and abs(x - p) <= 1e-6
        assert len(calls) <= 3, p


@pytest.mark.parametrize("m, phi", [(4, 0.0), (30, math.pi), (30, 1.3), (2000, -2.0)])
def test_refined_peak_value_is_f_at_the_returned_time(m, phi):
    conc = partial(_concurrence_at, bell1_plan(m, phi).field)
    half = min(0.1, math.pi / (4.0 * math.sqrt(4.0 * m + 6.0)))
    gt1 = bell1_time(m)
    x, fx = _refine_peak(conc, gt1 - half, gt1 + half)
    assert fx == conc(np.array([x]))[0]


@pytest.mark.parametrize("m", [1, 2, 4, 30, 31, 1000])
def test_bell1_peak_equals_the_search_over_assembled_matrices_bit_for_bit(m):
    # the verification reads concurrence from the elements; the assembled
    # 4x4 stacks give the same values, so the search ends on the same time
    for phi in (0.0, 2.3):
        plan = bell1_plan(m, phi)
        half = min(0.1, math.pi / (4.0 * math.sqrt(4.0 * m + 6.0)))
        ref, _ = _refine_peak(
            lambda t: concurrence(assemble_density(analytic_elements(plan.field, t))),
            plan.gt1 - half, plan.gt1 + half)
        assert plan.verify().gt_peak == ref


GT1_M30 = bell1_time(30)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda t: -(t - 0.7) ** 2, 0.0, 1.0),
    (lambda t: -(t + 1.1) ** 2, -3.7, 0.4),
    (lambda t: t, 0.0, 5e-324),
    (lambda t: -t, -2.5e-320, 1e-320),
    (partial(_concurrence_at, bell1_plan(30, 1.0).field), GT1_M30 - 0.05, GT1_M30 + 0.05),
], ids=["unit", "negative", "step-underflows", "subnormal", "bell1-m30-zooms"])
def test_refinement_grids_are_linspace_bit_for_bit(f, lo, hi):
    grids = []

    def recorded(t):
        grids.append(t.copy())
        return f(t)

    _refine_peak(recorded, lo, hi)
    for t in grids:
        assert t.tobytes() == np.linspace(t[0], t[-1], 33).tobytes()
    # scan's chunked grid over the same window, across one, two and three chunks
    for steps in (SCAN_CHUNK, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 1):
        ref = np.linspace(lo, hi, steps)
        for start in range(0, steps, SCAN_CHUNK):
            index = np.arange(start, min(start + SCAN_CHUNK, steps), dtype=float)
            chunk = linspace_at(lo, hi, steps - 1, index)
            assert chunk.tobytes() == ref[start:start + SCAN_CHUNK].tobytes()


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
    # |gg, m + 2> lies on manifold m + 2, so dim m + 3 is exact and m + 2 cuts the support
    with pytest.raises(ValueError, match="dim 32 too small"):
        bell1_plan(30, 0.0, dim=32)
    assert bell1_plan(30, 0.0, dim=33).field.dim == 33


def test_bell1_plan_keeps_the_sign_of_its_pair_at_a_huge_phase():
    # phi + pi rounds to phi at |phi| = 1e16: the pair lost its minus sign and
    # verified at fidelity 0.8268
    plan = bell1_plan(30, 1e16)
    amps = plan.field.amplitudes
    assert amps[32] / amps[30] == pytest.approx(-np.exp(-1e16j), abs=1e-15)
    report = plan.verify()
    assert report.passed
    assert report.fidelity >= 0.999

@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_bell1_plan_rejects_non_finite_phase(phi):
    # raised before np.exp sees phi, so no RuntimeWarning comes first
    with pytest.raises(ValueError, match="not finite"):
        bell1_plan(30, phi)


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


def bell1_conditions(m, gt):
    """(|B(m-1)|, |B(m+1)|, A(m-1), A(m+1)); the pure-state point has 0, 0, 1, -1."""
    A_lo, B_lo, _ = abc(m - 1, gt)
    A_hi, B_hi, _ = abc(m + 1, gt)
    return abs(B_lo), abs(B_hi), A_lo, A_hi


def test_bell1_conditions_near_ideal_at_gt1_for_m30():
    b_lo, b_hi, a_lo, a_hi = bell1_conditions(30, bell1_time(30))
    assert abs(a_lo - 1.0) <= 1e-3
    assert abs(a_hi + 1.0) <= 1e-3
    assert max(b_lo, b_hi) <= 0.05
    assert max(b_lo, b_hi) > 0.0  # approximate, never exact


def test_bell1_conditions_poor_for_small_m():
    b_lo, b_hi, a_lo, _ = bell1_conditions(1, bell1_time(1))
    assert max(b_lo, b_hi) > 0.5
    assert abs(a_lo - 1.0) > 1.0


def test_bell1_first_peak_even_m_property():
    # the first high peak sits within gt1 +/- 0.02 and reaches the purity bound
    for m in (8, 10, 12, 14, 16):
        plan = bell1_plan(m, 0.0)
        q = plan.purity_factor
        res = first_concurrence_peak(plan.field, plan.gt1 + 0.5, q - 1e-6)
        assert res is not None, f"no peak found for m={m}"
        gt_pk, c_pk = res
        assert abs(gt_pk - plan.gt1) <= 0.02
        assert c_pk >= q - 1e-6


@pytest.mark.parametrize("m, gt_ref, peak_ref", [
    (30, 8.67617203111992, 0.9998738351679213),
    (40, 9.997248455840476, 0.9999273600083827),
])
def test_first_concurrence_peak_keeps_the_acceptance_peaks(m, gt_ref, peak_ref):
    # the golden-section figures of acceptance criterion 2
    plan = bell1_plan(m, math.pi)
    gt_peak, peak = first_concurrence_peak(plan.field, plan.gt1 + 0.5, 0.999)
    assert abs(gt_peak - gt_ref) <= 5e-9
    assert abs(peak - peak_ref) <= 1e-15


def test_first_concurrence_peak_is_none_when_no_peak_reaches_the_threshold():
    # the vacuum never leaves |gg, 0>, so its concurrence stays 0
    assert first_concurrence_peak(number_state(0, 8), 5.0, 0.5) is None


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


@pytest.mark.parametrize("phi", [0.0, 2.0])
def test_bell1_infidelity_law_sharpens_with_m(phi):
    # the predicted elements give F = (1 + sqrt(q)) / 2 with q = 1 - 1/(2m+3)^2,
    # so (1 - F)(2m + 3)^2 falls to 1/4 from above as m grows
    law = [(1.0 - verify_plan(bell1_plan(m, phi)).fidelity) * (2 * m + 3) ** 2
           for m in (30, 100, 300, 1000, 2000)]
    assert all(0.25 <= value <= 0.2505 for value in law), law
    assert law == sorted(law, reverse=True), law


def test_bell1_fidelity_at_nominal_time():
    plan = bell1_plan(30, math.pi)
    from tcqubits import target
    rho = assemble_density(analytic_elements(plan.field, 8.673))
    assert fidelity(rho, target("bell1", phi=math.pi)) >= 0.999


def plan_report(argv, capsys) -> dict:
    assert main(["plan", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def field_json(fld) -> dict:
    """plan's JSON field: [re, im] of each held level, zeros up to dim."""
    held = [[float(c.real), float(c.imag)] for c in fld.amplitudes]
    return {"dim": fld.dim, "amplitudes": held + [[0.0, 0.0]] * (fld.dim - len(held))}


def test_bell1_plan_json(capsys):
    plan = bell1_plan(30, math.pi)
    data = plan_report(["bell1", "--m", "30", "--phi", "pi"], capsys)
    assert data["protocol"] == "bell1"
    assert data["params"] == {"m": 30, "phi": math.pi, "purity_factor": plan.purity_factor}
    assert data["gt"] == [plan.gt1]
    assert data["gt"][0] == pytest.approx(8.6738, abs=1e-3)
    assert data["field"] == field_json(plan.field)
    assert data["field"]["dim"] == 35
    mu = plan.predicted.mu
    assert data["predicted"] == {
        "v_plus": plan.predicted.v_plus, "v_minus": plan.predicted.v_minus,
        "w": 0.0, "p": 0.0, "h_plus": [0.0, 0.0], "h_minus": [0.0, 0.0],
        "mu": [mu.real, mu.imag]}
    # the report's fields under their own names, and an empty per_time left out
    report = plan.verify()
    assert data["verification"] == {
        "protocol": "bell1", "gt": [plan.gt1], "max_element_dev": report.max_element_dev,
        "fidelity": report.fidelity, "concurrence": report.concurrence, "tolerance": 1e-3,
        "passed": True, "gt_peak": report.gt_peak, "prediction_dev": report.prediction_dev}


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


def test_negative_branch_curve_has_a_pole_at_minus_one_half():
    with pytest.raises(ZeroDivisionError, match="pole at m = -1/2"):
        negative_branch_curve(-0.5)


def test_negative_branch_reason_is_derived_from_the_point():
    (root,) = bell1_negative_branch_roots([0.5])
    assert root.reason == "m = 0.500000 is not an integer >= 1 (the m-1 block is unphysical)"
    (four,) = bell1_negative_branch_roots([4])
    assert four.reason == ("|c_m|^2 = 40.493056 outside [0, 1]; (2m-1)(2m+3) = 77 is not a "
                           "perfect square, so A(m-1) = A(m+1) = -1 cannot hold at one gt")


# --- second-class Bell plan -------------------------------------------------

def test_bell2_time():
    assert bell2_plan(1).gt2 == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-15)
    assert bell2_plan(1).gt2 == pytest.approx(1.1107, abs=1e-4)
    assert bell2_plan(3).gt2 == pytest.approx(3 * math.pi / (2 * math.sqrt(2)), abs=1e-15)


@pytest.mark.parametrize("bad_l", [2, 0, -1, 4])
def test_bell2_rejects_non_odd(bad_l):
    with pytest.raises(ValueError):
        bell2_plan(bad_l)


@pytest.mark.parametrize("l", [10**308 + 1, 10**400 + 1], ids=["gt2-overflows", "l-overflows"])
def test_bell2_rejects_an_l_whose_time_is_not_a_finite_float(l):
    with pytest.raises(ValueError, match="not a finite float"):
        bell2_plan(l)


def test_bell2_records_uniqueness(capsys):
    plan = bell2_plan(1)
    assert plan.params["unique_m"] == 1
    assert plan_report(["bell2"], capsys)["params"] == {"l": 1, "unique_m": 1}
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
    assert plan.params["degenerate"] is True
    assert plan.times == (0.0,)
    # every other target needs |c10|^2 >= min(v_plus, w) > 0
    for targets in ((1e-300, 1e-300), (1e-12, 0.0), (0.2, 1e-9), (360 / 361, 0.0)):
        assert werner_solve(*targets).params["degenerate"] is False


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


def test_werner_weight_is_the_exact_closed_form():
    # |c10|^2 = s^2 / (9000 v_plus), s = 90 w + 95 v_plus, against rational arithmetic
    # on the float targets; a round trip through the forward model lost up to 3.6e-11 here
    rng = np.random.default_rng(18)
    worst, checked = Fraction(0), 0
    for x, gt in zip(rng.uniform(0.0, 1.0, 1100), rng.uniform(0.0, WERNER_PERIOD / 2, 1100)):
        v_plus, _, w = werner_forward_elements(x, gt)
        s = 90 * Fraction(w) + 95 * Fraction(v_plus)
        exact = s * s / (9000 * Fraction(v_plus))
        if exact > 1:
            continue
        checked += 1
        worst = max(worst, abs(Fraction(werner_solve(v_plus, w).c10_sq) - exact) / exact)
    assert checked >= 1000
    assert worst <= 1e-15


def werner_base_time(v_plus, w):
    """arccos(1 - 190 v_plus / s) / sqrt(38) in its arcsine form, exact where v_plus << s."""
    return 2.0 * math.asin(math.sqrt(95.0 * v_plus / (90.0 * w + 95.0 * v_plus))) / math.sqrt(38.0)


def test_werner_base_time_keeps_a_tiny_v_plus():
    # 1 - 190 v_plus / s rounds to 1 here, so arccos gave gt0 = 0; the arcsine form does not
    v_plus, w = 4.78e-145, 3.44e-121
    gt0 = 2.0 * math.sqrt(95.0 * v_plus / (90.0 * w + 95.0 * v_plus)) / math.sqrt(38.0)
    plan = werner_solve(v_plus, w)
    assert gt0 == werner_base_time(v_plus, w)   # arcsin(y) = y to 1e-24 relative here
    assert gt0 == pytest.approx(3.9292844750397e-13, rel=1e-12)
    assert plan.times[:2] == (round(gt0, 15), round(WERNER_PERIOD - gt0, 15))
    assert plan.times[0] > 0.0


def test_werner_prediction_keeps_a_tiny_target():
    # u = cos(sqrt(38) gt0) rounds to 1 at gt0 = 3.9e-13, so u - 1 and 1 - u^2
    # predicted v_plus = w = 0.0; -2 sin^2(sqrt(38) gt0 / 2) keeps both to an ulp
    v_plus, w = 4.78e-145, 3.44e-121
    predicted = werner_solve(v_plus, w).predicted
    assert abs(predicted.v_plus - v_plus) <= np.spacing(v_plus)
    assert abs(predicted.w - w) <= np.spacing(w)

def test_werner_base_time_agrees_with_the_arccos_form():
    # away from v_plus << s the two forms of gt0 differ by round-off alone
    rng = np.random.default_rng(20)
    v_plus, w = rng.uniform(0.0, 0.6, 4000), rng.uniform(0.0, 0.3, 4000)
    s = 90.0 * w + 95.0 * v_plus
    feasible = (s * s / (9000.0 * v_plus) <= 1.0) & (v_plus + 2.0 * w <= 1.0)
    assert feasible.sum() >= 300
    for vp, ww in zip(v_plus[feasible], w[feasible]):
        arccos_form = math.acos((90.0 * ww - 95.0 * vp) / (90.0 * ww + 95.0 * vp)) / math.sqrt(38.0)
        assert werner_solve(vp, ww).times[0] == pytest.approx(arccos_form, rel=1e-13, abs=2e-15)


def enumerated_lattice(gt0, gt_max):
    """Both bases, gt0 and period - gt0, stepped one period at a time up to gt_max."""
    times = []
    for base in (gt0, WERNER_PERIOD - gt0):
        k = 0
        while base + k * WERNER_PERIOD <= gt_max:
            times.append(round(base + k * WERNER_PERIOD, 15))
            k += 1
    return tuple(sorted(set(times)))


@pytest.mark.parametrize("targets", [(1 / 3, 1 / 6), (0.6, 0.0), (0.01, 0.001)],
                         ids=["default", "w=0", "small"])
@pytest.mark.parametrize("gt_max", [2.2, 12.0, 100.0, "on-a-point", "at-the-cap"])
def test_werner_times_are_the_enumerated_lattice(targets, gt_max):
    # at w = 0, gt0 = period / 2 and the two bases merge
    gt0 = werner_base_time(*targets)
    if gt_max == "on-a-point":   # a lattice point is kept when gt_max equals it
        gt_max = gt0 + 3 * WERNER_PERIOD
        assert round(gt_max, 15) in werner_solve(*targets, gt_max=gt_max).times
    elif gt_max == "at-the-cap":   # the longest lattice listed: one period more raises
        gt_max = gt0 + (WERNER_MAX_LATTICE - 0.5) * WERNER_PERIOD
        with pytest.raises(ValueError, match=f"at most {WERNER_MAX_LATTICE} are listed"):
            werner_solve(*targets, gt_max=gt_max + WERNER_PERIOD)
    assert werner_solve(*targets, gt_max=gt_max).times == enumerated_lattice(gt0, gt_max)


def test_werner_solve_rejects_an_unbounded_gt_max_at_once(time_limit):
    with time_limit(2.0), pytest.raises(ValueError, match="lattice points"):
        werner_solve(1 / 3, 1 / 6, gt_max=1e300)


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
    assert len(report.per_time) == len(report.gt)


@pytest.mark.parametrize("targets", [(1 / 3, 1 / 6), (0.2, 0.1), (0.4, 0.05)])
def test_verify_werner_rows_equal_scalar_pipeline_calls(targets):
    # verify_plan evaluates every time in one batch; each row must be what
    # the per-time route gives
    plan = werner_solve(*targets, gt_max=12.0)
    report = verify_plan(plan)
    tgt = target("werner", eta=1.0)
    joint = JointState.from_field(plan.field, "gg")
    assert [row[0] for row in report.per_time] == list(plan.times)
    for t, dev, fid, conc in report.per_time:
        rho = partial_trace(apply_propagator(joint, t))
        assert (dev, fid, conc) == (float(np.max(np.abs(rho - tgt.matrix))),
                                    fidelity(rho, tgt), concurrence(rho))
    assert report.max_element_dev == max(row[1] for row in report.per_time)
    assert (report.fidelity, report.concurrence) == report.per_time[-1][2:]


def test_werner_plan_json(capsys):
    plan = werner_solve(1 / 3, 1 / 6)
    data = plan_report(["werner"], capsys)
    assert data["protocol"] == "werner"
    assert data["params"] == {"c0_sq": plan.c0_sq, "c10_sq": plan.c10_sq,
                              "period": plan.period, "degenerate": False}
    assert data["params"]["c0_sq"] == pytest.approx(37 / 135, abs=1e-9)
    assert data["gt"] == list(plan.times) and len(data["gt"]) >= 2
    assert data["field"] == field_json(plan.field) and data["field"]["dim"] == 16
    assert data["predicted"]["mu"] == [0.0, 0.0]
    # gt_peak and prediction_dev are None for a Werner plan and left out
    report = plan.verify()
    assert data["verification"] == {
        "protocol": "werner", "gt": list(plan.times), "max_element_dev": report.max_element_dev,
        "fidelity": report.fidelity, "concurrence": report.concurrence, "tolerance": 2e-3,
        "passed": True, "per_time": [list(row) for row in report.per_time]}
    assert werner_solve(1 / 3, 1 / 6, dim=24).field.dim == 24


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


@pytest.mark.parametrize("qubits, weight", [("eg", 0.5), ("ge", 0.5), ("gg", 0.0), ("ee", 0.0)])
def test_singlet_weight_never_moves_on_either_route(qubits, weight):
    # Psi- (x) |n> is dark, since the collective sigma+- annihilate Psi-, so the
    # singlet weight keeps its initial value for every field and time
    psi = singlet_vector()
    rng = np.random.default_rng(4)
    for _ in range(6):
        support = int(rng.integers(1, 17))
        amps = rng.normal(size=support) + 1j * rng.normal(size=support)
        joint = JointState.from_field(superpose(list(enumerate(amps)), dim=support + 8), qubits)
        gts = np.sort(rng.uniform(0.0, 20.0, 40))
        for evolve in (apply_propagator, evolve_oracle):
            rho = partial_trace(evolve(joint, gts))
            singlet = np.einsum("i,tij,j->t", psi.conj(), rho, psi).real
            assert np.max(np.abs(singlet - weight)) <= 1e-14, evolve.__name__


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
def test_each_plan_verifies_at_its_own_default_tolerance(plan, default, monkeypatch):
    measured = []   # the target of every _measure call
    measure = protocols._measure
    monkeypatch.setattr(protocols, "_measure", lambda *a: measured.append(a[2]) or measure(*a))
    assert verify_plan(plan) == plan.verify()
    assert verify_plan(plan).tolerance == default
    assert verify_plan(plan, 0.5).tolerance == 0.5
    # each verify measures against the state its plan promises (a mixed one has no vector)
    assert len(measured) == 4
    for tgt in measured:
        assert np.array_equal(tgt.matrix, plan.target.matrix)
        assert np.array_equal(tgt.vector, plan.target.vector)
