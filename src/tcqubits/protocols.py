"""Preparation protocols: field recipes, evolution times, and verification.

Three protocols are planned and checked end to end:

* bell1 -- drive |gg> to (|ee> + e^{i phi}|gg>)/sqrt(2) with an equal-weight
  next-nearest-neighbor field |m>, |m+2>; the relative field phase steers phi.
* bell2 -- drive |gg> to (|eg> + |ge>)/sqrt(2) with the single-photon field.
* werner -- drive |gg> to the eta = 1 Werner mixture with a |0>, |10> field.

Each planner returns the recipe plus predicted end-state elements. Each
plan's verify method runs the full pipeline (field -> propagate -> reduce
-> compare) and reports deviations, fidelity and concurrence against its
own default tolerance; verify_plan is the entry point that calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import ClassVar

import numpy as np

from .entanglement import concurrence, fidelity, target
from .fock import FieldState, number_state, superpose
from .propagator import JointState, abc, apply_propagator
from .reduced import XStateElements, analytic_elements, assemble_density, partial_trace

WERNER_PERIOD = 2.0 * math.pi / math.sqrt(38.0)


# ---------------------------------------------------------------------------
# small deterministic solvers


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10):
    """Locate the maximum of a unimodal f on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


# ---------------------------------------------------------------------------
# first-class Bell protocol


@dataclass(frozen=True)
class Bell1Plan:
    """Recipe for the |ee>/|gg> Bell state at relative phase phi."""

    m: int
    phi: float
    field: FieldState
    gt1: float
    purity_factor: float
    predicted: XStateElements

    #: passes on fidelity >= 1 - tolerance: the preparation is approximate at finite m
    TOLERANCE: ClassVar[float] = 1e-3

    def to_json(self) -> dict:
        params = {"m": self.m, "phi": self.phi, "purity_factor": self.purity_factor}
        return _plan_json("bell1", params, self.field, [self.gt1], self.predicted)

    def verify(self, tolerance: float | None = None) -> VerificationReport:
        """Refine gt1 to the concurrence peak nearby, then compare with the Bell state there.

        Concurrence maxima lie pi / (2 sqrt(4m + 6)) apart, so the golden
        section bracket is at most half that spacing on each side of gt1
        and cannot reach a side peak at large m.
        """
        tol = self.TOLERANCE if tolerance is None else tolerance
        tgt = target("bell1", phi=self.phi)

        def conc_at(t):
            return concurrence(assemble_density(analytic_elements(self.field, t)))

        half = min(0.1, math.pi / (4.0 * math.sqrt(4.0 * self.m + 6.0)))
        gt_peak, _ = golden_section_max(conc_at, self.gt1 - half, self.gt1 + half)
        rho, rho1 = _pipeline_density(self.field, np.array([gt_peak, self.gt1]))
        fid = fidelity(rho, tgt)
        return VerificationReport(
            protocol="bell1", gt_values=(self.gt1,),
            max_element_dev=float(np.max(np.abs(rho - tgt.matrix))),
            fidelity=fid, concurrence=concurrence(rho), tolerance=tol,
            passed=bool(fid >= 1.0 - tol), gt_peak=gt_peak,
            prediction_dev=float(np.max(np.abs(rho1 - assemble_density(self.predicted)))))


def bell1_time(m: int) -> float:
    """First time both commensurability phases differ by half a cycle."""
    return math.pi / (math.sqrt(4.0 * m + 6.0) - math.sqrt(4.0 * m - 2.0))


def bell1_purity_factor(m: int) -> float:
    return (4.0 * m * m + 12.0 * m + 8.0) / (4.0 * m * m + 12.0 * m + 9.0)


def bell1_plan(m: int, phi: float, dim: int | None = None) -> Bell1Plan:
    """Plan the first-class Bell preparation from base photon number m.

    The field is (|m> + e^{-i(phi+pi)}|m+2>)/sqrt(2); at gt1 the predicted
    coherence mu has argument phi and magnitude sqrt(purity_factor)/2, so
    the preparation sharpens as m grows (large even m is the useful
    regime; odd m lands on the wrong sign branch and peaks elsewhere).
    """
    if m < 1:
        raise ValueError("m must be >= 1 so the m-1 block is physical")
    if dim is None:
        dim = m + 5
    if dim < m + 5:
        raise ValueError(f"dim {dim} too small for support at m+2 plus headroom")
    c_m = 1.0 / math.sqrt(2.0)
    c_m2 = np.exp(-1j * (phi + math.pi)) / math.sqrt(2.0)
    fld = superpose([(m, c_m), (m + 2, c_m2)], dim, normalize=True)
    q = bell1_purity_factor(m)
    predicted = XStateElements(
        v_plus=abs(c_m2) ** 2 * q,
        v_minus=1.0 - abs(c_m2) ** 2 * q,
        w=0.0,
        h_plus=0.0,
        h_minus=0.0,
        mu=complex(-c_m * np.conj(c_m2) * math.sqrt(q)),
    )
    return Bell1Plan(m=m, phi=float(phi), field=fld, gt1=bell1_time(m),
                     purity_factor=q, predicted=predicted)


def bell1_conditions_residual(m: int, gt: float):
    """How closely the pure-state conditions hold at gt.

    Returns (|B(m-1)|, |B(m+1)|, A(m-1), A(m+1)); the ideal point has
    B-values 0, A(m-1) = 1 and A(m+1) = -1. The planned gt1 enforces only
    the half-cycle phase difference, so the residuals are small but
    generally nonzero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    A_lo, B_lo, _ = abc(m - 1, gt)
    A_hi, B_hi, _ = abc(m + 1, gt)
    return abs(B_lo), abs(B_hi), A_lo, A_hi


def first_concurrence_peak(fld: FieldState, gt_hi: float, threshold: float,
                           samples: int = 4096, grid_slack: float = 0.05):
    """First local concurrence maximum above threshold on [0, gt_hi].

    Grid scan (one batched evaluation) plus golden-section refinement of
    each candidate bracket; the threshold applies to the refined peak
    (narrow peaks alias below it on the raw grid). Returns (gt_peak, peak)
    or None when no local maximum reaches the threshold.
    """
    ts = np.linspace(0.0, gt_hi, samples)

    def conc(t):
        return concurrence(assemble_density(analytic_elements(fld, t)))

    cs = conc(ts)
    inner = cs[1:-1]
    candidates = (inner >= cs[:-2]) & (inner >= cs[2:]) & (inner >= threshold - grid_slack)
    for i in np.flatnonzero(candidates) + 1:
        gt_pk, c_pk = golden_section_max(conc, ts[i - 1], ts[i + 1])
        if c_pk >= threshold:
            return gt_pk, c_pk
    return None


# ---------------------------------------------------------------------------
# negative branch of the first-class protocol

#: Reference (|c_m|^2, m) solution points of the sign-flipped branch; their
#: m values are the default queries of bell1_negative_branch_roots.
NEGATIVE_BRANCH_REFERENCE_SEEDS = (
    (-1.01631, -2.47645),
    (0.144845, -0.832344),
    (0.660974, -0.101541),
    (1.72874, 1.41034),
)


def negative_branch_residuals(c_m_sq: float, m: float):
    """Residuals of (v_plus - 1/2, v_minus - 1/2) on the A(m±1) = -1 branch.

    The two components are exactly dependent (they sum to zero because the
    branch populations add to one), so the solution set is the curve
    c_m_sq = negative_branch_curve(m), not isolated points.
    """
    a = (2.0 * m - 1.0) ** 2
    b = (2.0 * m + 3.0) ** 2
    x, z = c_m_sq, 1.0 - c_m_sq
    v_plus = x * (4.0 * m * m - 4.0 * m) / a + z * (4.0 * m * m + 12.0 * m + 8.0) / b
    v_minus = x / a + z / b
    return v_plus - 0.5, v_minus - 0.5


def negative_branch_curve(m: float) -> float:
    """c_m_sq solving the (degenerate) half-half conditions at real m."""
    t = 2.0 * m + 1.0
    if abs(t) < 1e-12:
        raise ZeroDivisionError("curve has a pole at m = -1/2")
    f = t ** 4 - 10.0 * t ** 2 + 8.0 * t + 8.0
    return f / (16.0 * t)


@dataclass(frozen=True)
class NegativeBranchRoot:
    c_m_sq: float
    m: float
    feasible: bool
    reason: str


def _classify_root(x: float, m: float) -> tuple[bool, str]:
    """Feasibility of the curve point (|c_m|^2 = x, m), with a reason for each failure.

    Besides |c_m|^2 in [0, 1], m must be an integer >= 1 (below 1 the m-1
    block is unphysical, the rule bell1_plan applies), and A(m-1) = A(m+1)
    = -1 must hold at one gt: gt sqrt(2(2m-1)) and gt sqrt(2(2m+3)) odd
    multiples of pi, so sqrt((2m+3)/(2m-1)) rational, which needs
    (2m-1)(2m+3) to be a perfect square.
    """
    problems = []
    if not 0.0 <= x <= 1.0:
        problems.append(f"|c_m|^2 = {x:.6f} outside [0, 1]")
    k = round(m)
    if abs(m - k) > 1e-6 or k < 1:
        problems.append(f"m = {m:.6f} is not an integer >= 1 (the m-1 block is unphysical)")
    else:
        p = (2 * k - 1) * (2 * k + 3)
        if math.isqrt(p) ** 2 != p:
            problems.append(f"(2m-1)(2m+3) = {p} is not a perfect square, so "
                            "A(m-1) = A(m+1) = -1 cannot hold at one gt")
    if problems:
        return False, "; ".join(problems)
    return True, "feasible"


def bell1_negative_branch_roots(ms=None) -> tuple[NegativeBranchRoot, ...]:
    """Points of the sign-flipped branch's solution curve at the query m values.

    The half-half conditions are rank-deficient (their two residuals sum to
    zero identically), so their solutions form the curve
    |c_m|^2 = negative_branch_curve(m) rather than isolated roots. Each
    query m (default: the reference points' m values) yields the curve
    point there, flagged infeasible when |c_m|^2 leaves [0, 1], m is not an
    integer >= 1, or A(m-1) = A(m+1) = -1 cannot hold at a single gt (see
    _classify_root).
    """
    if ms is None:
        ms = [m for _, m in NEGATIVE_BRANCH_REFERENCE_SEEDS]
    roots = []
    for m in map(float, ms):
        x = negative_branch_curve(m)
        roots.append(NegativeBranchRoot(x, m, *_classify_root(x, m)))
    return tuple(roots)


# ---------------------------------------------------------------------------
# second-class Bell protocol


@dataclass(frozen=True)
class Bell2Plan:
    """Recipe for the (|eg> + |ge>)/sqrt(2) state from the |1> field.

    unique_m records why the single-photon field is the only number state
    that works: the central element peaks at m/(4m-2), which reaches 1/2
    only for m = 1.
    """

    l: int
    gt2: float
    field: FieldState
    predicted: XStateElements
    unique_m: int = 1

    #: passes on max element deviation from the Bell state: the preparation is exact
    TOLERANCE: ClassVar[float] = 1e-9

    def to_json(self) -> dict:
        params = {"l": self.l, "unique_m": self.unique_m}
        return _plan_json("bell2", params, self.field, [self.gt2], self.predicted)

    def verify(self, tolerance: float | None = None) -> VerificationReport:
        tol = self.TOLERANCE if tolerance is None else tolerance
        tgt = target("bell2")
        rho = _pipeline_density(self.field, self.gt2)
        dev = float(np.max(np.abs(rho - tgt.matrix)))
        return VerificationReport(
            protocol="bell2", gt_values=(self.gt2,), max_element_dev=dev,
            fidelity=fidelity(rho, tgt), concurrence=concurrence(rho),
            tolerance=tol, passed=bool(dev <= tol))


def bell2_plan(l: int, dim: int = 8) -> Bell2Plan:
    """Plan the second-class Bell preparation at the l-th odd peak."""
    if l <= 0 or l % 2 == 0:
        raise ValueError(f"l must be odd and positive, got {l}")
    gt2 = l * math.pi / (2.0 * math.sqrt(2.0))
    predicted = XStateElements(v_plus=0.0, v_minus=0.0, w=0.5,
                               h_plus=0.0, h_minus=0.0, mu=0.0)
    return Bell2Plan(l=l, gt2=gt2, field=number_state(1, dim), predicted=predicted)


# ---------------------------------------------------------------------------
# Werner protocol


@dataclass(frozen=True)
class WernerPlan:
    """Recipe for the eta = 1 Werner state from a |0>, |10> field."""

    c0_sq: float
    c10_sq: float
    times: tuple
    period: float
    predicted: XStateElements
    degenerate: bool = False

    def field(self, dim: int = 16) -> FieldState:
        return superpose([(0, math.sqrt(self.c0_sq)), (10, math.sqrt(self.c10_sq))],
                         dim, normalize=True)

    #: passes on the worst max element deviation over the solution times
    TOLERANCE: ClassVar[float] = 2e-3

    def to_json(self) -> dict:
        params = {"c0_sq": self.c0_sq, "c10_sq": self.c10_sq, "period": self.period,
                  "degenerate": self.degenerate}
        return _plan_json("werner", params, self.field(), self.times, self.predicted)

    def verify(self, tolerance: float | None = None) -> VerificationReport:
        """Compare every solution time with the eta = 1 Werner matrix."""
        tol = self.TOLERANCE if tolerance is None else tolerance
        tgt = target("werner", eta=1.0)
        rho = _pipeline_density(self.field(), np.array(self.times))
        devs = np.max(np.abs(rho - tgt.matrix), axis=(-2, -1)).tolist()
        fids = fidelity(rho, tgt).tolist()
        concs = concurrence(rho).tolist()
        worst = max(devs)
        return VerificationReport(
            protocol="werner", gt_values=tuple(self.times), max_element_dev=worst,
            fidelity=fids[-1], concurrence=concs[-1], tolerance=tol,
            passed=bool(worst <= tol), per_time=tuple(zip(self.times, devs, fids, concs)))


def werner_forward_elements(c10_sq: float, gt: float):
    """(v_plus, v_minus, w) for the field sqrt(1-x)|0> + sqrt(x)|10>."""
    u = math.cos(math.sqrt(38.0) * gt)
    v_plus = (90.0 / 361.0) * c10_sq * (u - 1.0) ** 2
    v_minus = (1.0 - c10_sq) + c10_sq * (1.0 + (10.0 / 19.0) * (u - 1.0)) ** 2
    w = (5.0 / 19.0) * c10_sq * (1.0 - u * u)
    return v_plus, v_minus, w


def werner_solve(target_vplus: float, target_w: float, gt_max: float = 2.2) -> WernerPlan:
    """Solve the |0>,|10> forward model for the target (v_plus, w) pair in closed form.

    With u = cos(sqrt(38) gt), the cross-multiplied consistency residual
    w * v_plus_unit(gt) - v_plus * w_unit(gt) factors as
    (u - 1) [90 w (u - 1) + 95 v_plus (1 + u)] / 361, so the base time is
    gt0 = arccos(u*) / sqrt(38) with u* = (90 w - 95 v_plus) / (90 w + 95 v_plus),
    and |c10|^2 follows from either target equation. gt0 and its
    reflection period - gt0 are extended over the period lattice up to
    gt_max. Raises when no solution exists in the feasible box or no
    solution time is <= gt_max.
    """
    tv, tw = float(target_vplus), float(target_w)
    if not (tv >= 0 and tw >= 0 and tv + 2.0 * tw <= 1.0 + 1e-12):
        raise ValueError("targets must satisfy v_plus, w >= 0 and v_plus + 2w <= 1")
    if not math.isfinite(gt_max):
        raise ValueError("gt_max must be finite")

    if tv == 0.0 and tw == 0.0:
        if gt_max < 0.0:
            raise ValueError(f"no solution time <= gt_max = {gt_max:g}; the first is 0")
        predicted = XStateElements(v_plus=0.0, v_minus=1.0, w=0.0,
                                   h_plus=0.0, h_minus=0.0, mu=0.0)
        return WernerPlan(c0_sq=1.0, c10_sq=0.0, times=(0.0,),
                          period=WERNER_PERIOD, predicted=predicted, degenerate=True)

    gt0 = math.acos((90.0 * tw - 95.0 * tv) / (90.0 * tw + 95.0 * tv)) / math.sqrt(38.0)
    vu, _, wu = werner_forward_elements(1.0, gt0)
    if wu > 1e-15:
        x = tw / wu
    elif vu > 1e-15:
        x = tv / vu
    else:
        x = math.inf  # gt0 = 0 reaches only the degenerate target handled above
    if not x <= 1.0 + 1e-9:
        raise ValueError("no solution in the feasible box (|c10|^2 in [0, 1], gt in one period)")
    x = min(x, 1.0)

    times = set()
    for base in (gt0, WERNER_PERIOD - gt0):
        shift = 0
        while base + shift * WERNER_PERIOD <= gt_max:
            times.add(round(base + shift * WERNER_PERIOD, 15))
            shift += 1
    if not times:
        raise ValueError(f"no solution time <= gt_max = {gt_max:g}; "
                         f"the first is {min(gt0, WERNER_PERIOD - gt0):.6g}")
    times = tuple(sorted(times))

    vp, vm, w = werner_forward_elements(x, gt0)
    predicted = XStateElements(v_plus=vp, v_minus=vm, w=w,
                               h_plus=0.0, h_minus=0.0, mu=0.0)
    return WernerPlan(c0_sq=1.0 - x, c10_sq=x, times=times,
                      period=WERNER_PERIOD, predicted=predicted)


# ---------------------------------------------------------------------------
# plan JSON and end-to-end verification


@dataclass(frozen=True)
class VerificationReport:
    protocol: str
    gt_values: tuple
    max_element_dev: float
    fidelity: float
    concurrence: float
    tolerance: float
    passed: bool
    gt_peak: float | None = None
    prediction_dev: float | None = None
    per_time: tuple = dataclass_field(default_factory=tuple)

    def to_json(self) -> dict:
        out = {
            "protocol": self.protocol,
            "gt": list(self.gt_values),
            "max_element_dev": self.max_element_dev,
            "fidelity": self.fidelity,
            "concurrence": self.concurrence,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.gt_peak is not None:
            out["gt_peak"] = self.gt_peak
        if self.prediction_dev is not None:
            out["prediction_dev"] = self.prediction_dev
        if self.per_time:
            out["per_time"] = [list(row) for row in self.per_time]
        return out


def _pipeline_density(fld: FieldState, gt) -> np.ndarray:
    """Reduced matrix of the evolved |gg> (x) fld: 4x4, or (T, 4, 4) for a vector gt."""
    joint = JointState.from_field(fld, "gg")
    return partial_trace(apply_propagator(joint, gt))


def _plan_json(protocol: str, params: dict, fld: FieldState, gt,
               predicted: XStateElements) -> dict:
    return {"protocol": protocol, "params": params, "field": fld.to_json(),
            "gt": list(gt), "predicted": predicted.to_json()}


def verify_plan(plan, tolerance: float | None = None) -> VerificationReport:
    """Run a plan's full pipeline and compare against its ideal target.

    Delegates to plan.verify; tolerance None means the plan class's TOLERANCE.
    """
    return plan.verify(tolerance)
