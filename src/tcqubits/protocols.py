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
from functools import partial
from typing import ClassVar

import numpy as np

from .entanglement import TargetState, concurrence, fidelity, target
from .fock import FieldState, number_state, superpose
from .propagator import JointState, apply_propagator
from .reduced import XStateElements, analytic_elements, assemble_density, partial_trace

WERNER_PERIOD = 2.0 * math.pi / math.sqrt(38.0)
#: most lattice points werner_solve lists from gt0, two times each at most;
#: verify holds 4 x 11 complex values per time (704 B), the field's held levels 0..10
WERNER_MAX_LATTICE = 10_000
#: 0..32, the sample indices of one _refine_peak grid
_GRID = np.arange(33.0)
_GRID.flags.writeable = False


# ---------------------------------------------------------------------------
# small deterministic solvers


def golden_section_max(f, lo: float, hi: float):
    """Locate the maximum of a unimodal f on [lo, hi] to a 1e-10 bracket; returns (x, f(x)).

    One scalar evaluation per step; the reference that _refine_peak is checked against.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
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


def linspace_at(lo: float, hi: float, div: int, index: np.ndarray) -> np.ndarray:
    """np.linspace(lo, hi, div + 1)[index], bit for bit, for a float array of indices."""
    span = hi - lo
    step = span / div
    xs = (index * step if step else index / div * span) + lo   # as np.linspace does
    xs[index == div] = hi
    return xs


def _refine_peak(f, lo: float, hi: float):
    """Locate the maximum of f on [lo, hi] to a 1e-10 bracket; returns (x, f(x)).

    f maps a vector of times to a vector of values. Each round evaluates
    it once on 33 evenly spaced points; the two grid intervals around the
    largest form the certified bracket, which holds the peak of a
    unimodal f. Where the five points around an interior largest are
    concave, the next grid zooms onto v3 +- r inside that bracket: v3 is
    the vertex of the parabola through the three middle points, v5 the
    vertex of the least-squares parabola through all five, and
    r = max(8 |v3 - v5|, 1e-10), so the zoom tightens as the two fits
    agree. A zoomed round whose largest sits on an edge strictly inside
    the certified bracket proves nothing and is followed by a round on
    the whole certified bracket, unless all its values lie within 16 ulps
    of the largest: that grid is on the round-off plateau of the peak,
    where the edge is as good as any point. Returns the sampled largest
    and its sampled value once the certified bracket is at most 1e-10
    wide. Each grid is np.linspace(lo, hi, 33), bit for bit (linspace_at),
    and the fits run on Python floats.
    """
    lo, hi = float(lo), float(hi)
    c_lo, c_hi = lo, hi
    while True:
        xs = linspace_at(lo, hi, 32, _GRID)
        ys = f(xs)
        i = int(np.argmax(ys))
        if lo > c_lo or hi < c_hi:
            # a zoomed grid can sit on the round-off plateau of the peak,
            # where the largest value ties at scattered points: take the
            # tie nearest the middle, where the fits placed the vertex
            top = np.flatnonzero(ys == ys[i])
            i = int(top[np.argmin(np.abs(top - 16))])
            on_plateau = ys[i] - ys.min() <= 16.0 * np.spacing(ys[i])
            if not on_plateau and ((i == 0 and lo > c_lo) or (i == 32 and hi < c_hi)):
                lo, hi = c_lo, c_hi
                continue
        c_lo, c_hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, 32)])
        if c_hi - c_lo <= 1e-10:
            return float(xs[i]), float(ys[i])
        lo, hi = c_lo, c_hi
        if 2 <= i <= 30:
            y0, y1, y2, y3, y4 = ys[i - 2:i + 3].tolist()
            # least-squares a2 k^2 + a1 k + a0 through offsets k = -2..2 grid steps
            a2 = (2.0 * y0 - y1 - 2.0 * y2 - y3 + 2.0 * y4) / 14.0
            a1 = (-2.0 * y0 - y1 + y3 + 2.0 * y4) / 10.0
            curv3 = y1 - 2.0 * y2 + y3
            if curv3 < 0.0 and a2 < 0.0:
                x0, x1, x = xs[[0, 1, i]].tolist()
                v3 = x + (x1 - x0) * 0.5 * (y1 - y3) / curv3
                v5 = x - (x1 - x0) * a1 / (2.0 * a2)
                r = max(8.0 * abs(v3 - v5), 1e-10)
                lo, hi = max(c_lo, v3 - r), min(c_hi, v3 + r)


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

    @property
    def target(self) -> TargetState:   # the Bell state at this plan's phi
        return target("bell1", phi=self.phi)

    @property
    def params(self) -> dict:   # the recipe parameters the plan report lists
        return {"m": self.m, "phi": self.phi, "purity_factor": self.purity_factor}

    def verify(self, tolerance: float | None = None) -> VerificationReport:
        """Refine gt1 to the concurrence peak nearby, then compare with the Bell state there.

        Concurrence maxima lie pi / (2 sqrt(4m + 6)) apart, so the
        refinement bracket is at most half that spacing on each side of
        gt1 and cannot reach a side peak at large m. Each refinement round
        is one batched closed-form evaluation, and the rounds zoom onto
        the fitted vertex, so an even-m peak usually takes three.
        """
        tol = self.TOLERANCE if tolerance is None else tolerance
        half = min(0.1, math.pi / (4.0 * math.sqrt(4.0 * self.m + 6.0)))
        gt_peak, _ = _refine_peak(partial(_concurrence_at, self.field),
                                  self.gt1 - half, self.gt1 + half)
        rho, devs, fids, concs = _measure(self.field, [gt_peak, self.gt1], self.target)
        return VerificationReport(
            protocol="bell1", gt_values=(self.gt1,), max_element_dev=devs[0],
            fidelity=fids[0], concurrence=concs[0], tolerance=tol,
            passed=bool(fids[0] >= 1.0 - tol), gt_peak=gt_peak,
            prediction_dev=float(np.max(np.abs(rho[1] - assemble_density(self.predicted)))))


def bell1_time(m: int) -> float:
    """First time both commensurability phases differ by half a cycle."""
    return math.pi / (math.sqrt(4.0 * m + 6.0) - math.sqrt(4.0 * m - 2.0))


def bell1_purity_factor(m: int) -> float:
    return (4.0 * m * m + 12.0 * m + 8.0) / (4.0 * m * m + 12.0 * m + 9.0)


def bell1_plan(m: int, phi: float, dim: int | None = None) -> Bell1Plan:
    """Plan the first-class Bell preparation from base photon number m.

    The field is (|m> - e^{-i phi}|m+2>)/sqrt(2); at gt1 the predicted
    coherence mu has argument phi and magnitude sqrt(purity_factor)/2, so
    the preparation sharpens as m grows (large even m is the useful
    regime; odd m lands on the wrong sign branch and peaks elsewhere).
    """
    if m < 1:
        raise ValueError("m must be >= 1 so the m-1 block is physical")
    if dim is None:
        dim = m + 5
    if dim < m + 3:
        raise ValueError(f"dim {dim} too small for support at m+2")
    if not math.isfinite(phi):
        raise ValueError(f"phi = {phi} is not finite")
    c_m = 1.0 / math.sqrt(2.0)
    c_m2 = -np.exp(-1j * phi) / math.sqrt(2.0)   # phi + pi would round to phi at |phi| > ~1e15
    fld = superpose([(m, c_m), (m + 2, c_m2)], dim)
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


def first_concurrence_peak(fld: FieldState, gt_hi: float, threshold: float):
    """First local concurrence maximum above threshold on [0, gt_hi].

    Grid scan (4096 samples, one batched evaluation) plus the zooming
    batched refinement of _refine_peak on each local grid maximum within
    0.05 of the threshold; the threshold applies to the refined peak
    (narrow peaks alias below it on the raw grid). Returns (gt_peak, peak)
    or None when no local maximum reaches the threshold.
    """
    ts = np.linspace(0.0, gt_hi, 4096)
    conc = partial(_concurrence_at, fld)
    cs = conc(ts)
    inner = cs[1:-1]
    candidates = (inner >= cs[:-2]) & (inner >= cs[2:]) & (inner >= threshold - 0.05)
    for i in np.flatnonzero(candidates) + 1:
        gt_pk, c_pk = _refine_peak(conc, ts[i - 1], ts[i + 1])
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
    """A point of the sign-flipped branch's solution curve, never a feasible recipe.

    A(m-1) = A(m+1) = -1 must hold at one gt: gt sqrt(2(2m-1)) and
    gt sqrt(2(2m+3)) odd multiples of pi, so sqrt((2m+3)/(2m-1)) rational,
    which needs (2m-1)(2m+3) to be a perfect square. For every integer
    m >= 1 it is not: (2m-1)(2m+3) = (2m+1)^2 - 4 lies strictly between
    (2m)^2 and (2m+1)^2. Below m = 1 the m-1 block is unphysical. So no
    point of the curve is feasible, and reason says why for this one.
    """

    c_m_sq: float
    m: float

    feasible: ClassVar[bool] = False

    @property
    def reason(self) -> str:
        """Why this point is infeasible, derived from (c_m_sq, m)."""
        x, m = self.c_m_sq, self.m
        problems = [] if 0.0 <= x <= 1.0 else [f"|c_m|^2 = {x:.6f} outside [0, 1]"]
        k = round(m)
        if abs(m - k) > 1e-6 or k < 1:
            problems.append(f"m = {m:.6f} is not an integer >= 1 (the m-1 block is unphysical)")
        else:
            problems.append(f"(2m-1)(2m+3) = {(2 * k - 1) * (2 * k + 3)} is not a perfect "
                            "square, so A(m-1) = A(m+1) = -1 cannot hold at one gt")
        return "; ".join(problems)


def bell1_negative_branch_roots(ms=None) -> tuple[NegativeBranchRoot, ...]:
    """Points of the sign-flipped branch's solution curve at the query m values.

    The half-half conditions are rank-deficient (their two residuals sum to
    zero identically), so their solutions form the curve
    |c_m|^2 = negative_branch_curve(m) rather than isolated roots. Each
    query m (default: the reference points' m values) yields the curve
    point there, with the reason it is infeasible.
    """
    if ms is None:
        ms = [m for _, m in NEGATIVE_BRANCH_REFERENCE_SEEDS]
    return tuple(NegativeBranchRoot(negative_branch_curve(m), m) for m in map(float, ms))


# ---------------------------------------------------------------------------
# second-class Bell protocol


@dataclass(frozen=True)
class Bell2Plan:
    """Recipe for the (|eg> + |ge>)/sqrt(2) state from the |1> field.

    The param unique_m = 1 records why the single-photon field is the
    only number state that works: the central element peaks at m/(4m-2),
    which reaches 1/2 only for m = 1.
    """

    l: int
    gt2: float
    field: FieldState

    #: the Bell state every plan promises, built once by the module's target()
    target: ClassVar[TargetState] = target("bell2")
    #: the Bell state's own elements, the same for every l
    predicted: ClassVar[XStateElements] = XStateElements(v_plus=0.0, v_minus=0.0, w=0.5,
                                                         h_plus=0.0, h_minus=0.0, mu=0.0)
    #: passes on max element deviation from the Bell state: the preparation is exact
    TOLERANCE: ClassVar[float] = 1e-9

    @property
    def params(self) -> dict:   # the recipe parameters the plan report lists
        return {"l": self.l, "unique_m": 1}

    def verify(self, tolerance: float | None = None) -> VerificationReport:
        tol = self.TOLERANCE if tolerance is None else tolerance
        _, devs, fids, concs = _measure(self.field, [self.gt2], self.target)
        return VerificationReport(
            protocol="bell2", gt_values=(self.gt2,), max_element_dev=devs[0],
            fidelity=fids[0], concurrence=concs[0], tolerance=tol,
            passed=bool(devs[0] <= tol))


def bell2_plan(l: int, dim: int = 8) -> Bell2Plan:
    """Plan the second-class Bell preparation at the l-th odd peak.

    Raises unless l is odd and positive and gt2 = l pi / (2 sqrt 2) is a
    finite float.
    """
    if l <= 0 or l % 2 == 0:
        raise ValueError(f"l must be odd and positive, got {l}")
    try:
        gt2 = l * math.pi / (2.0 * math.sqrt(2.0))
    except OverflowError:   # l itself is past the float range
        gt2 = math.inf
    if not math.isfinite(gt2):
        raise ValueError("l is too large: gt2 = l*pi/(2*sqrt(2)) is not a finite float")
    return Bell2Plan(l=l, gt2=gt2, field=number_state(1, dim))


# ---------------------------------------------------------------------------
# Werner protocol


@dataclass(frozen=True)
class WernerPlan:
    """Recipe for the eta = 1 Werner state from a |0>, |10> field.

    The param degenerate is c10_sq == 0.0, which holds only for the
    (0, 0) target: elsewhere |c10|^2 >= min(v_plus, w) > 0.
    """

    c0_sq: float
    c10_sq: float
    field: FieldState
    times: tuple
    predicted: XStateElements

    period: ClassVar[float] = WERNER_PERIOD
    #: the eta = 1 matrix for every (v_plus, w), an open defect: the fix promises the request here
    target: ClassVar[TargetState] = target("werner", eta=1.0)
    #: passes on the worst max element deviation over the solution times
    TOLERANCE: ClassVar[float] = 2e-3

    @property
    def params(self) -> dict:   # the recipe parameters the plan report lists
        return {"c0_sq": self.c0_sq, "c10_sq": self.c10_sq, "period": self.period,
                "degenerate": self.c10_sq == 0.0}

    def verify(self, tolerance: float | None = None) -> VerificationReport:
        """Compare every solution time with the eta = 1 Werner matrix."""
        tol = self.TOLERANCE if tolerance is None else tolerance
        _, devs, fids, concs = _measure(self.field, self.times, self.target)
        worst = max(devs)
        return VerificationReport(
            protocol="werner", gt_values=self.times, max_element_dev=worst,
            fidelity=fids[-1], concurrence=concs[-1], tolerance=tol,
            passed=bool(worst <= tol), per_time=tuple(zip(self.times, devs, fids, concs)))


def werner_forward_elements(c10_sq: float, gt: float):
    """(v_plus, v_minus, w) for the field sqrt(1-x)|0> + sqrt(x)|10>."""
    # d = u - 1 at u = cos(sqrt(38) gt), and 1 - u^2 = -d (2 + d): both keep their digits
    # where u itself rounds to 1
    d = -2.0 * math.sin(math.sqrt(38.0) * gt / 2.0) ** 2
    v_plus = (90.0 / 361.0) * c10_sq * d ** 2
    v_minus = (1.0 - c10_sq) + c10_sq * (1.0 + (10.0 / 19.0) * d) ** 2
    w = (5.0 / 19.0) * c10_sq * (-d * (2.0 + d))
    return v_plus, v_minus, w


def werner_solve(target_vplus: float, target_w: float, gt_max: float = 2.2,
                 dim: int = 16) -> WernerPlan:
    """Solve the |0>,|10> forward model for the target (v_plus, w) pair in closed form.

    With u = cos(sqrt(38) gt) and s = 90 w + 95 v_plus, the consistency
    residual w * v_plus_unit(gt) - v_plus * w_unit(gt) factors as
    (u - 1) [90 w (u - 1) + 95 v_plus (1 + u)] / 361, so u* = 1 - 190 v_plus / s
    and gt0 = arccos(u*) / sqrt(38) = 2 arcsin(sqrt(95 v_plus / s)) / sqrt(38),
    the arcsine form exact where v_plus << s, and both target equations give
    |c10|^2 = s^2 / (9000 v_plus), feasible up to 1. gt0 <= period / 2 and
    period - gt0 are extended over the period lattice up to gt_max, at most
    WERNER_MAX_LATTICE points from gt0. The field sqrt(1 - x)|0> + sqrt(x)|10>
    is built once, on dim levels. Raises when no solution is feasible, none
    is <= gt_max, or the lattice is too long.
    """
    tv, tw = float(target_vplus), float(target_w)
    if not (tv >= 0 and tw >= 0 and tv + 2.0 * tw <= 1.0 + 1e-12):
        raise ValueError("targets must satisfy v_plus, w >= 0 and v_plus + 2w <= 1")
    if not math.isfinite(gt_max):
        raise ValueError("gt_max must be finite")

    if tv == 0.0 and tw == 0.0:
        x, gt0, lattice = 0.0, 0.0, [0.0]   # the vacuum never evolves: one time is all
    else:
        s = 90.0 * tw + 95.0 * tv
        x = s / tv * (s / 9000.0) if tv else math.inf   # in this order: (1e-300, 1e-300) > 0
        if not x <= 1.0 + 1e-9:
            raise ValueError(
                "no solution in the feasible box (|c10|^2 in [0, 1], gt in one period)")
        x = min(x, 1.0)
        gt0 = 2.0 * math.asin(math.sqrt(95.0 * tv / s)) / math.sqrt(38.0)
        n = math.floor((gt_max - gt0) / WERNER_PERIOD) + 1
        if n > WERNER_MAX_LATTICE:
            raise ValueError(f"gt_max = {gt_max:g} needs {n:.6g} lattice points from gt0; "
                             f"at most {WERNER_MAX_LATTICE} are listed")
        # k runs one past n, which is rounded: the filter drops what lies past gt_max
        lattice = [base + k * WERNER_PERIOD
                   for base in (gt0, WERNER_PERIOD - gt0) for k in range(n + 1)]
    times = tuple(sorted({round(t, 15) for t in lattice if t <= gt_max}))
    if not times:
        raise ValueError(f"no solution time <= gt_max = {gt_max:g}; the first is {gt0:.6g}")

    vp, vm, w = werner_forward_elements(x, gt0)
    predicted = XStateElements(v_plus=vp, v_minus=vm, w=w,
                               h_plus=0.0, h_minus=0.0, mu=0.0)
    fld = superpose([(0, math.sqrt(1.0 - x)), (10, math.sqrt(x))], dim)
    return WernerPlan(c0_sq=1.0 - x, c10_sq=x, field=fld, times=times, predicted=predicted)


# ---------------------------------------------------------------------------
# end-to-end verification


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


def _concurrence_at(fld: FieldState, gts: np.ndarray) -> np.ndarray:
    """Closed-form concurrence of the evolved |gg> (x) fld at a vector of times.

    concurrence reads the elements directly: an X-type field's rows take
    the Yu-Eberly form on v_plus, v_minus, w and mu with no 4x4 stack,
    bit for bit the value of the assembled matrices.
    """
    return concurrence(analytic_elements(fld, gts))


def _measure(fld: FieldState, times, tgt: TargetState):
    """Pipeline matrices of the evolved |gg> (x) fld at each time, measured against tgt.

    Returns the (T, 4, 4) stack and, per time, lists of the max element
    deviation from tgt, the fidelity with it and the concurrence.
    """
    rho = partial_trace(apply_propagator(JointState.from_field(fld, "gg"), times))
    devs = np.max(np.abs(rho - tgt.matrix), axis=(-2, -1))
    return rho, devs.tolist(), fidelity(rho, tgt).tolist(), concurrence(rho).tolist()


def verify_plan(plan, tolerance: float | None = None) -> VerificationReport:
    """Run a plan's full pipeline and compare against its ideal target.

    Delegates to plan.verify; tolerance None means the plan class's TOLERANCE.
    """
    return plan.verify(tolerance)
