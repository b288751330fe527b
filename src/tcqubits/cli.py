"""Command-line front door: time scans, protocol planning, and validation sweeps.

Subcommands
-----------
scan      emit per-time CSV/JSON rows of reduced-matrix elements,
          concurrence and (optionally) fidelity for a field recipe
plan      plan one of the three protocols, verify it end to end, and
          emit the plan + verification report as JSON
validate  cross-check the closed-form route against the brute-force
          route on random fields and the protocol presets

Exit codes: 0 success, 1 verification/validation failure, 2 usage error.
Identical invocations (flags + seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import TargetState, concurrence, fidelity, target
from .fock import FieldState, coherent_state, number_state, superpose
from .oracle import compare_paths
from .propagator import HeadroomError
from .reduced import analytic_elements, assemble_density, density_to_json
from .protocols import bell1_plan, bell2_plan, verify_plan, werner_solve

VALIDATE_GT_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 8.673, 12.0)
#: scan rows evaluated (and, for CSV, written) per batched kernel call
SCAN_CHUNK = 256


class UsageError(ValueError):
    """Bad recipe, preset, or parameter combination (exit code 2)."""


def parse_phase(text: str) -> float:
    """Parse a finite phase like '1.57', 'pi', '-pi/2', '3pi/2' or '0.5pi'."""
    s = text.strip().lower().replace(" ", "")
    head, pi, tail = s.partition("pi")
    try:
        if not pi:
            phase = float(s)
        else:
            factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
            if tail:
                if not tail.startswith("/"):
                    raise ValueError
                factor /= float(tail[1:])
            phase = factor * math.pi
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse phase {text!r}") from None
    if not math.isfinite(phase):
        raise UsageError(f"phase {text!r} is not finite")
    return phase


def build_field(recipe: str, dim: int) -> tuple[FieldState, TargetState | None]:
    """Resolve a preset name or explicit superposition into a field state.

    Returns the field plus the natural fidelity target for presets that
    have one (None otherwise).
    """
    name = recipe.strip()
    try:
        if name == "vacuum":
            return number_state(0, dim), None
        if name == "single-photon":
            return number_state(1, dim), target("bell2")
        if name == "bell1-m30":
            return bell1_plan(30, math.pi, dim=dim).field, target("bell1", phi=math.pi)
        if name == "bell1-m40":
            return bell1_plan(40, 0.0, dim=dim).field, target("bell1", phi=0.0)
        if name == "werner":
            plan = werner_solve(1.0 / 3.0, 1.0 / 6.0)
            return plan.field(dim), target("werner", eta=1.0)
        if name.startswith("even-coherent"):
            alpha = 2.0
            if ":" in name:
                alpha = float(name.split(":", 1)[1])
            return coherent_state(alpha, dim, parity="even"), None
        if ":" in name:
            terms = []
            for chunk in name.split(";"):
                idx_part, _, amp_part = chunk.partition(":")
                re_s, _, im_s = amp_part.partition(",")
                terms.append((int(idx_part), complex(float(re_s), float(im_s or 0.0))))
            return superpose(terms, dim), None
    except UsageError:
        raise
    except (ValueError, IndexError) as exc:
        raise UsageError(f"invalid field recipe {recipe!r}: {exc}") from exc
    raise UsageError(
        f"unknown field recipe {recipe!r}; presets: vacuum, single-photon, "
        "bell1-m30, bell1-m40, werner, even-coherent[:alpha], or 'n:re,im;n:re,im'")


def parse_target(text: str) -> TargetState | None:
    s = text.strip().lower()
    if s in ("", "none"):
        return None
    kind, _, param = s.partition(":")
    try:
        if kind == "bell1":
            return target("bell1", phi=parse_phase(param or "0"))
        if kind == "bell2":
            return target("bell2")
        if kind == "werner":
            return target("werner", eta=float(param) if param else 1.0)
    except ValueError as exc:
        raise UsageError(f"invalid target {text!r}: {exc}") from None
    raise UsageError(f"cannot parse target {text!r}")


@dataclass(frozen=True)
class ScanSpec:
    """A time scan: field recipe, gt window, sample count and outputs."""

    recipe: str
    gt_min: float
    gt_max: float
    steps: int
    dim: int
    outputs: tuple = ("elements", "concurrence")
    fid_target: TargetState | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if not (math.isfinite(self.gt_min) and math.isfinite(self.gt_max)):
            raise UsageError("--gt-min and --gt-max must be finite")
        if not self.gt_min < self.gt_max:
            raise UsageError("--gt-min must be smaller than --gt-max")
        if self.steps < 2:
            raise UsageError("--steps must be >= 2")
        bad = set(self.outputs) - {"elements", "concurrence", "fidelity", "density"}
        if bad:
            raise UsageError(f"unknown outputs {sorted(bad)}")
        if "density" in self.outputs and self.fmt != "json":
            raise UsageError("density output requires --format json")
        # a missing fidelity target is checked in cmd_scan, after preset
        # resolution has had the chance to supply one


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_scan(spec: ScanSpec, out) -> int:
    fld, preset_target = build_field(spec.recipe, spec.dim)
    fid_target = spec.fid_target or preset_target
    if "fidelity" in spec.outputs and fid_target is None:
        raise UsageError("fidelity output requires --target for this recipe")
    if not fld.has_headroom():
        raise UsageError(
            f"recipe {spec.recipe!r} leaves no headroom at dim={spec.dim}; increase --dim")

    columns = ["gt"]
    if "elements" in spec.outputs:
        columns += ["v_plus", "v_minus", "w", "re_mu", "im_mu",
                    "re_h_plus", "im_h_plus", "re_h_minus", "im_h_minus"]
    if "concurrence" in spec.outputs:
        columns.append("concurrence")
    if "fidelity" in spec.outputs:
        columns.append("fidelity")

    grid = np.linspace(spec.gt_min, spec.gt_max, spec.steps)
    if spec.fmt == "csv":
        out.write(",".join(columns) + "\n")
    rows = []
    for start in range(0, spec.steps, SCAN_CHUNK):
        gts = grid[start:start + SCAN_CHUNK]
        elems = analytic_elements(fld, gts)
        rho = assemble_density(elems)
        cols = {"gt": gts}
        if "elements" in spec.outputs:
            cols.update(v_plus=elems.v_plus, v_minus=elems.v_minus, w=elems.w,
                        re_mu=elems.mu.real, im_mu=elems.mu.imag,
                        re_h_plus=elems.h_plus.real, im_h_plus=elems.h_plus.imag,
                        re_h_minus=elems.h_minus.real, im_h_minus=elems.h_minus.imag)
        if "concurrence" in spec.outputs:
            cols["concurrence"] = concurrence(rho)
        if "fidelity" in spec.outputs:
            cols["fidelity"] = fidelity(rho, fid_target)
        table = zip(*(cols[c].tolist() for c in columns))
        if spec.fmt == "csv":
            out.write("".join(",".join(map(_fmt, row)) + "\n" for row in table))
        else:
            for i, values in enumerate(table):
                row = dict(zip(columns, values))
                if "density" in spec.outputs:
                    row["density"] = density_to_json(rho[i])
                rows.append(row)

    if spec.fmt == "json":
        payload = {
            "recipe": spec.recipe,
            "dim": spec.dim,
            "gt_min": spec.gt_min,
            "gt_max": spec.gt_max,
            "steps": spec.steps,
            "rows": rows,
        }
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_plan(protocol: str, args, out) -> int:
    try:
        if protocol == "bell1":
            plan = bell1_plan(args.m, parse_phase(args.phi), dim=args.dim)
        elif protocol == "bell2":
            plan = bell2_plan(args.l)
        elif protocol == "werner":
            plan = werner_solve(args.v_plus, args.w, gt_max=args.gt_max)
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown protocol {protocol!r}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    report = verify_plan(plan, tolerance=args.tol)
    payload = plan.to_json()
    payload["verification"] = report.to_json()
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if report.passed else 1


def cmd_validate(dim: int, trials: int, seed: int, tol: float, out) -> int:
    if trials < 1:
        raise UsageError("--trials must be >= 1")
    rng = np.random.default_rng(seed)
    support = min(40, dim - 8)
    if support < 1:
        raise UsageError(f"--dim {dim} too small for random-field validation")

    gts = np.array(VALIDATE_GT_GRID)
    worst_rho = worst_joint = 0.0
    for _ in range(trials):
        amps = np.zeros(dim, dtype=complex)
        amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
        amps /= np.linalg.norm(amps)
        rep = compare_paths(FieldState(amps), gts)
        worst_rho = max(worst_rho, float(rep.max_density_dev.max()))
        worst_joint = max(worst_joint, float(rep.max_joint_dev.max()))
    out.write(f"random fields: trials={trials} dim={dim} support<={support} "
              f"max_density_dev={_fmt(worst_rho)} max_joint_dev={_fmt(worst_joint)}\n")

    overall = max(worst_rho, worst_joint)
    for preset in ("bell1-m30", "single-photon", "werner"):
        fld, _ = build_field(preset, dim)
        rep = compare_paths(fld, gts)
        preset_worst = float(max(rep.max_density_dev.max(), rep.max_joint_dev.max()))
        out.write(f"preset {preset}: max_dev={_fmt(preset_worst)}\n")
        overall = max(overall, preset_worst)

    passed = overall <= tol
    out.write(f"overall max deviation: {_fmt(overall)} "
              f"({'PASS' if passed else 'FAIL'} at tol {_fmt(tol)})\n")
    return 0 if passed else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="tcqubits",
        description="Two-qubit resonant cavity dynamics and Bell/Werner preparation planner")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="emit element/concurrence time series")
    scan.add_argument("--field", required=True,
                      help="preset (vacuum, single-photon, bell1-m30, bell1-m40, werner, "
                           "even-coherent[:alpha]) or explicit 'n:re,im;n:re,im'")
    scan.add_argument("--dim", type=int, default=64)
    scan.add_argument("--gt-min", type=float, default=0.0)
    scan.add_argument("--gt-max", type=float, required=True)
    scan.add_argument("--steps", type=int, default=500)
    scan.add_argument("--outputs", default=None,
                      help="comma list of elements,concurrence,fidelity,density")
    scan.add_argument("--target", default="",
                      help="fidelity target: bell1:PHASE, bell2, werner:ETA, none")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--out", default="-", help="output path or '-' for stdout")

    plan = sub.add_parser("plan", help="plan and verify a preparation protocol")
    plan_sub = plan.add_subparsers(dest="protocol", required=True)
    p1 = plan_sub.add_parser("bell1")
    p1.add_argument("--m", type=int, required=True)
    p1.add_argument("--phi", default="0", help="relative phase (accepts 'pi' forms)")
    p1.add_argument("--dim", type=int, default=None)
    p1.add_argument("--tol", type=float, default=None)
    p1.add_argument("--out", default="-")
    p2 = plan_sub.add_parser("bell2")
    p2.add_argument("--l", type=int, default=1)
    p2.add_argument("--tol", type=float, default=None)
    p2.add_argument("--out", default="-")
    pw = plan_sub.add_parser("werner")
    pw.add_argument("--v-plus", type=float, default=1.0 / 3.0)
    pw.add_argument("--w", type=float, default=1.0 / 6.0)
    pw.add_argument("--gt-max", type=float, default=2.2)
    pw.add_argument("--tol", type=float, default=None)
    pw.add_argument("--out", default="-")

    validate = sub.add_parser("validate", help="closed-form vs brute-force sweep")
    validate.add_argument("--dim", type=int, default=64)
    validate.add_argument("--trials", type=int, default=100)
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--tol", type=float, default=1e-9)
    validate.add_argument("--out", default="-")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def run(out) -> int:
        if getattr(args, "tol", None) is not None and not math.isfinite(args.tol):
            raise UsageError("--tol must be finite")
        if args.command == "scan":
            outputs = tuple(s.strip() for s in args.outputs.split(",")) if args.outputs \
                else ("elements", "concurrence")
            spec = ScanSpec(recipe=args.field, gt_min=args.gt_min, gt_max=args.gt_max,
                            steps=args.steps, dim=args.dim, outputs=outputs,
                            fid_target=parse_target(args.target), fmt=args.format)
            return cmd_scan(spec, out)
        if args.command == "plan":
            return cmd_plan(args.protocol, args, out)
        if args.command == "validate":
            return cmd_validate(args.dim, args.trials, args.seed, args.tol, out)
        raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover

    try:
        if args.out == "-":
            return run(sys.stdout)
        with open(args.out, "w") as handle:
            return run(handle)
    except (UsageError, HeadroomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
