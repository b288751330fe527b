"""Command-line front door: time scans, protocol planning, and validation sweeps.

Subcommands
-----------
scan      emit per-time CSV/JSON rows of reduced-matrix elements,
          concurrence and (optionally) fidelity for a field recipe
plan      plan one of the three protocols, verify it end to end, and
          emit the plan + verification report as JSON
validate  cross-check the closed-form route against the brute-force
          route on random fields and the protocol presets

The JSON report schema lives here alone: cmd_plan and cmd_scan lay out
their payloads from the package's objects, which write no JSON.

Each command checks every input before it opens --out, so a usage error
leaves an existing file untouched; an unwritable --out or stdout (a failed
write or close, a full device, a reader that closed the pipe early, a
closed descriptor 1) is a usage error too, and so is a --dim or --m too
large to allocate. A field holds only its occupied levels, so --dim
allocates nothing in scan or validate; what still allocates by --dim is
plan's JSON field, padded to dim levels. Where the OS overcommits memory,
such a run can be killed instead of exiting 2.
Exit codes: 0 success, 1 verification/validation failure, 2 usage error.
Identical invocations (flags + seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .entanglement import TargetState, concurrence, fidelity, target
from .fock import FieldState, coherent_state, number_state, superpose
from .oracle import compare_paths
from .propagator import BASIS, abc
from .reduced import analytic_elements, assemble_density
from .protocols import bell1_plan, bell2_plan, linspace_at, verify_plan, werner_solve

VALIDATE_GT_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 8.673, 12.0)
#: validate's cap on the F * T * 4 * width complex entries (4 MiB) of the (F, T, 4, width)
#: stacks each compare_paths call holds, width the widest field's held levels
VALIDATE_STACK_ENTRIES = 2 ** 18
#: scan rows evaluated (and, for CSV, written) per batched kernel call
SCAN_CHUNK = 256
#: the float format of scan's CSV rows and validate's report
FLOAT_FORMAT = "%.17g"


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


#: name -> dim -> the protocol's plan (the preset's field and target), or vacuum's bare field
PRESETS = {
    "vacuum": lambda dim: number_state(0, dim),
    "single-photon": lambda dim: bell2_plan(1, dim=dim),
    "bell1-m30": lambda dim: bell1_plan(30, math.pi, dim=dim),
    "bell1-m40": lambda dim: bell1_plan(40, 0.0, dim=dim),
    "werner": lambda dim: werner_solve(1 / 3, 1 / 6, dim=dim),
}
PRESET_NAMES = ", ".join(PRESETS) + ", even-coherent[:alpha]"   # as help and errors list them


def build_field(recipe: str, dim: int) -> tuple[FieldState, TargetState | None]:
    """Resolve a preset, an even cat or an explicit superposition into (field, target or None)."""
    name = recipe.strip()
    try:
        if name in PRESETS:
            plan = PRESETS[name](dim)
            return (plan, None) if name == "vacuum" else (plan.field, plan.target)
        kind, colon, alpha = name.partition(":")
        if kind == "even-coherent":
            return coherent_state(float(alpha) if colon else 2.0, dim, parity="even"), None
        if ":" in name:
            terms = []
            for chunk in name.split(";"):
                idx_part, _, amp_part = chunk.partition(":")
                re_s, _, im_s = amp_part.partition(",")
                terms.append((int(idx_part), complex(float(re_s), float(im_s or 0.0))))
            return superpose(terms, dim), None
    except (ValueError, IndexError) as exc:
        raise UsageError(f"invalid field recipe {recipe!r}: {exc}") from exc
    raise UsageError(
        f"unknown field recipe {recipe!r}; presets: {PRESET_NAMES}, or 'n:re,im;n:re,im'")


def parse_target(text: str) -> TargetState | None:
    s = text.strip().lower()
    if s in ("", "none"):
        return None
    kind, _, param = s.partition(":")
    try:
        if kind == "bell1":
            return target("bell1", phi=parse_phase(param or "0"))
        if kind == "bell2" and not param:
            return target("bell2")
        if kind == "werner":
            return target("werner", eta=float(param) if param else 1.0)
    except ValueError as exc:
        raise UsageError(f"invalid target {text!r}: {exc}") from None
    raise UsageError(f"cannot parse target {text!r}")


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def _re_im(values) -> list:
    """JSON form of a complex scalar or array: [re, im], nested like the array."""
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


@contextmanager
def _output(path: str):
    """Where a command writes: stdout for '-', else the file, opened only now.

    A failed open, write or close is a usage error, and so is a missing
    stdout: Python sets sys.stdout to None when descriptor 1 was closed.
    """
    if path == "-":
        out = sys.stdout  # looked up per call: a caller may have redirected it
        if out is None:
            raise UsageError(f"cannot write to stdout: {os.strerror(errno.EBADF)}")
        try:
            yield out
            out.flush()
        except OSError as exc:
            # a reader that closed the pipe early, or a full device: point the
            # descriptor at devnull so the interpreter's last flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
            raise UsageError(f"cannot write to stdout: {exc.strerror}") from None
        return
    try:
        handle = open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror}") from None
    try:
        with handle:
            yield handle
    except OSError as exc:   # a full device fails on a write or on the closing flush
        raise UsageError(f"cannot write --out {path!r}: {exc.strerror}") from None


def cmd_scan(args) -> int:
    fid_target = parse_target(args.target)
    if not (math.isfinite(args.gt_min) and math.isfinite(args.gt_max)):
        raise UsageError("--gt-min and --gt-max must be finite")
    if not args.gt_min < args.gt_max:
        raise UsageError("--gt-min must be smaller than --gt-max")
    if not math.isfinite(args.gt_max - args.gt_min):
        raise UsageError("--gt-max - --gt-min overflows")
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    outputs = {s.strip() for s in args.outputs.split(",")}
    bad = outputs - {"elements", "concurrence", "fidelity", "density"}
    if bad:
        raise UsageError(f"unknown outputs {sorted(bad)}")
    as_json = args.format == "json"
    if "density" in outputs and not as_json:
        raise UsageError("density output requires --format json")
    fld, preset_target = build_field(args.field, args.dim)
    top = fld.amplitudes.size - 1
    try:   # the grid lies inside the window, so its ends bound every phase gt sqrt(C)
        abc(max(top - 1, 0), np.array([args.gt_min, args.gt_max]))
    except ValueError:
        raise UsageError(f"the window [{args.gt_min:g}, {args.gt_max:g}] overflows "
                         f"gt sqrt(C) on the field's top manifold N = {top}") from None
    fid_target = fid_target or preset_target
    if "fidelity" in outputs and fid_target is None:
        raise UsageError("fidelity output requires --target for this recipe")

    rows = []
    with _output(args.out) as out:
        for start in range(0, args.steps, SCAN_CHUNK):
            # np.linspace(gt_min, gt_max, steps)[start:stop], one chunk at a time
            index = np.arange(start, min(start + SCAN_CHUNK, args.steps), dtype=float)
            gts = linspace_at(args.gt_min, args.gt_max, args.steps - 1, index)
            elems = analytic_elements(fld, gts)
            if outputs & {"fidelity", "density"}:
                rho = assemble_density(elems)
            cols = {"gt": gts}
            if "elements" in outputs:
                cols.update(v_plus=elems.v_plus, v_minus=elems.v_minus, w=elems.w,
                            re_mu=elems.mu.real, im_mu=elems.mu.imag,
                            re_h_plus=elems.h_plus.real, im_h_plus=elems.h_plus.imag,
                            re_h_minus=elems.h_minus.real, im_h_minus=elems.h_minus.imag)
            if "concurrence" in outputs:
                cols["concurrence"] = concurrence(elems)
            if "fidelity" in outputs:
                cols["fidelity"] = fidelity(rho, fid_target)
            table = zip(*(values.tolist() for values in cols.values()))
            if as_json:
                for i, values in enumerate(table):
                    row = dict(zip(cols, values))
                    if "density" in outputs:
                        row["density"] = {"basis": list(BASIS), "matrix": _re_im(rho[i])}
                    rows.append(row)
            else:
                if start == 0:
                    out.write(",".join(cols) + "\n")
                row_format = ",".join([FLOAT_FORMAT] * len(cols)) + "\n"
                out.write("".join(row_format % row for row in table))
        if as_json:
            payload = {"recipe": args.field, "dim": args.dim, "gt_min": args.gt_min,
                       "gt_max": args.gt_max, "steps": args.steps, "rows": rows}
            out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_plan(args) -> int:
    try:
        if args.protocol == "bell1":
            plan = bell1_plan(args.m, parse_phase(args.phi), dim=args.dim)
        elif args.protocol == "bell2":
            plan = bell2_plan(args.l)
        else:
            plan = werner_solve(args.v_plus, args.w, gt_max=args.gt_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fld, pred = plan.field, plan.predicted
    try:   # the JSON field lists all dim levels, one shared zero pair above the held ones
        amplitudes = _re_im(fld.amplitudes) + [[0.0, 0.0]] * (fld.dim - fld.amplitudes.size)
    except (OverflowError, MemoryError):
        raise UsageError(f"--dim {fld.dim} is too large to write out") from None

    report = verify_plan(plan, tolerance=args.tol)
    # the report's fields under their own names, gt_values as "gt"; None and an empty per_time drop
    verification = {"gt" if name == "gt_values" else name: value
                    for name, value in vars(report).items() if value is not None and value != ()}
    payload = {
        "protocol": args.protocol, "params": plan.params, "gt": list(report.gt_values),
        "field": {"dim": fld.dim, "amplitudes": amplitudes},
        "predicted": {"v_plus": pred.v_plus, "v_minus": pred.v_minus, "w": pred.w, "p": pred.w,
                      "h_plus": _re_im(pred.h_plus), "h_minus": _re_im(pred.h_minus),
                      "mu": _re_im(pred.mu)},
        "verification": verification,
    }
    with _output(args.out) as out:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if report.passed else 1


def cmd_validate(args) -> int:
    dim = args.dim
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if dim < 33:
        raise UsageError(
            f"--dim {dim} too small for validate: the bell1-m30 preset needs dim >= 33")
    support = min(40, dim - 8)
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    presets = {name: PRESETS[name](dim).field for name in ("bell1-m30", "single-photon", "werner")}

    rng = np.random.default_rng(args.seed)
    gts = np.array(VALIDATE_GT_GRID)

    def random_field():
        amps = rng.normal(size=support) + 1j * rng.normal(size=support)
        return FieldState(amps / np.linalg.norm(amps), dim)

    # the trials, then the presets, compared a bounded stack at a time; the
    # worst (density, joint) deviations of all trials go to row 0, a preset's to its own row
    fields = chain((random_field() for _ in range(args.trials)), presets.values())
    width = max(support, *(f.amplitudes.size for f in presets.values()))
    batch = VALIDATE_STACK_ENTRIES // (gts.size * 4 * width)
    worst = np.zeros((1 + len(presets), 2))
    for start in range(0, args.trials + len(presets), batch):
        rep = compare_paths(islice(fields, batch), gts)
        devs = np.stack([rep.max_density_dev.max(axis=1), rep.max_joint_dev.max(axis=1)], axis=1)
        row = np.maximum(np.arange(start, start + len(devs)) - args.trials + 1, 0)
        np.maximum.at(worst, row, devs)
    (worst_rho, worst_joint), *preset_devs = worst.tolist()
    lines = [f"random fields: trials={args.trials} dim={dim} support<={support} "
             f"max_density_dev={_fmt(worst_rho)} max_joint_dev={_fmt(worst_joint)}\n"]

    overall = max(worst_rho, worst_joint)
    for name, devs in zip(presets, preset_devs):
        lines.append(f"preset {name}: max_dev={_fmt(max(devs))}\n")
        overall = max(overall, *devs)

    passed = overall <= args.tol
    lines.append(f"overall max deviation: {_fmt(overall)} "
                 f"({'PASS' if passed else 'FAIL'} at tol {_fmt(args.tol)})\n")
    with _output(args.out) as out:
        out.write("".join(lines))
    return 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative float() form and '-pi' phase as a value.

    argparse's own test knows only the '-1' and '-.5' forms, so '-1e-3',
    '-inf' and '-pi/2' would read as options. Its errors raise UsageError,
    which main prints as one line, instead of printing usage and exiting.
    Subparsers take the class of the parser that adds them.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan|-pi", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = _Parser(
        prog="tcqubits",
        description="Two-qubit resonant cavity dynamics and Bell/Werner preparation planner")
    sub = parser.add_subparsers(dest="command", required=True)
    output = _Parser(add_help=False)
    output.add_argument("--out", default="-", help="output path or '-' for stdout")
    plan_opts = _Parser(add_help=False, parents=[output])
    plan_opts.add_argument("--tol", type=float, default=None,
                           help="verification tolerance (default: the protocol's own)")

    scan = sub.add_parser("scan", parents=[output], help="emit element/concurrence time series")
    scan.add_argument("--field", required=True,
                      help=f"preset ({PRESET_NAMES}) or explicit 'n:re,im;n:re,im'")
    scan.add_argument("--dim", type=int, default=64)
    scan.add_argument("--gt-min", type=float, default=0.0)
    scan.add_argument("--gt-max", type=float, required=True)
    scan.add_argument("--steps", type=int, default=500)
    scan.add_argument("--outputs", default="elements,concurrence",
                      help="comma list of elements,concurrence,fidelity,density")
    scan.add_argument("--target", default="",
                      help="fidelity target: bell1:PHASE, bell2, werner:ETA, none")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")

    plan = sub.add_parser("plan", help="plan and verify a preparation protocol")
    plan_sub = plan.add_subparsers(dest="protocol", required=True)
    p1 = plan_sub.add_parser("bell1", parents=[plan_opts])
    p1.add_argument("--m", type=int, required=True)
    p1.add_argument("--phi", default="0", help="relative phase (accepts 'pi' forms)")
    p1.add_argument("--dim", type=int, default=None)
    p2 = plan_sub.add_parser("bell2", parents=[plan_opts])
    p2.add_argument("--l", type=int, default=1)
    pw = plan_sub.add_parser("werner", parents=[plan_opts])
    pw.add_argument("--v-plus", type=float, default=1.0 / 3.0)
    pw.add_argument("--w", type=float, default=1.0 / 6.0)
    pw.add_argument("--gt-max", type=float, default=2.2)

    validate = sub.add_parser("validate", parents=[output],
                              help="closed-form vs brute-force sweep")
    validate.add_argument("--dim", type=int, default=64)
    validate.add_argument("--trials", type=int, default=100)
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--tol", type=float, default=1e-9)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = {"scan": cmd_scan, "plan": cmd_plan, "validate": cmd_validate}[args.command]
        tol = getattr(args, "tol", None)
        if tol is not None and not math.isfinite(tol):
            raise UsageError("--tol must be finite")
        if tol is not None and tol < 0:
            raise UsageError("--tol must be >= 0")
        return command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # --dim or --m past what this host can allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
