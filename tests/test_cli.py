import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcqubits import analytic_elements, assemble_density, concurrence, fidelity, target
from tcqubits import FieldState, TargetState, cli, superpose
from tcqubits.cli import SCAN_CHUNK, build_field, main, parse_phase


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    return header, rows


def test_parse_phase_forms():
    assert parse_phase("pi") == pytest.approx(math.pi)
    assert parse_phase("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_phase("3pi/2") == pytest.approx(3 * math.pi / 2)
    assert parse_phase("0.5pi") == pytest.approx(math.pi / 2)
    assert parse_phase("1.25") == 1.25
    with pytest.raises(Exception):
        parse_phase("2tau")
    with pytest.raises(cli.UsageError, match=r"^cannot parse phase 'pi3'$"):
        parse_phase("pi3")


def test_scan_single_photon_periodic_maxima(capsys):
    code, out, _ = run_cli(["scan", "--field", "single-photon", "--dim", "16",
                            "--gt-max", "4.5", "--steps", "901",
                            "--outputs", "concurrence"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["gt", "concurrence"]
    # maxima at odd multiples of pi/(2 sqrt 2)
    for l in (1, 3):
        t_star = l * math.pi / (2 * math.sqrt(2))
        near = min(rows, key=lambda r: abs(r["gt"] - t_star))
        assert near["concurrence"] >= 1.0 - 1e-3


def test_scan_bell1_m30_window(capsys):
    code, out, _ = run_cli(["scan", "--field", "bell1-m30", "--gt-min", "8",
                            "--gt-max", "11", "--steps", "1501",
                            "--outputs", "concurrence"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    best = max(rows, key=lambda r: r["concurrence"])
    assert abs(best["gt"] - 8.67) <= 0.02
    assert best["concurrence"] >= 0.999


def test_scan_werner_elements(capsys):
    code, out, _ = run_cli(["scan", "--field", "werner", "--dim", "16",
                            "--gt-max", "2.2", "--steps", "2201"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["gt", "v_plus", "v_minus", "w"]
    for t_star in (0.314, 0.705):
        near = min(rows, key=lambda r: abs(r["gt"] - t_star))
        assert near["v_plus"] == pytest.approx(1 / 3, abs=2e-3)
        assert near["v_minus"] == pytest.approx(1 / 3, abs=2e-3)
        assert near["w"] == pytest.approx(1 / 6, abs=2e-3)


def test_scan_full_precision_and_determinism(capsys):
    args = ["scan", "--field", "single-photon", "--dim", "16",
            "--gt-max", "1.0", "--steps", "5"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code2, out2, _ = run_cli(args, capsys)
    assert code2 == 0
    assert out1 == out2
    # numeric fields carry >= 15 significant digits (repr round-trip safe)
    _, rows = parse_csv(out1)
    w_text = out1.splitlines()[2].split(",")[3]
    assert float(w_text) == rows[1]["w"]
    assert len(w_text.replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_scan_rows_across_chunks_match_scalar_calls(capsys):
    # more rows than one batched chunk: every row equals its scalar evaluation
    steps = SCAN_CHUNK + 3
    code, out, _ = run_cli(["scan", "--field", "0:1,0;1:0.5,0.5;3:0,1", "--dim", "8",
                            "--gt-max", "6", "--steps", str(steps),
                            "--outputs", "elements,concurrence,fidelity", "--target", "bell2"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == steps + 1
    fld, _ = build_field("0:1,0;1:0.5,0.5;3:0,1", 8)
    for gt, line in zip(np.linspace(0.0, 6.0, steps), lines[1:]):
        e = analytic_elements(fld, float(gt))
        rho = assemble_density(e)
        values = [gt, e.v_plus, e.v_minus, e.w, e.mu.real, e.mu.imag, e.h_plus.real,
                  e.h_plus.imag, e.h_minus.real, e.h_minus.imag,
                  concurrence(rho), fidelity(rho, target("bell2"))]
        assert line == ",".join(f"{v:.17g}" for v in values)


def test_scan_csv_keeps_the_sign_of_zero(monkeypatch, capsys):
    # an X-type field's h_plus is exactly zero; negated it is -0.0 in both parts,
    # next to the +0.0 of h_minus, and each keeps its own text
    def negated_h_plus(field, gt):
        e = analytic_elements(field, gt)
        return dataclasses.replace(e, h_plus=-e.h_plus)

    monkeypatch.setattr(cli, "analytic_elements", negated_h_plus)
    steps = SCAN_CHUNK + 3
    code, out, _ = run_cli(["scan", "--field", "even-coherent:2", "--dim", "32",
                            "--gt-max", "6", "--steps", str(steps)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == steps + 1
    fields = [ln.split(",") for ln in lines[1:]]
    assert {f[6] for f in fields} == {f[7] for f in fields} == {"-0"}
    assert {f[8] for f in fields} == {f[9] for f in fields} == {"0"}
    fld, _ = build_field("even-coherent:2", 32)
    for gt, line in zip(np.linspace(0.0, 6.0, steps), lines[1:]):
        e = negated_h_plus(fld, float(gt))
        values = [gt, e.v_plus, e.v_minus, e.w, e.mu.real, e.mu.imag, e.h_plus.real,
                  e.h_plus.imag, e.h_minus.real, e.h_minus.imag,
                  concurrence(assemble_density(e))]
        assert line == ",".join(f"{v:.17g}" for v in values)


def test_scan_json_rows_across_chunks_match_scalar_calls(capsys):
    steps = SCAN_CHUNK + 3
    code, out, _ = run_cli(["scan", "--field", "0:1,0;1:0.5,0.5;3:0,1", "--dim", "8",
                            "--gt-max", "6", "--steps", str(steps), "--format", "json",
                            "--outputs", "concurrence,density"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    fld, _ = build_field("0:1,0;1:0.5,0.5;3:0,1", 8)
    assert len(rows) == steps
    for gt, row in zip(np.linspace(0.0, 6.0, steps), rows):
        rho = assemble_density(analytic_elements(fld, float(gt)))
        density = {"basis": ["ee", "eg", "ge", "gg"],
                   "matrix": [[[v.real, v.imag] for v in matrix_row] for matrix_row in rho]}
        assert row == {"gt": gt, "concurrence": concurrence(rho), "density": density}


def test_scan_canonical_header_with_fidelity(capsys):
    code, out, _ = run_cli(["scan", "--field", "single-photon", "--dim", "16",
                            "--gt-max", "1.2", "--steps", "3",
                            "--outputs", "elements,concurrence,fidelity"], capsys)
    assert code == 0
    header, _ = parse_csv(out)
    assert header == ["gt", "v_plus", "v_minus", "w", "re_mu", "im_mu",
                      "re_h_plus", "im_h_plus", "re_h_minus", "im_h_minus",
                      "concurrence", "fidelity"]


def test_scan_explicit_superposition_recipe(capsys):
    code, out, _ = run_cli(["scan", "--field", "30:0.70710678,0;32:0.70710678,0",
                            "--gt-min", "8.5", "--gt-max", "8.8", "--steps", "301",
                            "--outputs", "concurrence"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert max(r["concurrence"] for r in rows) >= 0.999


def test_scan_json_density_output(capsys):
    code, out, _ = run_cli(["scan", "--field", "single-photon", "--dim", "16",
                            "--gt-max", "1.2", "--steps", "3", "--format", "json",
                            "--outputs", "elements,density"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 3
    assert data["rows"][0]["density"]["basis"] == ["ee", "eg", "ge", "gg"]


def test_scan_bad_recipe_exits_2(capsys):
    code, _, err = run_cli(["scan", "--field", "nonsense", "--gt-max", "1"], capsys)
    assert code == 2
    assert "recipe" in err


@pytest.mark.parametrize("recipe", ["even-coherentXYZ", "even-coherent-odd", "even-coherent2"])
def test_scan_misspelt_cat_preset_exits_2(recipe, capsys):
    # only even-coherent and even-coherent:<alpha> name the cat preset
    code, out, err = run_cli(["scan", "--field", recipe, "--gt-max", "1"], capsys)
    assert (code, out) == (2, "")
    assert "unknown field recipe" in err


def test_scan_runs_at_the_smallest_dim_that_holds_the_field(capsys):
    # |gg, 32> lies on manifold 32 = dim - 1 at dim 33, where the truncation is exact
    window = ["--gt-min", "8", "--gt-max", "9.5", "--steps", "40"]
    code, out, _ = run_cli(["scan", "--field", "bell1-m30", "--dim", "33", *window], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    _, wide = parse_csv(run_cli(["scan", "--field", "bell1-m30", "--dim", "40", *window],
                                capsys)[1])
    assert len(rows) == len(wide) == 40
    for row, ref in zip(rows, wide):
        assert row.keys() == ref.keys()
        assert max(abs(row[k] - ref[k]) for k in row) <= 1e-15
    code, out, err = run_cli(["scan", "--field", "bell1-m30", "--dim", "32", *window], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "dim 32 too small" in err


def test_scan_overflowing_recipes(capsys):
    code, out, err = run_cli(["scan", "--field", "even-coherent:1e200", "--gt-max", "1"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "overflows" in err
    # finite coefficients whose norm overflows give the rescaled field, with no warning
    args = ["--dim", "8", "--gt-max", "3", "--steps", "7"]
    code, big, err = run_cli(["scan", "--field", "1:1e200,0;3:1e200,0", *args], capsys)
    assert (code, err) == (0, "")
    assert big == run_cli(["scan", "--field", "1:1,0;3:1,0", *args], capsys)[1]


def test_scan_underflowing_recipes(capsys):
    args = ["--dim", "8", "--gt-max", "3", "--steps", "7"]
    for tiny, unit in (("1:1e-170,0", "1:1,0"), ("1:1e-170,0;3:0,1e-170", "1:1,0;3:0,1")):
        code, out, err = run_cli(["scan", "--field", tiny, *args], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(["scan", "--field", unit, *args], capsys)[1]


def test_scan_of_a_cat_whose_alpha_squared_underflows(capsys):
    # |alpha|^2 = 0 in floats: the even cat is the vacuum
    args = ["--gt-max", "1", "--steps", "2"]
    code, out, err = run_cli(["scan", "--field", "even-coherent:1e-200", *args], capsys)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert header[0] == "gt" and len(rows) == 2
    assert out == run_cli(["scan", "--field", "vacuum", *args], capsys)[1]


@pytest.mark.parametrize("recipe", ["0:nan,0", "even-coherent:nan"])
def test_scan_nan_recipe_exits_2(recipe, capsys):
    code, _, err = run_cli(["scan", "--field", recipe, "--gt-max", "1"], capsys)
    assert code == 2
    assert "invalid field recipe" in err
    assert "Traceback" not in err


def test_scan_nonfinite_window_exits_2(capsys):
    code, _, err = run_cli(["scan", "--field", "vacuum", "--gt-max", "inf",
                            "--steps", "3"], capsys)
    assert code == 2
    assert err.strip() == "error: --gt-min and --gt-max must be finite"


@pytest.mark.parametrize("argv, message", [
    (["--field", "vacuum", "--gt-min=-1e308", "--gt-max=1e308", "--steps", "3"],
     "--gt-max - --gt-min overflows"),
    (["--field", "bell1-m30", "--gt-max", "1e308", "--steps", "2"],
     "the window [0, 1e+308] overflows gt sqrt(C) on the field's top manifold N = 32"),
], ids=["width", "phase"])
def test_scan_overflowing_window_exits_2(argv, message, capsys):
    # gt sqrt(C) at the top manifold N = 32 is 1e308 sqrt(126), past the largest float
    code, out, err = run_cli(["scan", *argv], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == f"error: {message}"


def test_scan_density_requires_json(capsys):
    code, _, err = run_cli(["scan", "--field", "vacuum", "--gt-max", "1",
                            "--outputs", "density"], capsys)
    assert code == 2


def test_scan_fidelity_needs_target(capsys):
    # the vacuum preset carries no natural target
    code, _, err = run_cli(["scan", "--field", "vacuum", "--gt-max", "1",
                            "--outputs", "fidelity"], capsys)
    assert code == 2
    assert "target" in err


def test_plan_bell1(capsys):
    code, out, _ = run_cli(["plan", "bell1", "--m", "30", "--phi", "pi"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gt"][0] == pytest.approx(8.6738, abs=1e-3)
    assert data["verification"]["passed"] is True
    assert data["verification"]["fidelity"] >= 0.999


def test_plan_bell1_at_a_huge_phase_passes(capsys):
    code, out, _ = run_cli(["plan", "bell1", "--m", "30", "--phi", "1e16"], capsys)
    assert code == 0
    assert json.loads(out)["verification"]["fidelity"] >= 0.999

@pytest.mark.parametrize("args, message", [
    (["--m", "0"], "m must be >= 1"),
])
def test_plan_bell1_bad_parameters_exit_2(args, message, capsys):
    code, out, err = run_cli(["plan", "bell1", *args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["plan", "bell1", "--m", "30", "--phi", "pi/0"],
    ["plan", "bell1", "--m", "30", "--phi", "inf"],
    *(["scan", "--field", "single-photon", "--gt-max", "1", "--steps", "3",
       "--outputs", "fidelity", "--target", t]
      for t in ("bell1:pi/0", "bell1:inf", "werner:2", "werner:abc", "bell2:xyz")),
], ids=lambda args: args[-1])
def test_bad_phase_or_target_exits_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def assert_one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


COMMANDS = {
    "scan": ["scan", "--field", "vacuum", "--dim", "8", "--gt-max", "1", "--steps", "3"],
    "plan": ["plan", "bell2"],
    "validate": ["validate", "--dim", "40", "--trials", "1"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli([*COMMANDS[command], "--out", str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.startswith(f"error: cannot write --out {str(path)!r}: ")
    assert not path.parent.exists()


class FailingHandle(io.StringIO):
    """An --out file on a full device: its write or its closing flush raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def close(self):
        super().close()
        if self.failing == "close":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "close"])
@pytest.mark.parametrize("command", COMMANDS)
def test_failed_write_or_close_on_out_exits_2(command, failing, monkeypatch, capsys):
    # `--out /dev/full`: the open succeeds, then a write or the closing flush fails
    monkeypatch.setattr(cli, "open", lambda path, mode: FailingHandle(failing), raising=False)
    code, out, err = run_cli([*COMMANDS[command], "--out", "full.txt"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == "error: cannot write --out 'full.txt': No space left on device\n"


@pytest.mark.parametrize("argv, named", [
    (["scan", "--field", "nonsense", "--gt-max", "1"], "'nonsense'"),
    (["plan", "bell2", "--tol", "nan"], "--tol"),
    (["validate", "--trials", "0"], "--trials"),
    (["validate", "--dim", "40", "--trials", "1", "--seed", "-1"], "--seed"),
    (["plan", "bell1", "--m", "30", "--dim", str(10**30)], "--dim"),   # plan takes no --dim
], ids=["scan-field", "plan-tol", "validate-trials", "validate-seed", "plan-dim"])
def test_usage_error_leaves_an_existing_out_untouched(argv, named, tmp_path, capsys):
    path = tmp_path / "kept.txt"
    path.write_bytes(b"earlier output\n")
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert named in err
    assert path.read_bytes() == b"earlier output\n"


NUMPY_REFUSAL = ("Unable to allocate 1.46 TiB for an array with shape (100000000000,) "
                 "and data type complex128")


@pytest.mark.parametrize("argv, message", [
    (["plan", "bell1", "--m", "30"], NUMPY_REFUSAL),
    (["scan", "--field", "vacuum", "--gt-max", "1"], NUMPY_REFUSAL),
    (["validate", "--trials", "1"], NUMPY_REFUSAL),
    (["plan", "bell1", "--m", "30"], ""),
], ids=["plan", "scan", "validate", "bare-memory-error"])
def test_unallocatable_field_exits_2(argv, message, monkeypatch, tmp_path, capsys):
    # numpy raises MemoryError for a --m or field level past the host's memory; the
    # sizes here stay small and the field constructor refuses instead, since a
    # host that overcommits would grant a real terabyte request and then kill the run
    def refuse(self):
        raise MemoryError(message)

    monkeypatch.setattr(FieldState, "__post_init__", refuse)
    path = tmp_path / "kept.txt"
    path.write_bytes(b"earlier output\n")
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message or 'out of memory'}\n"
    assert path.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("argv, lines_read", [
    (["scan", "--field", "single-photon", "--gt-max", "1", "--steps", "200000",
      "--outputs", "concurrence"], 2),
    (["plan", "bell2"], 0),
], ids=["scan-head", "plan-closed-at-once"])
def test_reader_closing_stdout_exits_2_with_one_line(argv, lines_read):
    # `... | head -2`: a closed stdout is an unwritable output, with neither a
    # traceback nor the interpreter's "Exception ignored" line at exit
    src = str(Path(__file__).resolve().parent.parent / "src")
    with subprocess.Popen([sys.executable, "-m", "tcqubits", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write to stdout: Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["plan", "bell2"],
    ["scan", "--field", "vacuum", "--dim", "8", "--gt-max", "1", "--steps", "3"],
], ids=["plan", "scan"])
def test_closed_stdout_exits_2_with_one_line(argv):
    # `tcqubits plan bell2 >&-`: Python sets sys.stdout to None without descriptor 1
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "tcqubits", *argv],
                          env=dict(os.environ, PYTHONPATH=src), preexec_fn=lambda: os.close(1),
                          stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: Bad file descriptor\n"


def test_a_huge_dim_allocates_no_field_in_validate_or_scan():
    # --dim bounds the levels, it does not allocate them: under a 512 MiB address-space
    # limit on the child alone, dim 10^8 (1.49 GiB per dense field) prints what a small
    # dim prints. One BLAS thread keeps the interpreter's reservation off the core count.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    limit = 512 << 20

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "tcqubits", *argv], env=env, capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc.stdout

    validate = ["validate", "--trials", "1"]
    huge, small = run(*validate, "--dim", "100000000"), run(*validate, "--dim", "128")
    assert huge == small.replace(" dim=128 ", " dim=100000000 ")
    scan = ["scan", "--field", "bell1-m30", "--gt-max", "1", "--steps", "3"]
    assert run(*scan, "--dim", "100000000") == run(*scan, "--dim", "40")
    cat = ["scan", "--field", "even-coherent:2", "--gt-max", "1", "--steps", "3"]
    assert run(*cat, "--dim", "100000000") == run(*cat, "--dim", "64")


def test_plan_bell2(capsys):
    code, out, _ = run_cli(["plan", "bell2", "--l", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gt"][0] == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-12)
    assert data["verification"]["max_element_dev"] <= 1e-9


def test_plan_bell2_even_l_exits_2(capsys):
    code, _, err = run_cli(["plan", "bell2", "--l", "2"], capsys)
    assert code == 2
    assert "odd" in err


@pytest.mark.parametrize("l", [10**308 + 1, 10**400 + 1], ids=["gt2-overflows", "l-overflows"])
def test_plan_bell2_huge_odd_l_exits_2_with_one_line(l, capsys):
    # the first made gt2 = inf for verification, the second overflowed int -> float
    code, out, err = run_cli(["plan", "bell2", "--l", str(l)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == "error: l is too large: gt2 = l*pi/(2*sqrt(2)) is not a finite float"


def test_plan_werner(capsys):
    code, out, _ = run_cli(["plan", "werner"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["params"]["c0_sq"] == pytest.approx(0.274, abs=5e-4)
    assert data["params"]["c10_sq"] == pytest.approx(0.726, abs=5e-4)
    assert data["gt"][0] == pytest.approx(0.314, abs=1e-3)
    assert data["verification"]["passed"] is True


def test_plan_werner_builds_its_field_once(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return superpose(*args, **kwargs)

    monkeypatch.setattr("tcqubits.protocols.superpose", counted)
    assert run_cli(["plan", "werner"], capsys)[0] == 0
    assert len(calls) == 1


def test_plan_werner_infeasible_exits_2(capsys):
    code, _, err = run_cli(["plan", "werner", "--v-plus", "0.5", "--w", "0.25"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", [["plan", "bell2"], ["validate", "--dim", "16"]])
def test_nonfinite_tol_exits_2(command, capsys):
    code, out, err = run_cli([*command, "--tol", "nan"], capsys)
    assert code == 2
    assert out == ""
    assert err.strip() == "error: --tol must be finite"


@pytest.mark.parametrize("command", [["plan", "bell1", "--m", "30"],
                                     ["validate", "--dim", "40", "--trials", "1"]],
                         ids=["plan", "validate"])
def test_negative_tol_exits_2(command, capsys):
    # no result can pass a negative tolerance: a usage error, not a failed verification
    code, out, err = run_cli([*command, "--tol", "-1"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == "error: --tol must be >= 0"
    assert run_cli([*command, "--tol", "0"], capsys)[0] in (0, 1)


@pytest.mark.parametrize("value, message", [("-1e-3", "must be >= 0"), ("-1E+2", "must be >= 0"),
                                            ("-inf", "must be finite")])
def test_negative_exponent_forms_reach_the_tol_checks(value, message, capsys):
    # argparse alone takes only '-1' and '-.5' forms as values
    code, out, err = run_cli(["plan", "bell2", "--tol", value], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == f"error: --tol {message}"


def test_negative_pi_phase_follows_its_flag(capsys):
    code, out, err = run_cli(["plan", "bell1", "--m", "30", "--phi", "-pi/2"], capsys)
    assert (code, err) == (0, "")
    assert out == run_cli(["plan", "bell1", "--m", "30", "--phi=-pi/2"], capsys)[1]


def test_scan_takes_a_negative_exponent_window(capsys):
    code, out, err = run_cli(["scan", "--field", "vacuum", "--gt-min", "-1e-3", "--gt-max", "1",
                              "--steps", "2"], capsys)
    assert (code, err) == (0, "")
    assert [row["gt"] for row in parse_csv(out)[1]] == [-1e-3, 1.0]


@pytest.mark.parametrize("gt_min, gt_max, steps", [
    (0.0, 6.0, SCAN_CHUNK + 3), (-1e-3, 1.0, 2), (8.123456789, 11.0000001, 2 * SCAN_CHUNK + 1),
    (0.0, 5e-324, 3), (0.0, 5e-324, 5), (-2.5e-320, 1e-320, 7),
], ids=["chunk-boundary", "two-points", "three-chunks", "subnormal", "step-underflows",
        "subnormal-negative"])
def test_scan_grid_is_linspace_bit_for_bit(gt_min, gt_max, steps, capsys):
    # at (0, 5e-324, 5) the step itself underflows to 0: the grid scales index / div instead
    code, out, _ = run_cli(["scan", "--field", "vacuum", "--gt-min", repr(gt_min),
                            "--gt-max", repr(gt_max), "--steps", str(steps),
                            "--outputs", "concurrence"], capsys)
    assert code == 0
    grid = np.array([row["gt"] for row in parse_csv(out)[1]])
    assert grid.tobytes() == np.linspace(gt_min, gt_max, steps).tobytes()


def test_scan_builds_its_grid_one_chunk_at_a_time(monkeypatch):
    # 1e11 points would be 800 GB at once; the writer stops the scan after the first chunk
    class Stop(Exception):
        pass

    written = []

    class FirstChunkOnly:
        def write(self, text):
            if len(written) == 2:   # the header, then the first chunk's rows
                raise Stop
            written.append(text)

    monkeypatch.setattr(cli, "_output", lambda path: contextlib.nullcontext(FirstChunkOnly()))
    with pytest.raises(Stop):
        main(["scan", "--field", "vacuum", "--gt-max", "1", "--steps", str(10**11),
              "--outputs", "concurrence"])
    rows = parse_csv("".join(written))[1]
    assert [row["gt"] for row in rows] == (np.arange(SCAN_CHUNK) * (1.0 / (10**11 - 1))).tolist()


def test_plan_werner_infinite_gt_max_exits_2(capsys):
    code, _, err = run_cli(["plan", "werner", "--gt-max", "inf"], capsys)
    assert code == 2
    assert "gt_max must be finite" in err


def test_plan_werner_unbounded_gt_max_exits_2_at_once(time_limit, capsys):
    with time_limit(2.0):
        code, out, err = run_cli(["plan", "werner", "--gt-max", "1e300"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "at most 10000 are listed" in err


def test_plan_werner_gt_max_below_first_time_exits_2(capsys):
    code, out, err = run_cli(["plan", "werner", "--gt-max", "0.1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: no solution time <= gt_max = 0.1")
    assert len(err.strip().splitlines()) == 1


def test_validate_small_run(capsys):
    code, out, err = run_cli(["validate", "--dim", "32", "--trials", "2",
                              "--seed", "7"], capsys)
    assert code == 2  # bell1-m30 preset exceeds dim=32
    assert out == ""  # the presets are resolved before anything is written
    assert "bell1-m30" in err
    code, out, _ = run_cli(["validate", "--dim", "40", "--trials", "2",
                            "--seed", "7"], capsys)
    assert code == 0
    assert "PASS" in out
    # the smallest dim that holds bell1-m30 exactly
    code, out, _ = run_cli(["validate", "--dim", "33", "--trials", "1"], capsys)
    assert code == 0
    assert "PASS" in out


def test_validate_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["validate", "--dim", "40", "--trials", "1", "--seed", "42",
                 "--out", str(out1)]) == 0
    assert main(["validate", "--dim", "40", "--trials", "1", "--seed", "42",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_tiny_dim_exits_2(capsys):
    code, _, err = run_cli(["validate", "--dim", "4", "--trials", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("dim", [9, 12, 32])
def test_validate_names_the_dim_the_presets_need(dim, capsys):
    code, out, err = run_cli(["validate", "--dim", str(dim), "--trials", "1"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == (f"error: --dim {dim} too small for validate: "
                           "the bell1-m30 preset needs dim >= 33")


def test_scan_writes_file(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code = main(["scan", "--field", "vacuum", "--dim", "8", "--gt-max", "1.0",
                 "--steps", "3", "--out", str(path)])
    assert code == 0
    header, rows = parse_csv(path.read_text())
    assert header[0] == "gt" and len(rows) == 3
    # the vacuum never entangles
    assert all(r["v_minus"] == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_validate_dim_2048_in_process(capsys):
    # the per-manifold oracle keeps this small; a dense one needs an 8192^2 matrix
    code, out, _ = run_cli(["validate", "--dim", "2048", "--trials", "1"], capsys)
    assert code == 0
    assert "PASS" in out


def recorded_stacks(monkeypatch):
    """Monkeypatch cli.compare_paths to record the fields each call stacks."""
    stacks = []
    compare = cli.compare_paths

    def recording(fields, gt):
        fields = list(fields)
        stacks.append(fields)
        return compare(fields, gt)

    monkeypatch.setattr(cli, "compare_paths", recording)
    return stacks


def test_validate_keeps_every_stack_under_the_entry_cap(monkeypatch, capsys):
    # a stack holds (F, T, 4, width) entries, width its widest field's held levels
    # (40 random ones here), so dim sizes no stack
    stacks = recorded_stacks(monkeypatch)
    for trials, sizes in ((50, [53]), (600, [234, 234, 135])):
        stacks.clear()
        code, out, _ = run_cli(["validate", "--dim", "2048", "--trials", str(trials)], capsys)
        assert code == 0 and "PASS" in out
        assert [len(fields) for fields in stacks] == sizes
        for fields in stacks:
            width = max(f.amplitudes.size for f in fields)
            entries = len(fields) * len(cli.VALIDATE_GT_GRID) * 4 * width
            assert entries <= cli.VALIDATE_STACK_ENTRIES


@pytest.mark.parametrize("dim, trials", [(64, 100), (33, 1), (128, 1), (1200, 2)])
def test_validate_compares_trials_and_presets_in_one_call(dim, trials, monkeypatch, capsys):
    # the README and CI commands and the benchmark's: one stack each, and no
    # fidelity target built, since validate compares the two routes only
    stacks = recorded_stacks(monkeypatch)
    targets = []
    made = TargetState.__post_init__
    monkeypatch.setattr(TargetState, "__post_init__", lambda t: targets.append(t) or made(t))
    code, out, _ = run_cli(["validate", "--dim", str(dim), "--trials", str(trials)], capsys)
    assert code == 0 and "PASS" in out
    assert [len(fields) for fields in stacks] == [trials + 3]
    assert targets == []


def test_repeated_calls_print_what_a_fresh_process_prints(capsys):
    # main reuses one parser; a default or value left over from an earlier
    # call must not change a later one
    calls = [
        ["plan", "bell1", "--m", "12", "--phi", "pi", "--tol", "0.5"],
        ["scan", "--field", "single-photon", "--gt-max", "3", "--steps", "4",
         "--outputs", "concurrence", "--dim", "8"],
        ["validate", "--dim", "40", "--trials", "1", "--tol", "1e-20"],
        ["plan", "bell1", "--m", "8"],
        ["scan", "--field", "vacuum", "--gt-max", "1", "--steps", "3"],
        ["validate", "--dim", "40", "--trials", "1"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        code, out, _ = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "tcqubits", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


@pytest.mark.parametrize("argv", [
    ["scan", "--gt-max", "1"],
    ["scan", "--field", "vacuum", "--gt-max", "x"],
    ["scan", "--field", "vacuum", "--gt-max", "1", "--format", "xml"],
    ["frobnicate"],
    ["plan"],
], ids=["missing-field", "bad-float", "bad-choice", "unknown-command", "no-protocol"])
def test_argparse_errors_are_one_line_usage_errors(argv, capsys):
    # returned, not raised as SystemExit, and with no usage block
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err)


SCAN_VACUUM = ["scan", "--field", "vacuum", "--dim", "8"]


@pytest.mark.parametrize("argv, message", [
    (SCAN_VACUUM + ["--gt-min", "2", "--gt-max", "1"], "--gt-min must be smaller than --gt-max"),
    (SCAN_VACUUM + ["--gt-max", "1", "--steps", "1"], "--steps must be >= 2"),
    (SCAN_VACUUM + ["--gt-max", "1", "--outputs", "elements,bogus"], "unknown outputs ['bogus']"),
    (["plan", "bell1", "--m", "30", "--phi", "pi3"], "cannot parse phase 'pi3'"),
    (["scan", "--field", "even-coherent:40", "--dim", "10", "--gt-max", "1", "--steps", "2"],
     "invalid field recipe 'even-coherent:40': "
     "truncation too small: tail mass 1.000e+00 exceeds 1e-10"),
    (["scan", "--field", "0:1,0", "--dim", "-3", "--gt-max", "1", "--steps", "2"],
     "invalid field recipe '0:1,0': dim must be >= 1"),
    (["scan", "--field", "bell1-m30", "--dim", "20", "--gt-max", "1"],
     "invalid field recipe 'bell1-m30': dim 20 too small for support at m+2"),
    # past numpy's array size limit, whose own message names no level
    (["plan", "bell1", "--m", str(10**33)], f"photon number {10**33 + 2} is too large to allocate"),
    (["scan", "--field", f"{10**33}:1,0", "--dim", str(10**34), "--gt-max", "1"],
     f"invalid field recipe '{10**33}:1,0': photon number {10**33} is too large to allocate"),
], ids=["window", "steps", "outputs", "phase", "underflowing-cat", "negative-dim", "bell1-dim",
        "huge-m", "huge-level"])
def test_scan_and_phase_checks_exit_2_with_their_message(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.strip() == f"error: {message}"


def test_every_preset_is_listed_and_builds(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")   # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:   # help still prints and exits 0
        main(["scan", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    code, _, err = run_cli(["scan", "--field", "nonsense", "--gt-max", "1"], capsys)
    assert code == 2
    for name in [*cli.PRESETS, "even-coherent[:alpha]"]:
        assert name in help_text and name in err, name
    for name in cli.PRESETS:
        fld, tgt = build_field(name, 48)
        assert fld.dim == 48 >= fld.amplitudes.size, name   # plan's JSON pads to dim levels
        if name == "vacuum":
            assert tgt is None
            continue
        plan = cli.PRESETS[name](48)   # a protocol preset is its plan's field and target
        assert np.array_equal(fld.amplitudes, plan.field.amplitudes), name
        assert np.array_equal(tgt.matrix, plan.target.matrix), name
        assert np.array_equal(tgt.vector, plan.target.vector), name


def test_bell1_m40_preset_is_the_planned_field_and_reaches_its_target(capsys):
    fld, tgt = build_field("bell1-m40", 48)
    plan = cli.bell1_plan(40, 0.0, dim=48)
    assert np.array_equal(fld.amplitudes, plan.field.amplitudes)
    assert np.array_equal(tgt.vector, target("bell1", phi=0.0).vector)
    code, out, _ = run_cli(["scan", "--field", "bell1-m40", "--dim", "48",
                            "--gt-min", str(plan.gt1 - 0.05), "--gt-max", str(plan.gt1 + 0.05),
                            "--steps", "201", "--outputs", "fidelity"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert max(r["fidelity"] for r in rows) >= 1.0 - 1e-3
