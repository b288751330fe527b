"""The package's public surface: every exported name resolves, and removed API stays gone."""

import dataclasses
import importlib
import inspect

import tcqubits
from tcqubits import propagator

MODULES = ("fock", "propagator", "reduced", "entanglement", "oracle", "protocols", "cli")

#: names removed because only tests used them and none of them is a cross-check,
#: or because their one caller no longer needs them (ScanSpec, BLOCK_ENTRIES), or
#: because the JSON report schema lives in cli alone (the JSON encoders)
DELETED_NAMES = ("propagator_matrix", "excitation_operator", "NegativeBranchSearch",
                 "density_from_json", "DEFAULT_TOLERANCES", "_parser", "ScanSpec",
                 "BLOCK_ENTRIES", "eof", "werner_eta_from_k", "neighbor_product_zero",
                 "bell1_conditions_residual", "bell1_vector", "bell2_vector", "_classify_root",
                 "_json_complex", "_plan_json", "density_to_json")
DELETED_MEMBERS = (("FieldState", "from_json"), ("FieldState", "norm"),
                   ("PathComparison", "to_json"), ("FieldState", "has_headroom"),
                   ("XStateElements", "p"), ("FieldState", "to_json"),
                   ("XStateElements", "to_json"), ("Bell1Plan", "to_json"),
                   ("Bell2Plan", "to_json"), ("WernerPlan", "to_json"),
                   ("VerificationReport", "to_json"))
#: dataclass fields removed because no caller read them, or because their value is
#: constant or derivable and the plan's params write it instead (unique_m, degenerate, period),
#: or because it is a theorem (NegativeBranchRoot.feasible is always False), or because it is
#: derived from the other fields (NegativeBranchRoot.reason, a property of (c_m_sq, m)),
#: or because it is the same for every instance (Bell2Plan.predicted, a class constant)
DELETED_FIELDS = (("Bell2Plan", "predicted_w"), ("Bell2Plan", "predicted"),
                  ("PathComparison", "density_argmax"),
                  ("PathComparison", "gt"), ("Bell2Plan", "unique_m"),
                  ("WernerPlan", "degenerate"), ("WernerPlan", "period"),
                  ("TargetState", "kind"), ("TargetState", "parameter"),
                  ("NegativeBranchRoot", "feasible"), ("NegativeBranchRoot", "reason"))


def test_every_exported_name_resolves_once():
    assert len(tcqubits.__all__) == len(set(tcqubits.__all__))
    assert [name for name in tcqubits.__all__ if not hasattr(tcqubits, name)] == []


def test_removed_api_is_not_importable():
    for module in (tcqubits,) + tuple(importlib.import_module(f"tcqubits.{m}") for m in MODULES):
        assert [name for name in DELETED_NAMES if hasattr(module, name)] == [], module.__name__
    assert not set(DELETED_NAMES) & set(tcqubits.__all__)
    for cls, member in DELETED_MEMBERS:
        assert not hasattr(getattr(tcqubits, cls), member), f"{cls}.{member}"
    for cls, field in DELETED_FIELDS:
        assert field not in {f.name for f in dataclasses.fields(getattr(tcqubits, cls))}
    # the truncation rule and its tolerance live in propagator alone
    assert [m for m in MODULES
            if hasattr(importlib.import_module(f"tcqubits.{m}"), "HEADROOM_TOL")] == ["propagator"]


def test_fixed_tolerances_take_no_argument():
    # every caller used the module constant, so none of these is settable
    checks = (propagator.ensure_headroom, tcqubits.XStateElements.validate,
              tcqubits.check_density)
    assert [f.__name__ for f in checks if "tol" in inspect.signature(f).parameters] == []


def test_array_holding_states_and_plans_compare_and_hash():
    field = tcqubits.number_state(1, 8)
    objects = (field, tcqubits.JointState.from_field(field), tcqubits.target("bell2"),
               tcqubits.target("werner", eta=1.0), tcqubits.bell1_plan(30, 0.0),
               tcqubits.bell2_plan(1))
    for obj in objects:
        assert obj == obj
        hash(obj)
    assert tcqubits.target("bell2") != tcqubits.target("bell2")
