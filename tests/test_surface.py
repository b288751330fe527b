"""The package's public surface: every exported name resolves, and removed API stays gone."""

import dataclasses
import importlib

import tcqubits

MODULES = ("fock", "propagator", "reduced", "entanglement", "oracle", "protocols", "cli")

#: names removed because only tests used them and none of them is a cross-check
DELETED_NAMES = ("propagator_matrix", "excitation_operator", "NegativeBranchSearch",
                 "density_from_json", "DEFAULT_TOLERANCES", "_parser")
DELETED_MEMBERS = (("FieldState", "from_json"), ("FieldState", "norm"),
                   ("PathComparison", "to_json"))


def test_every_exported_name_resolves_once():
    assert len(tcqubits.__all__) == len(set(tcqubits.__all__))
    assert [name for name in tcqubits.__all__ if not hasattr(tcqubits, name)] == []


def test_removed_api_is_not_importable():
    for module in (tcqubits,) + tuple(importlib.import_module(f"tcqubits.{m}") for m in MODULES):
        assert [name for name in DELETED_NAMES if hasattr(module, name)] == [], module.__name__
    assert not set(DELETED_NAMES) & set(tcqubits.__all__)
    for cls, member in DELETED_MEMBERS:
        assert not hasattr(getattr(tcqubits, cls), member), f"{cls}.{member}"
    assert "predicted_w" not in {f.name for f in dataclasses.fields(tcqubits.Bell2Plan)}
