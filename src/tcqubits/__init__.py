"""Exact two-qubit resonant cavity dynamics with optical-field state steering.

The package simulates two identical qubits resonantly coupled to one
quantized field mode, computes the qubits' reduced density matrix both in
closed form and by brute force, and plans/verifies the optical-field
recipes that prepare Bell and Werner states of the pair.
"""

from .fock import FieldState, coherent_state, number_state, superpose
from .propagator import BASIS, HeadroomError, JointState, abc, apply_propagator
from .reduced import (XStateElements, analytic_elements, assemble_density, check_density,
                      is_x_type, partial_trace)
from .entanglement import (TargetState, concurrence, concurrence_wootters, concurrence_x_state,
                           fidelity, singlet_vector, target)
from .oracle import PathComparison, build_hamiltonian, compare_paths, evolve_oracle
from .protocols import (Bell1Plan, Bell2Plan, NegativeBranchRoot, VerificationReport,
                        WernerPlan, bell1_negative_branch_roots, bell1_plan,
                        bell1_purity_factor, bell1_time, bell2_plan, first_concurrence_peak,
                        verify_plan, werner_forward_elements, werner_solve)

__version__ = "0.1.0"

__all__ = [
    "FieldState", "coherent_state", "number_state", "superpose",
    "BASIS", "HeadroomError", "JointState", "abc", "apply_propagator",
    "XStateElements", "analytic_elements", "assemble_density", "check_density",
    "is_x_type", "partial_trace",
    "TargetState", "concurrence", "concurrence_wootters", "concurrence_x_state", "fidelity",
    "singlet_vector", "target",
    "PathComparison", "build_hamiltonian", "compare_paths", "evolve_oracle",
    "Bell1Plan", "Bell2Plan", "NegativeBranchRoot", "VerificationReport", "WernerPlan",
    "bell1_negative_branch_roots", "bell1_plan", "bell1_purity_factor", "bell1_time",
    "bell2_plan", "first_concurrence_peak", "verify_plan", "werner_forward_elements",
    "werner_solve",
]
