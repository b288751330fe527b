"""Brute-force ground truth: build the interaction Hamiltonian and exponentiate it.

This module exists to arbitrate every closed-form expression elsewhere in
the package. The Hamiltonian couples each qubit to the field mode through
photon exchange (coupling normalized to g = 1); evolution is the exact
spectral exponential exp(-i gt H), no series truncation. Agreement with
the closed-form propagator on full joint states is the package's central
correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FieldState
from .propagator import (BASIS, EE, EG, GE, GG, JointState, apply_propagator,
                         ensure_headroom)
from .reduced import analytic_elements, assemble_density, partial_trace


def build_hamiltonian(dim: int) -> np.ndarray:
    """Dense interaction Hamiltonian on the 4*dim joint space (g = 1).

    Photon-exchange couplings with exact sqrt factors, summed over both
    qubits; real symmetric by construction (lowering terms plus their
    transpose).
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    size = 4 * dim
    lower = np.zeros((size, size))

    def idx(label: int, n: int) -> int:
        return label * dim + n

    # photon emission: qubit drops e->g while the field gains a photon
    for n in range(dim - 1):
        amp = np.sqrt(n + 1.0)
        lower[idx(GE, n + 1), idx(EE, n)] += amp   # qubit 1 emits
        lower[idx(GG, n + 1), idx(EG, n)] += amp
        lower[idx(EG, n + 1), idx(EE, n)] += amp   # qubit 2 emits
        lower[idx(GG, n + 1), idx(GE, n)] += amp
    return lower + lower.T


def excitation_operator(dim: int) -> np.ndarray:
    """Diagonal operator counting photons plus excited qubits."""
    n = np.arange(dim, dtype=float)
    qubit_exc = (2.0, 1.0, 1.0, 0.0)
    return np.diag(np.concatenate([qubit_exc[k] + n for k in range(4)]))


# only the last dim's eigendecomposition stays cached, shared read-only
@lru_cache(maxsize=1)
def _decomposition(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(build_hamiltonian(dim))


def evolve_oracle(state: JointState, gt: float) -> JointState:
    """exp(-i gt H) applied through the cached spectral decomposition."""
    if not np.isfinite(gt):
        raise ValueError("gt must be finite")
    ensure_headroom(state.branches)
    evals, evecs = _decomposition(state.dim)
    psi = state.branches.reshape(-1)
    out = _real_matvec(evecs, np.exp(-1j * gt * evals) * _real_matvec(evecs.T, psi))
    return JointState(out.reshape(4, state.dim))


def _real_matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for a real mat and complex vec, without casting mat to complex."""
    parts = mat @ np.stack([vec.real, vec.imag], axis=1)
    return parts[:, 0] + 1j * parts[:, 1]


@dataclass(frozen=True)
class PathComparison:
    """Deviations between the closed-form route and the brute-force route."""

    max_density_dev: float
    density_argmax: tuple[str, str]
    max_joint_dev: float
    gt: float

    def to_json(self) -> dict:
        return {
            "max_density_dev": self.max_density_dev,
            "density_argmax": list(self.density_argmax),
            "max_joint_dev": self.max_joint_dev,
            "gt": self.gt,
        }


def compare_paths(field: FieldState, gt: float) -> PathComparison:
    """Evolve |gg> (x) field both ways and report the worst disagreement."""
    joint0 = JointState.from_field(field, "gg")
    evolved = apply_propagator(joint0, gt)
    brute = evolve_oracle(joint0, gt)

    joint_dev = float(np.max(np.abs(evolved.branches - brute.branches)))
    rho_analytic = assemble_density(analytic_elements(field, gt))
    rho_brute = partial_trace(brute)
    diff = np.abs(rho_analytic - rho_brute)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return PathComparison(
        max_density_dev=float(diff[i, j]),
        density_argmax=(BASIS[i], BASIS[j]),
        max_joint_dev=joint_dev,
        gt=float(gt),
    )
