"""Brute-force ground truth: exponentiate the interaction Hamiltonian numerically.

This module exists to arbitrate every closed-form expression elsewhere in
the package. The Hamiltonian couples each qubit to the field mode through
photon exchange (coupling normalized to g = 1) and conserves the
excitation number N = photons + excited qubits (Tavis & Cummings, Phys.
Rev. 170, 379 (1968)). It is therefore block-diagonal: manifold N spans
{ee,N-2; eg,N-1; ge,N-1; gg,N}, one real symmetric 4x4 block per N.
Evolution is the exact spectral exponential exp(-i gt H) of each block,
no series truncation. Agreement with the closed-form propagator on full
joint states is the package's central correctness check. The dense
`build_hamiltonian` is kept as the tests' arbiter of the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FieldState
from .propagator import (BASIS, EE, EG, GE, GG, QUBIT_EXC, JointState, apply_propagator,
                         evolve_with)
from .reduced import analytic_elements, assemble_density, partial_trace


def build_hamiltonian(dim: int) -> np.ndarray:
    """Dense interaction Hamiltonian on the 4*dim joint space (g = 1).

    Photon-exchange couplings with exact sqrt factors, summed over both
    qubits; real symmetric by construction (lowering terms plus their
    transpose). No evolution uses it: it is the tests' entry-by-entry
    arbiter of the per-manifold blocks that evolve_oracle exponentiates.
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


def _manifold_blocks(dim: int) -> np.ndarray:
    """The Hamiltonian as a (dim + 2, 4, 4) stack: block N acts on manifold N (g = 1).

    Slot k (in BASIS order) holds photon number N - QUBIT_EXC[k].
    ee,N-2 couples to eg,N-1 and ge,N-1 with sqrt(N-1); those couple to
    gg,N with sqrt(N). At the truncation's edges (N < 2, N > dim - 1) a
    slot whose photon number lies outside 0..dim-1 does not exist: its
    row and column stay zero. Its amplitude is zero and stays zero, and
    where its zero eigenvalue mixes with the dark singlet, exp(-i gt 0)
    is the identity anyway.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    N = np.arange(dim + 2, dtype=float)
    exists = [(N - exc >= 0) & (N - exc <= dim - 1) for exc in QUBIT_EXC]
    upper = np.where(exists[EE] & exists[EG], np.sqrt(np.maximum(N - 1.0, 0.0)), 0.0)
    lower = np.where(exists[EG] & exists[GG], np.sqrt(N), 0.0)
    blocks = np.zeros((dim + 2, 4, 4))
    for label in (EG, GE):
        blocks[:, EE, label] = blocks[:, label, EE] = upper
        blocks[:, GG, label] = blocks[:, label, GG] = lower
    return blocks


# only the last dim's eigendecomposition stays cached, shared read-only
@lru_cache(maxsize=1)
def _decomposition(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_manifold_blocks(dim))


def _evolve_blocks(branches: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """exp(-i gt H) on raw (4, dim) branches at T times, manifold by manifold: (T, 4, dim)."""
    dim = branches.shape[1]
    evals, evecs = _decomposition(dim)
    amp = np.zeros((dim + 2, 4), dtype=complex)   # amp[N, k]: slot k of manifold N
    for k, exc in enumerate(QUBIT_EXC):
        amp[exc:exc + dim, k] = branches[k]
    # row-vector products per manifold: amp V = (V^T amp)^T, then (phase V^T amp) V^T
    coeff = (amp[:, None, :] @ evecs)[:, 0]
    phased = np.exp(-1j * gts[:, None, None] * evals) * coeff
    out = (phased[..., None, :] @ evecs.swapaxes(-1, -2))[..., 0, :]
    return np.stack([out[:, exc:exc + dim, k] for k, exc in enumerate(QUBIT_EXC)], axis=1)


def evolve_oracle(state: JointState, gt) -> JointState:
    """exp(-i gt H) applied through the cached per-manifold spectral decomposition.

    gt is a scalar (one JointState) or a 1-D vector of T times (a
    (T, 4, dim) stack), with the same checks as apply_propagator.
    """
    return evolve_with(_evolve_blocks, state, gt)


@dataclass(frozen=True)
class PathComparison:
    """Deviations between the closed-form route and the brute-force route.

    For a batch over T times every field holds one entry per time:
    length-T arrays, and a tuple of T label pairs for density_argmax.
    """

    max_density_dev: float
    density_argmax: tuple
    max_joint_dev: float
    gt: float


def compare_paths(field: FieldState, gt) -> PathComparison:
    """Evolve |gg> (x) field both ways and report the worst disagreement.

    gt is a scalar or a 1-D vector of T times; both routes evaluate the
    whole vector in one call each.
    """
    joint0 = JointState.from_field(field, "gg")
    evolved = apply_propagator(joint0, gt)
    brute = evolve_oracle(joint0, gt)

    joint_dev = np.max(np.abs(evolved.branches - brute.branches), axis=(-2, -1))
    rho_analytic = assemble_density(analytic_elements(field, gt))
    rho_brute = partial_trace(brute)
    diff = np.abs(rho_analytic - rho_brute).reshape(np.shape(gt) + (16,))
    density_dev = np.max(diff, axis=-1)
    argmax = tuple((BASIS[k // 4], BASIS[k % 4]) for k in np.argmax(diff, axis=-1).reshape(-1))
    if np.ndim(gt) == 0:
        return PathComparison(max_density_dev=float(density_dev), density_argmax=argmax[0],
                              max_joint_dev=float(joint_dev), gt=float(gt))
    return PathComparison(max_density_dev=density_dev, density_argmax=argmax,
                          max_joint_dev=joint_dev, gt=np.asarray(gt, dtype=float))
