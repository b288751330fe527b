"""Brute-force ground truth: exponentiate the interaction Hamiltonian numerically.

This module exists to arbitrate every closed-form expression elsewhere in
the package. The Hamiltonian couples each qubit to the field mode through
photon exchange (coupling normalized to g = 1) and conserves the
excitation number N = photons + excited qubits (Tavis & Cummings, Phys.
Rev. 170, 379 (1968)). It is therefore block-diagonal: manifold N spans
{ee,N-2; eg,N-1; ge,N-1; gg,N}, one real symmetric 4x4 block per N.
Evolution is the exact spectral exponential exp(-i gt H) of each block,
no series truncation, on the levels the state holds. Agreement with the
closed-form propagator on full joint states is the package's central
correctness check. The dense `build_hamiltonian` is kept as the tests'
arbiter of the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FieldState
from .propagator import (EE, EG, GE, GG, QUBIT_EXC, JointState, _slot_manifolds, apply_propagator,
                         evolve_with)
from .reduced import analytic_elements, assemble_density, partial_trace


def build_hamiltonian(dim: int) -> np.ndarray:
    """Dense interaction Hamiltonian on the 4*dim joint space (g = 1).

    Photon-exchange couplings with exact sqrt factors, summed over both
    qubits; real symmetric by construction (lowering terms plus their
    transpose). No evolution uses it: it is the tests' entry-by-entry
    arbiter of the per-manifold blocks that evolve_oracle exponentiates.
    """
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
    """exp(-i gt H) on raw (F, 4, dim) branches at T times, manifold by manifold: (F, T, 4, dim).

    Every manifold 0..dim + 1 is multiplied through its block of the
    decomposition cached at dim. exp(-i gt lambda) is taken once per time
    and manifold, and each block multiplies all F * T rows of its manifold
    in one product, which gives every row the value a stack of one gives it.
    """
    n_states, _, dim = branches.shape
    evals, evecs = _decomposition(dim)
    manifold, slot = _slot_manifolds(dim), np.arange(4)[:, None]
    amp = np.zeros((dim + 2, n_states, 4), dtype=complex)
    amp[manifold, :, slot] = branches.transpose(1, 2, 0)   # slot (k, n) onto its manifold
    # row-vector products per manifold: amp V = (V^T amp)^T, then (phase V^T amp) V^T
    phase = np.exp(-1j * gts[:, None] * evals[:, None])   # (dim + 2, T, 4)
    phased = phase[:, None] * (amp @ evecs)[:, :, None]    # (dim + 2, F, T, 4)
    rows = (phased.reshape(dim + 2, -1, 4) @ evecs.swapaxes(-1, -2)).reshape(phased.shape)
    return rows[manifold, ..., slot].transpose(2, 3, 0, 1)   # (4, dim, F, T) -> (F, T, 4, dim)


def evolve_oracle(state: JointState, gt) -> JointState:
    """exp(-i gt H) applied through the cached per-manifold spectral decomposition.

    Takes a state or a (..., 4, dim) stack and a scalar gt or a 1-D vector
    of T times, with the same shapes and checks as apply_propagator.
    """
    return evolve_with(_evolve_blocks, state, gt)


@dataclass(frozen=True)
class PathComparison:
    """Worst deviations between the closed-form route and the brute-force route.

    Floats for one field at a scalar gt; otherwise arrays with an axis of
    F fields for a stack, then one of T times for a vector of times.
    """

    max_density_dev: float
    max_joint_dev: float


def compare_paths(fields, gt) -> PathComparison:
    """Evolve |gg> (x) field both ways and report the worst disagreement.

    fields is one FieldState or a sequence of F fields on one dim, which
    every route takes as one stack; each field's deviations are bit for
    bit those it has alone. gt is a scalar or a 1-D vector of T times;
    both routes evaluate the times as one vector, and a scalar is a batch
    of one.
    """
    if not isinstance(fields, FieldState):
        fields = tuple(fields)
    times = np.atleast_1d(np.asarray(gt, dtype=float))
    joint0 = JointState.from_field(fields, "gg")
    evolved = apply_propagator(joint0, times)
    brute = evolve_oracle(joint0, times)

    joint_dev = np.max(np.abs(evolved.branches - brute.branches), axis=(-2, -1))
    rho_analytic = assemble_density(analytic_elements(fields, times))
    density_dev = np.max(np.abs(rho_analytic - partial_trace(brute)), axis=(-2, -1))
    if np.ndim(gt) == 0:
        density_dev, joint_dev = density_dev[..., 0], joint_dev[..., 0]
    return PathComparison(*(dev.item() if dev.ndim == 0 else dev
                            for dev in (density_dev, joint_dev)))
