"""Exact interaction-picture evolution of two resonant qubits coupled to one field mode.

The joint state lives on four branches labeled by the qubit pair
(ee, eg, ge, gg), each a vector over photon number. The evolution
operator is applied per number state: the operator-valued entries are
functions of the number operator composed with ladder operators, so a
branch amplitude at n maps to amplitudes at n-2..n+2 with closed-form
trigonometric coefficients. Time enters only through the dimensionless
product gt (coupling strength x time); negative gt runs the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import HEADROOM_TOL, FieldState

BASIS = ("ee", "eg", "ge", "gg")
EE, EG, GE, GG = 0, 1, 2, 3

JOINT_NORM_TOL = 1e-10


class HeadroomError(ValueError):
    """Raised when a state carries amplitude on the top two Fock levels."""


@dataclass(frozen=True)
class JointState:
    """Qubit-pair x field state: branches[k] is the field vector for BASIS[k]."""

    branches: np.ndarray

    def __post_init__(self):
        br = np.asarray(self.branches, dtype=complex)
        if br.ndim != 2 or br.shape[0] != 4 or br.shape[1] < 1:
            raise ValueError("branches must have shape (4, dim)")
        norm = np.linalg.norm(br)
        if not abs(norm - 1.0) <= JOINT_NORM_TOL:
            raise ValueError(f"joint state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        br.flags.writeable = False
        object.__setattr__(self, "branches", br)

    @property
    def dim(self) -> int:
        return self.branches.shape[1]

    @classmethod
    def from_field(cls, field: FieldState, qubits: str = "gg") -> "JointState":
        """Product state |qubits> (x) |field>."""
        if qubits not in BASIS:
            raise ValueError(f"qubit label must be one of {BASIS}")
        br = np.zeros((4, field.dim), dtype=complex)
        br[BASIS.index(qubits)] = field.amplitudes
        return cls(br)

    def excitation_number(self) -> float:
        """Expectation of photon number plus number of excited qubits."""
        n = np.arange(self.dim)
        qubit_exc = (2, 1, 1, 0)
        return float(sum((qubit_exc[k] + n) @ (np.abs(self.branches[k]) ** 2) for k in range(4)))


def abc(n, gt):
    """Trig building blocks (A, B, C) at photon number n.

    C(n) = 2(2n+1), A = cos(gt sqrt(C)), B = sin(gt sqrt(C)). n and gt
    may be scalars or broadcastable arrays (A and B take their broadcast
    shape, C the shape of n); all-scalar input returns floats. n must be
    >= 0 (C would go negative otherwise, putting an imaginary argument
    under the cosine).
    """
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise ValueError("abc requires n >= 0; callers guard the n-1 terms themselves")
    if not np.isfinite(gt).all():
        raise ValueError("gt must be finite")
    C = 2.0 * (2.0 * n_arr + 1.0)
    arg = gt * np.sqrt(C)
    if arg.ndim == 0:
        return float(np.cos(arg)), float(np.sin(arg)), float(C)
    return np.cos(arg), np.sin(arg), C


def ensure_headroom(branches: np.ndarray, tol: float = HEADROOM_TOL) -> None:
    dim = branches.shape[-1]
    if dim < 3:
        raise HeadroomError(f"dim {dim} leaves no headroom (need dim >= 3)")
    top = np.max(np.abs(branches[..., dim - 2:]))
    if top > tol:
        raise HeadroomError(
            f"amplitude {top:.3e} on the top two Fock levels exceeds {tol:.1e}; "
            "the evolution raises n by up to 2 and would leak out of the truncation"
        )


def _apply_raw(branches: np.ndarray, gt: float) -> np.ndarray:
    """Evolution operator action on raw (4, dim) branch arrays, no guards."""
    dim = branches.shape[1]
    n = np.arange(dim, dtype=float)
    ee, eg, ge, gg = branches

    A0, B0, C0 = abc(n, gt)       # argument n
    Ap, Bp, Cp = abc(n + 1, gt)   # argument n+1
    # Argument n-1 appears only in terms carrying an explicit factor of n
    # (or sqrt(n(n-1))), which vanish at n = 0, so C(-1) is never touched.
    n_shift = np.where(n >= 1, n - 1, 0.0)
    Am, Bm, Cm = abc(n_shift, gt)
    has_n = n >= 1

    out = np.zeros_like(branches)

    # row ee
    d11 = 1.0 + 2.0 * (Ap - 1.0) / Cp * (n + 1.0)
    out[EE] += d11 * ee
    coef_a_ee = -1j * Bp / np.sqrt(Cp) * np.sqrt(n + 1.0)   # annihilator into ee
    out[EE][:-1] += coef_a_ee[:-1] * (eg[1:] + ge[1:])
    coef_aa = 2.0 * (Ap - 1.0) / Cp * np.sqrt((n + 1.0) * (n + 2.0))
    out[EE][:-2] += coef_aa[:-2] * gg[2:]

    # rows eg / ge (identical coefficients; the two branches swap roles)
    coef_c_mid = -1j * B0 / np.sqrt(C0) * np.sqrt(n)        # creator from ee
    out[EG][1:] += coef_c_mid[1:] * ee[:-1]
    out[GE][1:] += coef_c_mid[1:] * ee[:-1]
    d_same = (A0 + 1.0) / 2.0
    d_swap = (A0 - 1.0) / 2.0
    out[EG] += d_same * eg + d_swap * ge
    out[GE] += d_swap * eg + d_same * ge
    coef_a_mid = -1j * B0 / np.sqrt(C0) * np.sqrt(n + 1.0)  # annihilator from gg
    out[EG][:-1] += coef_a_mid[:-1] * gg[1:]
    out[GE][:-1] += coef_a_mid[:-1] * gg[1:]

    # row gg
    coef_cc = np.where(n >= 2, 2.0 * (Am - 1.0) / Cm * np.sqrt(n * n_shift), 0.0)
    out[GG][2:] += coef_cc[2:] * ee[:-2]
    coef_c_gg = np.where(has_n, -1j * Bm / np.sqrt(Cm) * np.sqrt(n), 0.0)
    out[GG][1:] += coef_c_gg[1:] * (eg[:-1] + ge[:-1])
    d44 = np.where(has_n, 1.0 + 2.0 * (Am - 1.0) / Cm * n, 1.0)
    out[GG] += d44 * gg

    return out


def apply_propagator(state: JointState, gt: float) -> JointState:
    """Evolve a joint state by the exact propagator at dimensionless time gt.

    Requires two empty top Fock levels (headroom) so the n-raising terms
    stay inside the truncation; norm is then preserved to 1e-12.
    """
    if not np.isfinite(gt):
        raise ValueError("gt must be finite")
    ensure_headroom(state.branches)
    return JointState(_apply_raw(state.branches, gt))


def propagator_matrix(dim: int, gt: float) -> np.ndarray:
    """Dense evolution matrix on the 4*dim joint space (basis label-major).

    Column ordering matches flattened JointState branches. Unitary only on
    the headroom-respecting subspace n < dim-2; the top columns feel the
    truncation.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    mat = np.zeros((4 * dim, 4 * dim), dtype=complex)
    for col in range(4 * dim):
        basis = np.zeros((4, dim), dtype=complex)
        basis[col // dim, col % dim] = 1.0
        mat[:, col] = _apply_raw(basis, gt).reshape(-1)
    return mat
