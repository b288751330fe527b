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
#: excited qubits in each BASIS label
QUBIT_EXC = (2, 1, 1, 0)

JOINT_NORM_TOL = 1e-10


class HeadroomError(ValueError):
    """Raised when a state carries amplitude on the top two Fock levels."""


@dataclass(frozen=True)
class JointState:
    """Qubit-pair x field state: branches[k] is the field vector for BASIS[k].

    branches may also be a (T, 4, dim) stack of T states, one per time of
    a batched evolution; every row must be normalized.
    """

    branches: np.ndarray

    def __post_init__(self):
        br = np.asarray(self.branches, dtype=complex)
        if br.ndim not in (2, 3) or br.shape[-2] != 4 or br.shape[-1] < 1:
            raise ValueError("branches must have shape (4, dim) or (T, 4, dim)")
        norm = np.linalg.norm(br, axis=(-2, -1))
        if not (abs(norm - 1.0) <= JOINT_NORM_TOL).all():
            raise ValueError(
                f"joint state not normalized: |norm - 1| = {np.max(abs(norm - 1.0)):.3e}")
        br.flags.writeable = False
        object.__setattr__(self, "branches", br)

    @property
    def dim(self) -> int:
        return self.branches.shape[-1]

    @classmethod
    def from_field(cls, field: FieldState, qubits: str = "gg") -> "JointState":
        """Product state |qubits> (x) |field>."""
        if qubits not in BASIS:
            raise ValueError(f"qubit label must be one of {BASIS}")
        br = np.zeros((4, field.dim), dtype=complex)
        br[BASIS.index(qubits)] = field.amplitudes
        return cls(br)

    def excitation_number(self):
        """Expectation of photon number plus number of excited qubits (one per row of a stack)."""
        exc = np.array(QUBIT_EXC)[:, None] + np.arange(self.dim)
        total = np.sum(exc * np.abs(self.branches) ** 2, axis=(-2, -1))
        return float(total) if total.ndim == 0 else total


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


def _apply_raw(branches: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Evolution operator action on raw (4, dim) branches at T times: (T, 4, dim), no guards."""
    dim = branches.shape[1]
    k = np.arange(dim + 1, dtype=float)
    n = k[:dim]
    ee, eg, ge, gg = branches

    # trig blocks at photon numbers 0..dim, one row per time; the n + 1
    # and n - 1 arguments are shifted columns
    A, B, C = abc(k, gts[:, None])
    sqrt_c = np.sqrt(C)
    sqrt_n1 = np.sqrt(n + 1.0)

    out = np.zeros((gts.size,) + branches.shape, dtype=complex)

    # row ee: argument n + 1
    ap_term = 2.0 * (A[:, 1:] - 1.0) / C[1:]
    out[:, EE] += (1.0 + ap_term * (n + 1.0)) * ee
    coef_a_ee = -1j * B[:, 1:] / sqrt_c[1:] * sqrt_n1        # annihilator into ee
    out[:, EE, :-1] += coef_a_ee[:, :-1] * (eg[1:] + ge[1:])
    coef_aa = ap_term * np.sqrt((n + 1.0) * (n + 2.0))
    out[:, EE, :-2] += coef_aa[:, :-2] * gg[2:]

    # rows eg / ge: argument n (identical coefficients; the two branches swap roles)
    b0_term = -1j * B[:, :dim] / sqrt_c[:dim]
    coef_c_mid = b0_term * np.sqrt(n)                        # creator from ee
    out[:, EG, 1:] += coef_c_mid[:, 1:] * ee[:-1]
    out[:, GE, 1:] += coef_c_mid[:, 1:] * ee[:-1]
    d_same = (A[:, :dim] + 1.0) / 2.0
    d_swap = (A[:, :dim] - 1.0) / 2.0
    out[:, EG] += d_same * eg + d_swap * ge
    out[:, GE] += d_swap * eg + d_same * ge
    coef_a_mid = b0_term * sqrt_n1                           # annihilator from gg
    out[:, EG, :-1] += coef_a_mid[:, :-1] * gg[1:]
    out[:, GE, :-1] += coef_a_mid[:, :-1] * gg[1:]

    # row gg: argument n - 1, needed for n >= 1 only: every n = 0 term
    # carries a factor of n and vanishes, leaving the diagonal 1
    m = n[1:]
    am_term = 2.0 * (A[:, :dim - 1] - 1.0) / C[:dim - 1]
    coef_cc = am_term * np.sqrt(m * (m - 1.0))
    out[:, GG, 2:] += coef_cc[:, 1:] * ee[:-2]
    coef_c_gg = -1j * B[:, :dim - 1] / sqrt_c[:dim - 1] * np.sqrt(m)
    out[:, GG, 1:] += coef_c_gg * (eg[:-1] + ge[:-1])
    out[:, GG, 0] += gg[0]
    out[:, GG, 1:] += (1.0 + am_term * m) * gg[1:]

    return out


def evolve_with(kernel, state: JointState, gt) -> JointState:
    """Run kernel(branches, gts) -> (T, 4, dim) at a scalar gt or a 1-D vector of T times.

    A scalar runs as a batch of one and gives one JointState; a vector
    gives a (T, 4, dim) stack. NaN or inf anywhere in gt raises, headroom
    is checked once on the input and the norm on every output row.
    """
    gts = np.asarray(gt, dtype=float)
    if gts.ndim > 1:
        raise ValueError("gt must be a scalar or a 1-D vector")
    if not np.isfinite(gts).all():
        raise ValueError("gt must be finite")
    if state.branches.ndim != 2:
        raise ValueError("evolution takes one joint state, not a stack")
    ensure_headroom(state.branches)
    out = kernel(state.branches, gts.reshape(-1))
    return JointState(out[0] if gts.ndim == 0 else out)


def apply_propagator(state: JointState, gt) -> JointState:
    """Evolve a joint state by the exact propagator at dimensionless time gt.

    gt is a scalar (one JointState) or a 1-D vector of T times (a
    (T, 4, dim) stack). Requires two empty top Fock levels (headroom) so
    the n-raising terms stay inside the truncation; norm is then
    preserved to 1e-12.
    """
    return evolve_with(_apply_raw, state, gt)


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
        mat[:, col] = _apply_raw(basis, np.array([gt]))[0].reshape(-1)
    return mat
