"""Exact interaction-picture evolution of two resonant qubits coupled to one field mode.

The joint state lives on four branches labeled by the qubit pair
(ee, eg, ge, gg), each a vector over photon number. The interaction H
(g = 1) conserves N = photons + excited qubits, and on manifold N its
eigenvalues are 0, 0 and +-sqrt(C(N - 1)) with C(k) = 2(2k + 1). So
H^3 = C H there, and exactly

    exp(-i gt H) = 1 - i (B / sqrt(C)) H + ((A - 1) / C) H^2,
    (A, B, C) = abc(N - 1, gt).

Entry by entry, with K = (A - 1)/C and S = -i B / sqrt(C) at k = N - 1
for the output row's manifold (each source's photon number follows
from conserving N):

    ee row (k = n + 1): ee<-ee 1 + 2(n+1) K; ee<-eg, ee<-ge S sqrt(n+1);
                        ee<-gg 2 K sqrt((n+1)(n+2))
    eg row (k = n):     eg<-eg (A + 1)/2; eg<-ge (A - 1)/2;
                        eg<-ee S sqrt(n); eg<-gg S sqrt(n+1)   (ge likewise)
    gg row (k = n - 1): gg<-gg 1 + 2n K; gg<-eg, gg<-ge S sqrt(n);
                        gg<-ee 2 K sqrt(n(n-1))

Time enters only through the dimensionless product gt (coupling
strength x time); negative gt runs the inverse.

H conserves N, so the truncation to n <= dim - 1 is exact for amplitude on
manifolds N <= dim - 1: ee's top two levels and eg's and ge's top one
empty, gg never cut. A state is evolved on the levels it holds, its
width, which JointState.from_field makes the field's held levels plus
the headroom their manifolds need, capped at the field's dim.
ensure_headroom is the package's one check that the width suffices.
Every step is elementwise, so each state of a stack evolves bit for bit
as it does alone, and as it does at any larger width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FieldState, _amplitude_stack

BASIS = ("ee", "eg", "ge", "gg")
EE, EG, GE, GG = 0, 1, 2, 3
#: excited qubits in each BASIS label
QUBIT_EXC = (2, 1, 1, 0)

JOINT_NORM_TOL = 1e-10
#: Amplitude ceiling on manifolds N > dim - 1, which the truncation cuts.
HEADROOM_TOL = 1e-12


class HeadroomError(ValueError):
    """Raised when a state carries amplitude on a manifold the truncation cuts."""


@dataclass(frozen=True, eq=False)  # holds an array: == is identity, hash is by id
class JointState:
    """Qubit-pair x field state: branches[k] is the field vector for BASIS[k].

    branches may also be a (..., 4, dim) stack of states, e.g. (T, 4, dim)
    for one state at T times or (F, T, 4, dim) for F states at T times;
    every row must be normalized. dim is the number of levels held, the
    truncation the evolution works in.
    """

    branches: np.ndarray

    def __post_init__(self):
        br = np.asarray(self.branches, dtype=complex)
        if br.ndim < 2 or br.shape[-2] != 4 or br.shape[-1] < 1:
            raise ValueError("branches must have shape (..., 4, dim)")
        # one row of re, im per state: a sum of squares with no temporary the size of br
        flat = np.ascontiguousarray(br).reshape(br.shape[:-2] + (4 * br.shape[-1],)).view(float)
        norm = np.sqrt(np.einsum("...i,...i->...", flat, flat))
        if not (abs(norm - 1.0) <= JOINT_NORM_TOL).all():
            raise ValueError(
                f"joint state not normalized: |norm - 1| = {np.max(abs(norm - 1.0)):.3e}")
        br.flags.writeable = False
        object.__setattr__(self, "branches", br)

    @property
    def dim(self) -> int:
        return self.branches.shape[-1]

    @classmethod
    def from_field(cls, fields, qubits: str = "gg") -> "JointState":
        """Product state |qubits> (x) |field>, or an (F, 4, size) stack for F fields on one dim.

        size = min(held + QUBIT_EXC[k], dim), held the widest field's held
        levels and k the label's slot: the top level n of slot k lies on
        manifold n + QUBIT_EXC[k], whose highest level, gg's, is then held,
        unless dim cuts it first and ensure_headroom decides.
        """
        if qubits not in BASIS:
            raise ValueError(f"qubit label must be one of {BASIS}")
        amps, dim = _amplitude_stack(fields)
        k = BASIS.index(qubits)
        br = np.zeros((len(amps), 4, min(amps.shape[1] + QUBIT_EXC[k], dim)), dtype=complex)
        br[:, k, :amps.shape[1]] = amps
        return cls(br[0] if isinstance(fields, FieldState) else br)

    def excitation_number(self):
        """Expectation of photon number plus number of excited qubits (one per row of a stack)."""
        total = np.sum(_slot_manifolds(self.dim) * np.abs(self.branches) ** 2, axis=(-2, -1))
        return float(total) if total.ndim == 0 else total


def abc(n, gt):
    """Trig building blocks (A, B, C) at photon number n.

    C(n) = 2(2n+1), A = cos(gt sqrt(C)), B = sin(gt sqrt(C)). n and gt
    may be scalars or broadcastable arrays (A and B take their broadcast
    shape, C the shape of n); all-scalar input returns floats. n must be
    finite and >= 0 (C would go negative otherwise, putting an imaginary
    argument under the cosine), and gt sqrt(C) finite: a NaN, an infinite
    gt or a product that overflows raises, with no warning.
    """
    n_arr = np.asarray(n, dtype=float)
    # a NaN fails both tests; the methods skip np.all's dispatch, paying for the errstate
    if not ((n_arr >= 0) & (n_arr < np.inf)).all():
        raise ValueError("abc requires n >= 0; callers guard the n-1 terms themselves")
    C = 2.0 * (2.0 * n_arr + 1.0)
    with np.errstate(over="ignore"):
        arg = gt * np.sqrt(C)
    if not np.isfinite(arg).all():
        raise ValueError("gt must be finite" if not np.isfinite(gt).all()
                         else "gt * sqrt(C) overflows")
    if arg.ndim == 0:
        return float(np.cos(arg)), float(np.sin(arg)), float(C)
    return np.cos(arg), np.sin(arg), C


def ensure_headroom(branches: np.ndarray) -> None:
    """Raise HeadroomError unless every state of (..., 4, dim) branches keeps to N <= dim - 1.

    Amplitude up to HEADROOM_TOL is tolerated on the cut manifolds; the
    message reports the largest over the stack.
    """
    dim = branches.shape[-1]
    top = np.abs(branches[..., _slot_manifolds(dim) > dim - 1]).max(initial=0.0)
    if top > HEADROOM_TOL:
        raise HeadroomError(
            f"amplitude {top:.3e} on excitation manifolds above dim - 1 = "
            f"{branches.shape[-1] - 1} exceeds {HEADROOM_TOL:.1e}; "
            "the evolution would leak out of the truncation")


def _h_action(branches: np.ndarray) -> np.ndarray:
    """H (g = 1) on raw (4, ..., dim) branches, labels first: each qubit links (e, n), (g, n + 1).

    The link weighs sqrt(n + 1). H conserves N, so on a state that passes
    ensure_headroom (N <= dim - 1) no power of H reaches past level dim - 1
    and the truncation is exact.
    """
    ee, eg, ge, gg = branches
    s = np.sqrt(np.arange(1.0, branches.shape[-1]))   # sqrt(n + 1) at n = 0..dim-2
    one_excited = eg + ge
    out = np.zeros_like(branches)
    np.multiply(s, one_excited[..., 1:], out=out[EE, ..., :-1])
    np.multiply(s, ee[..., :-1], out=out[EG, ..., 1:])
    out[EG, ..., :-1] += s * gg[..., 1:]
    out[GE] = out[EG]
    np.multiply(s, one_excited[..., :-1], out=out[GG, ..., 1:])
    return out


def _slot_manifolds(dim: int) -> np.ndarray:
    """(4, dim) table of the manifold N = n + QUBIT_EXC[k] that slot (k, n) lies on."""
    return np.arange(dim) + np.array(QUBIT_EXC)[:, None]


def _coefficients(count: int, gts: np.ndarray):
    """(f1, f2) = (-iB/sqrt(C), (A - 1)/C) at abc(N - 1, gt), (T, count) each; column N: manifold N.

    H vanishes on manifold 0, so its coefficients repeat manifold 1's.
    """
    A, B, C = abc(np.maximum(np.arange(count) - 1.0, 0.0), gts[:, None])
    return -1j * B / np.sqrt(C), (A - 1.0) / C


def _apply_raw(branches: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Evolution operator action on raw (F, 4, dim) branches at T times: (F, T, 4, dim), no guards."""
    dim = branches.shape[-1]
    manifold = _slot_manifolds(dim)
    h1 = _h_action(branches.swapaxes(0, 1))   # (4, F, dim)
    h2 = _h_action(h1)
    f1, f2 = _coefficients(dim + 2, gts)
    return (branches[:, None] + f1[:, manifold] * h1.swapaxes(0, 1)[:, None]
            + f2[:, manifold] * h2.swapaxes(0, 1)[:, None])


def evolve_with(kernel, state: JointState, gt) -> JointState:
    """Run kernel(branches, gts) -> (F, T, 4, dim) on a state or a stack, at a scalar gt or T times.

    The (..., 4, dim) branches reach the kernel as they are, reshaped to
    an (F, 4, dim) stack, one state a stack of one. A 1-D vector of T
    times maps each state to T rows, (..., T, 4, dim); a scalar runs as a
    batch of one and keeps the input's shape. NaN or inf anywhere in gt
    raises, headroom is checked on every input state and the norm on
    every output row.
    """
    gts = np.asarray(gt, dtype=float)
    if gts.ndim > 1:
        raise ValueError("gt must be a scalar or a 1-D vector")
    if not np.isfinite(gts).all():
        raise ValueError("gt must be finite")
    br = state.branches
    ensure_headroom(br)
    out = kernel(br.reshape((-1,) + br.shape[-2:]), gts.reshape(-1))
    return JointState(out.reshape(br.shape[:-2] + gts.shape + br.shape[-2:]))


def apply_propagator(state: JointState, gt) -> JointState:
    """Evolve a joint state by the exact propagator at dimensionless time gt.

    state may be a (..., 4, dim) stack, each state evolved as it would be
    alone. gt is a scalar (the input's shape) or a 1-D vector of T times
    (a (..., T, 4, dim) stack). Requires every amplitude on an excitation
    manifold N <= dim - 1 (ensure_headroom), where the truncation is
    exact; norm is then preserved to 1e-12.
    """
    return evolve_with(_apply_raw, state, gt)

