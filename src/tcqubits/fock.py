"""Truncated-Fock-space optical field states.

A field state is a complex amplitude vector c_n over photon numbers
n = 0..dim-1, normalized to unit norm. The constructors here cover the
states used by the preparation protocols: single number states,
few-term number-state superpositions (including next-nearest-neighbor
pairs c_m|m> + c_{m+2}|m+2>), and parity-projected coherent states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
#: Amplitude ceiling for the two top Fock levels before propagation.
#: The evolution operator raises n by up to 2, so support there would
#: leak out of the truncated space. Truncated coherent states keep
#: ~1e-25 tails here, far below this guard.
HEADROOM_TOL = 1e-12


def _json_complex(values):
    """JSON form of a complex scalar or array: [re, im], nested like the array."""
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


@dataclass(frozen=True)
class FieldState:
    """Immutable field state: amplitudes[n] is the coefficient of |n>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-D vector")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"field state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def has_headroom(self, tol: float = HEADROOM_TOL) -> bool:
        """True if the top two levels carry no amplitude beyond tol."""
        if self.dim < 3:
            return False
        return bool(np.max(np.abs(self.amplitudes[-2:])) <= tol)

    def to_json(self) -> dict:
        return {"dim": self.dim, "amplitudes": _json_complex(self.amplitudes)}


def number_state(n: int, dim: int) -> FieldState:
    """Field state |n> in a dim-dimensional truncation."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= n < dim:
        raise IndexError(f"photon number {n} outside truncation [0, {dim})")
    amp = np.zeros(dim, dtype=complex)
    amp[n] = 1.0
    return FieldState(amp)


def superpose(terms, dim: int, normalize: bool = True) -> FieldState:
    """Superposition sum_k coeff_k |n_k> from (n, coefficient) pairs.

    Coefficient phases are preserved; with normalize=True the vector is
    rescaled to unit norm, otherwise it must already be normalized.
    """
    amp = np.zeros(dim, dtype=complex)
    for n, coeff in terms:
        if not 0 <= n < dim:
            raise IndexError(f"photon number {n} outside truncation [0, {dim})")
        amp[n] += complex(coeff)
    norm = np.linalg.norm(amp)
    if not np.isfinite(norm):
        raise ValueError("superposition coefficients must be finite")
    if norm == 0.0:
        raise ValueError("superposition has all-zero coefficients")
    if normalize:
        amp = amp / norm
    return FieldState(amp)


def coherent_state(alpha: complex, dim: int, parity: str = "any") -> FieldState:
    """Coherent state with Poisson-weighted amplitudes, optionally parity-projected.

    parity="even" zeroes odd-n amplitudes (the |alpha> + |-alpha> cat),
    parity="odd" zeroes even-n amplitudes; both renormalize afterwards.
    Raises if the truncated tail mass at n >= dim exceeds 1e-10.
    """
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be 'any', 'even' or 'odd', got {parity!r}")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n = np.arange(dim)
    a2 = abs(alpha) ** 2
    if alpha == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
    else:
        # log-space weights; |c_n|^2 = e^{-|a|^2} |a|^{2n} / n!
        logw = -0.5 * a2 + 0.5 * (n * math.log(a2) - np.array([math.lgamma(k + 1) for k in range(dim)]))
        phase = np.exp(1j * n * np.angle(alpha))
        amp = np.exp(logw) * phase
    tail = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if tail > 1e-10:
        raise ValueError(f"truncation too small: tail mass {tail:.3e} exceeds 1e-10")
    if parity == "even":
        amp[1::2] = 0.0
    elif parity == "odd":
        amp[0::2] = 0.0
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ValueError(f"no amplitude left after {parity}-parity projection")
    return FieldState(amp / norm)


def neighbor_product_zero(state: FieldState, tol: float = 1e-12) -> bool:
    """True iff max_n |c_n * c_{n+1}| <= tol.

    Fields with this property drive the qubit pair to X-type density
    matrices at every time.
    """
    c = state.amplitudes
    if c.size < 2:
        return True
    return bool(np.max(np.abs(c[:-1] * c[1:])) <= tol)
