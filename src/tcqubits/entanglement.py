"""Two-qubit entanglement measures and the preparation target states.

Concurrence follows the spin-flip construction: lambda_i are the
descending square roots of the eigenvalues of rho (Y(x)Y) rho* (Y(x)Y),
computed through the Hermitian form sqrt(rho) rho_tilde sqrt(rho) for a
numerically real nonnegative spectrum. Entanglement of formation is the
binary-entropy function of concurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

HERMITICITY_TOL = 1e-8


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix (or stack) via eigendecomposition.

    Eigenvalues below the relative noise floor are zeroed: the square root
    would otherwise amplify O(eps) jitter to O(sqrt(eps)).
    """
    evals, evecs = np.linalg.eigh((rho + _dagger(rho)) / 2)
    evals = np.clip(evals, 0.0, None)
    evals[evals < 1e-14 * np.maximum(evals[..., -1:], 1e-300)] = 0.0
    return (evecs * np.sqrt(evals)[..., None, :]) @ _dagger(evecs)


def _dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def _density_stack(rho) -> np.ndarray:
    """rho as a complex 4x4 matrix or (T, 4, 4) stack; anything else raises."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError("density matrix must be 4x4 or a (T, 4, 4) stack")
    return rho


def concurrence(rho: np.ndarray):
    """Wootters concurrence in [0, 1] of a two-qubit density matrix.

    A (T, 4, 4) stack gives a length-T array; every matrix must pass the
    Hermiticity check.
    """
    rho = _density_stack(rho)
    if np.max(np.abs(rho - _dagger(rho))) > HERMITICITY_TOL:
        raise ValueError("concurrence requires a Hermitian matrix")
    rho_tilde = _YY @ rho.conj() @ _YY
    sq = _sqrtm_psd(rho)
    evals = np.linalg.eigvalsh(sq @ rho_tilde @ sq)
    lam = np.sqrt(np.clip(evals, 0.0, None)).T  # ascending; lam[k] is one value per matrix
    c = lam[3] - lam[2] - lam[1] - lam[0]
    c = np.where(c > 0.0, c, 0.0)
    return float(c) if c.ndim == 0 else c


def concurrence_x_state(rho: np.ndarray) -> float:
    """Closed-form concurrence for X-type matrices.

    C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)).
    Used as an independent cross-check of the eigenvalue route.
    """
    rho = np.asarray(rho, dtype=complex)
    a = abs(rho[0, 3]) - math.sqrt(max(rho[1, 1].real * rho[2, 2].real, 0.0))
    b = abs(rho[1, 2]) - math.sqrt(max(rho[0, 0].real * rho[3, 3].real, 0.0))
    return float(max(0.0, 2.0 * a, 2.0 * b))


def eof(concurrence_value: float) -> float:
    """Entanglement of formation E = h((1 + sqrt(1 - C^2)) / 2)."""
    C = float(concurrence_value)
    if not 0.0 <= C <= 1.0:
        raise ValueError(f"concurrence {C} outside [0, 1]")
    x = (1.0 + math.sqrt(1.0 - C * C)) / 2.0
    if x in (0.0, 1.0):
        return 0.0 if C == 0.0 else 1.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class TargetState:
    """A preparation target: kind, its parameter, and the exact matrix."""

    kind: str
    parameter: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def bell1_vector(phi: float) -> np.ndarray:
    """(|ee> + e^{i phi}|gg>)/sqrt(2) as an amplitude vector."""
    return np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / math.sqrt(2.0)


def bell2_vector() -> np.ndarray:
    """(|eg> + |ge>)/sqrt(2)."""
    return np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)


def singlet_vector() -> np.ndarray:
    """(|eg> - |ge>)/sqrt(2); unreachable from |gg> under this dynamics."""
    return np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def werner_eta_from_k(k: float) -> float:
    return (3.0 - 3.0 * k) / 4.0


def target(kind: str, phi: float = 0.0, eta: float | None = None, k: float | None = None) -> TargetState:
    """Target density matrix for kind in {'bell1', 'bell2', 'werner'}.

    bell1 takes the relative phase phi; werner takes either eta in [0, 1]
    (primary) or the singlet weight k in [-1/3, 1], converted through
    eta = (3 - 3k)/4.
    """
    if kind == "bell1":
        v = bell1_vector(phi)
        return TargetState("bell1", float(phi), np.outer(v, v.conj()))
    if kind == "bell2":
        v = bell2_vector()
        return TargetState("bell2", 0.0, np.outer(v, v.conj()))
    if kind == "werner":
        if eta is None and k is None:
            raise ValueError("werner target needs eta or k")
        if eta is None:
            if not -1.0 / 3.0 <= k <= 1.0:
                raise ValueError(f"k = {k} outside [-1/3, 1]")
            eta = werner_eta_from_k(k)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta = {eta} outside [0, 1]")
        d = eta / 3.0
        c = (3.0 - 2.0 * eta) / 6.0
        o = (-3.0 + 4.0 * eta) / 6.0
        mat = np.array([
            [d, 0, 0, 0],
            [0, c, o, 0],
            [0, o, c, 0],
            [0, 0, 0, d],
        ], dtype=complex)
        return TargetState("werner", float(eta), mat)
    raise ValueError(f"unknown target kind {kind!r}")


def fidelity(rho: np.ndarray, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    sigma may be a density matrix or a TargetState. For a pure sigma this
    reduces to <psi|rho|psi>. A (T, 4, 4) stack of rho gives a length-T
    array.
    """
    if isinstance(sigma, TargetState):
        sigma = sigma.matrix
    rho = _density_stack(rho)
    sigma = np.asarray(sigma, dtype=complex)
    sq = _sqrtm_psd(rho)
    inner = _sqrtm_psd(sq @ sigma @ sq)
    tr = np.trace(inner, axis1=-2, axis2=-1).real
    f = np.minimum(np.maximum(tr * tr, 0.0), 1.0)  # tr * tr: a scalar and a batch row round alike
    return float(f) if f.ndim == 0 else f
