"""Two-qubit entanglement measures and the preparation target states.

Each measure takes an exact closed form where one applies and an
eigendecomposition otherwise:

- concurrence: a matrix whose eight off-X entries are all exactly 0.0
  (every row of a field with c_n c_{n+1} = 0) takes the Yu-Eberly X-state
  form, `concurrence_x_state`; so do XStateElements whose h_plus and
  h_minus are exactly 0.0, read without a 4x4 matrix, while other
  elements are assembled. Any other matrix takes the Wootters spin-flip
  route, `concurrence_wootters`: lambda_i are the descending
  square roots of the eigenvalues of rho (Y(x)Y) rho* (Y(x)Y), computed
  through the Hermitian form sqrt(rho) rho_tilde sqrt(rho) for a
  numerically real nonnegative spectrum. The test for exact zeros picks
  the route without a tolerance, so round-off never decides it.
- fidelity: a pure target that carries its state vector (bell1, bell2)
  takes <psi|rho|psi>; a Werner target or a raw matrix takes the Uhlmann
  route through matrix square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reduced import _NOT_FINITE, X_OFF_PATTERN, XStateElements, assemble_density

#: Y(x)Y is anti-diagonal with entries (-1, 1, 1, -1), so (Y(x)Y) A (Y(x)Y) is
#: A with both indices reversed, times these signs
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])

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


def _density_stack(rho, hermitian: bool = False) -> np.ndarray:
    """rho as a finite complex 4x4 matrix or (..., 4, 4) stack; anything else raises."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("density matrix must be 4x4 or a (..., 4, 4) stack")
    if not np.isfinite(rho).all():
        raise ValueError(_NOT_FINITE)
    if hermitian and not (np.abs(rho - _dagger(rho)) <= HERMITICITY_TOL).all():
        raise ValueError("concurrence requires a Hermitian matrix")
    return rho


def _per_matrix(values: np.ndarray, rho: np.ndarray):
    """A float for a single 4x4 rho, an array of the stack's leading shape for a stack."""
    return float(values[0]) if rho.ndim == 2 else values.reshape(rho.shape[:-2])


def concurrence(rho):
    """Concurrence in [0, 1] of a two-qubit density matrix, or of XStateElements.

    A (..., 4, 4) stack, or elements holding arrays, gives an array of the
    stack's leading shape (the elements' shape); every matrix must pass
    the Hermiticity check. Exactly X-type matrices take the Yu-Eberly
    closed form, all others the Wootters eigen route. Where h_plus and
    h_minus are exactly zero on every row, the Yu-Eberly form reads the
    elements themselves, which equals the route of their assembled matrix
    bit for bit, and any other elements are assembled first.
    """
    if isinstance(rho, XStateElements):
        if np.count_nonzero(rho.h_plus) or np.count_nonzero(rho.h_minus):
            return concurrence(assemble_density(rho))
        c = _yu_eberly_form(np.abs(rho.mu), rho.w * rho.w, np.abs(rho.w), rho.v_plus * rho.v_minus)
        return float(c) if np.ndim(c) == 0 else c
    rho = _density_stack(rho, hermitian=True)
    stack = rho.reshape(-1, 4, 4)
    x_rows = ~stack[:, X_OFF_PATTERN].any(axis=-1)
    c = _yu_eberly(stack)
    if not x_rows.all():
        c = np.where(x_rows, c, _wootters(stack))
    return _per_matrix(c, rho)


def concurrence_wootters(rho: np.ndarray):
    """Wootters concurrence through eigenvalues, for any Hermitian matrix or stack.

    The general route of `concurrence`, and the cross-check of its
    closed form on X-type matrices.
    """
    rho = _density_stack(rho, hermitian=True)
    return _per_matrix(_wootters(rho.reshape(-1, 4, 4)), rho)


def concurrence_x_state(rho: np.ndarray):
    """Yu-Eberly closed-form concurrence of an X-type matrix or stack.

    C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)).
    Off-X entries are not read, so the result is the concurrence only
    when they vanish.
    """
    rho = _density_stack(rho)
    return _per_matrix(_yu_eberly(rho.reshape(-1, 4, 4)), rho)


def _spin_flip(rho: np.ndarray) -> np.ndarray:
    """Wootters' (Y(x)Y) rho* (Y(x)Y) of a (..., 4, 4) stack."""
    return _FLIP_SIGNS * rho[..., ::-1, ::-1].conj()


def _wootters(rho: np.ndarray) -> np.ndarray:
    sq = _sqrtm_psd(rho)
    evals = np.linalg.eigvalsh(sq @ _spin_flip(rho) @ sq)
    lam = np.sqrt(np.clip(evals, 0.0, None)).T  # ascending; lam[k] is one value per matrix
    c = lam[3] - lam[2] - lam[1] - lam[0]
    return np.where(c > 0.0, c, 0.0)


def _yu_eberly(rho: np.ndarray) -> np.ndarray:
    d = rho.diagonal(axis1=-2, axis2=-1).real
    return _yu_eberly_form(np.abs(rho[:, 0, 3]), d[:, 1] * d[:, 2],
                           np.abs(rho[:, 1, 2]), d[:, 0] * d[:, 3])


def _yu_eberly_form(r14, p23, r23, p14):
    """The Yu-Eberly form 2 max(0, r14 - sqrt(p23), r23 - sqrt(p14)).

    r14 = |rho_14|, p23 = rho_22 rho_33, r23 = |rho_23| and p14 = rho_11 rho_44.
    """
    a = r14 - np.sqrt(np.maximum(p23, 0.0))
    b = r23 - np.sqrt(np.maximum(p14, 0.0))
    return np.maximum(2.0 * np.maximum(a, b), 0.0)


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, hash is by id
class TargetState:
    """A preparation target: the exact matrix and, for a pure target, its state vector
    (None for a mixed target); made only from a finite 4x4 matrix and length-4 vector."""

    matrix: np.ndarray
    vector: np.ndarray | None = None

    def __post_init__(self):
        for name, shape in (("matrix", (4, 4)), ("vector", (4,))):
            if getattr(self, name) is not None:
                m = np.asarray(getattr(self, name), dtype=complex)
                if m.shape != shape or not np.isfinite(m).all():
                    raise ValueError(f"target {name} must be finite and of shape {shape}")
                m.flags.writeable = False
                object.__setattr__(self, name, m)


def singlet_vector() -> np.ndarray:
    """(|eg> - |ge>)/sqrt(2); unreachable from |gg> under this dynamics."""
    return np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def target(kind: str, phi: float = 0.0, eta: float | None = None) -> TargetState:
    """Target density matrix for kind in {'bell1', 'bell2', 'werner'}.

    bell1 = (|ee> + e^{i phi}|gg>)/sqrt(2) and bell2 = (|eg> + |ge>)/sqrt(2)
    carry their vector; werner takes eta in [0, 1].
    """
    if kind == "bell1":
        if not math.isfinite(phi):
            raise ValueError(f"phi = {phi} is not finite")
        v = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / math.sqrt(2.0)
        return TargetState(np.outer(v, v.conj()), v)
    if kind == "bell2":
        v = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
        return TargetState(np.outer(v, v.conj()), v)
    if kind == "werner":
        if eta is None:
            raise ValueError("werner target needs eta")
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
        return TargetState(mat)
    raise ValueError(f"unknown target kind {kind!r}")


def fidelity(rho: np.ndarray, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    sigma may be a density matrix or a TargetState. A pure target that
    carries its vector gives <psi|rho|psi>, to which the Uhlmann form
    reduces; anything else takes the Uhlmann route. A (..., 4, 4) stack of
    rho gives an array of its leading shape.
    """
    rho = _density_stack(rho)
    psi = sigma.vector if isinstance(sigma, TargetState) else None
    if psi is not None:
        f = np.einsum("i,...ij,j->...", psi.conj(), rho, psi).real
    else:
        sigma = sigma.matrix if isinstance(sigma, TargetState) else _density_stack(sigma)
        sq = _sqrtm_psd(rho)
        inner = _sqrtm_psd(sq @ sigma @ sq)
        tr = np.trace(inner, axis1=-2, axis2=-1).real
        f = tr * tr  # tr * tr: a scalar and a batch row round alike
    f = np.minimum(np.maximum(f, 0.0), 1.0)
    return float(f) if f.ndim == 0 else f
