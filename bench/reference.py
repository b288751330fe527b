"""Independent reference for the resonant two-qubit Tavis-Cummings dynamics.

Built from numpy and the standard library only; nothing here imports
tcqubits, so the benchmark can check the program against it.

The interaction (coupling g = 1) conserves N = photons + excited qubits,
so the joint space splits into 4x4 blocks spanned by
{|ee, N-2>, |eg, N-1>, |ge, N-1>, |gg, N>} (Tavis & Cummings, Phys. Rev.
170, 379 (1968)). An initial |gg> (x) field with amplitudes c_N puts c_N
on the |gg, N> corner of block N; each block is evolved by its own
spectral exponential exp(-i gt H_N) and the qubit-pair matrix is the
partial trace over photon number. Basis order is (ee, eg, ge, gg).
"""

from __future__ import annotations

import math

import numpy as np

_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)

#: Positions that vanish in an X-type matrix (off the two diagonals).
_OFF_X = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=bool)


class Evolution:
    """Reduced qubit-pair states of |gg> (x) field at any set of times."""

    def __init__(self, amplitudes):
        c = np.asarray(amplitudes, dtype=complex)
        self.dim = c.size
        n = np.arange(self.dim, dtype=float)
        hams = np.zeros((self.dim, 4, 4))
        upper = np.sqrt(np.clip(n - 1.0, 0.0, None))   # |ee,N-2> <-> |eg|ge,N-1>
        lower = np.sqrt(n)                               # |eg|ge,N-1> <-> |gg,N>
        for i, j, amp in ((0, 1, upper), (0, 2, upper), (1, 3, lower), (2, 3, lower)):
            hams[:, i, j] = hams[:, j, i] = amp
        self.energies, self.vectors = np.linalg.eigh(hams)
        # projection of each block's |gg, N> corner on the eigenvectors, times c_N
        self._weights = self.vectors[:, 3, :] * c[:, None]

    def densities(self, gts) -> np.ndarray:
        """Reduced matrices rho[t, a, b], shape (len(gts), 4, 4)."""
        phases = np.exp(-1j * np.asarray(gts, dtype=float)[:, None, None] * self.energies)
        amp = np.einsum("nij,tnj->tni", self.vectors, phases * self._weights)   # (t, N, 4)
        T, dim = amp.shape[0], self.dim
        branches = np.zeros((T, 4, dim), dtype=complex)
        branches[:, 0, :dim - 2] = amp[:, 2:, 0]   # ee at photon n lives in block n + 2
        branches[:, 1, :dim - 1] = amp[:, 1:, 1]   # eg at n in block n + 1
        branches[:, 2, :dim - 1] = amp[:, 1:, 2]
        branches[:, 3, :] = amp[:, :, 3]            # gg at n in block n
        return branches @ np.conj(np.swapaxes(branches, 1, 2))


def elements(rho: np.ndarray) -> dict:
    """The six element values the closed-form route reports, from rho[..., 4, 4]."""
    return {
        "v_plus": rho[..., 0, 0].real, "v_minus": rho[..., 3, 3].real, "w": rho[..., 1, 1].real,
        "mu": rho[..., 3, 0], "h_plus": rho[..., 1, 0], "h_minus": rho[..., 3, 1],
    }


def density_from_elements(v_plus, v_minus, w, mu, h_plus, h_minus) -> np.ndarray:
    """Stack of 4x4 matrices in the |gg>-initial layout from element arrays."""
    v_plus = np.asarray(v_plus, dtype=float)
    low = np.zeros(v_plus.shape + (4, 4), dtype=complex)
    low[..., 1, 0] = low[..., 2, 0] = h_plus
    low[..., 3, 1] = low[..., 3, 2] = h_minus
    low[..., 3, 0] = mu
    low[..., 2, 1] = w
    rho = low + np.conj(np.swapaxes(low, -1, -2))
    diag = np.stack(np.broadcast_arrays(v_plus, w, w, v_minus), axis=-1)
    rho[..., np.arange(4), np.arange(4)] = diag
    return rho


def is_x_type(rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    return np.max(np.abs(np.where(_OFF_X, rho, 0.0)), axis=(-2, -1)) <= tol


def concurrence(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence from the (non-Hermitian) eigenvalues of rho rho~."""
    rho = np.asarray(rho, dtype=complex)
    r = rho @ _YY @ np.conj(rho) @ _YY
    evals = np.linalg.eigvals(r).real
    lam = np.sort(np.sqrt(np.clip(evals, 0.0, None)), axis=-1)[..., ::-1]
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence_x(rho: np.ndarray) -> np.ndarray:
    """Yu-Eberly closed form for X-type matrices (Quantum Inf. Comput. 7, 459 (2007))."""
    rho = np.asarray(rho, dtype=complex)
    d = rho[..., [0, 1, 2, 3], [0, 1, 2, 3]].real.clip(0.0, None)
    a = np.abs(rho[..., 3, 0]) - np.sqrt(d[..., 1] * d[..., 2])
    b = np.abs(rho[..., 2, 1]) - np.sqrt(d[..., 0] * d[..., 3])
    return np.maximum(0.0, 2.0 * np.maximum(a, b))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2."""
    evals, evecs = np.linalg.eigh(sigma)
    root = (evecs * np.sqrt(evals.clip(0.0, None))) @ np.conj(evecs.T)
    inner = np.linalg.eigvalsh(root @ rho @ root)
    return np.sum(np.sqrt(inner.clip(0.0, None)), axis=-1) ** 2


def bell1_matrix(phi: float) -> np.ndarray:
    v = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / math.sqrt(2.0)
    return np.outer(v, np.conj(v))


def bell2_matrix() -> np.ndarray:
    v = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(v, v)


def werner_matrix() -> np.ndarray:
    """The eta = 1 Werner target: equal thirds of |ee>, |gg> and (|eg> + |ge>)/sqrt(2)."""
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return (np.outer(psi, psi) + np.diag([1.0, 0.0, 0.0, 1.0])) / 3.0


def number_field(n: int, dim: int) -> np.ndarray:
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return c


def superposition(terms, dim: int) -> np.ndarray:
    c = np.zeros(dim, dtype=complex)
    for n, amp in terms:
        c[n] += amp
    return c / np.linalg.norm(c)


def even_cat(alpha: float, dim: int) -> np.ndarray:
    """(|alpha> + |-alpha>) normalized: alpha^n / sqrt(n!) on even n."""
    n = np.arange(0, dim, 2)
    logw = n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
    c = np.zeros(dim, dtype=complex)
    c[n] = np.exp(logw - logw.max())
    return c / np.linalg.norm(c)


def werner_recipe(v_plus: float, w: float) -> tuple[float, float]:
    """(|c10|^2, cos(sqrt(38) gt)) that a sqrt(1-x)|0> + sqrt(x)|10> field needs for (v_plus, w).

    In block N = 10 the populations are v_plus = x (90/361)(1-u)^2 and
    w = x (5/19)(1-u^2) with u = cos(sqrt(38) gt), so their ratio fixes u
    and w fixes x.
    """
    r = (v_plus / w) * 19.0 / 18.0
    u = (1.0 - r) / (1.0 + r)
    return w / ((5.0 / 19.0) * (1.0 - u * u)), u


def bell1_time(m: int) -> float:
    """First gt at which the m-1 and m+1 blocks' phases differ by half a cycle."""
    return math.pi / (math.sqrt(4.0 * m + 6.0) - math.sqrt(4.0 * m - 2.0))


def density_defects(rho: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Which of trace, Hermiticity and positivity fail for a stack of matrices."""
    rho = np.asarray(rho, dtype=complex)
    problems = []
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)) > tol:
        problems.append("trace differs from 1")
    if np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))) > tol:
        problems.append("not Hermitian")
    if np.min(np.linalg.eigvalsh(rho)) < -tol:
        problems.append("negative eigenvalue")
    return problems
