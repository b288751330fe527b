"""Reduced density matrix of the qubit pair.

Two independent computation routes are provided and cross-checked in the
test suite: closed-form element sums valid for the initial qubit state
|g>|g> (analytic_elements + assemble_density), and a generic partial
trace over the field for any joint state. Density matrices are plain
4x4 complex arrays in the basis order (ee, eg, ge, gg).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FieldState, _json_complex
from .propagator import BASIS, JointState, abc

DENSITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
#: analytic_elements evaluates long time vectors in blocks of about this
#: many (time, photon number) entries, 16 KiB per float64 temporary, so
#: the kernel's transient memory stays small and each block stays in cache.
BLOCK_ENTRIES = 2048

#: Row/column positions that must vanish for an X-type matrix (the
#: non-diagonal, non-anti-diagonal slots).
X_ANTI_PATTERN = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2))


@dataclass(frozen=True)
class XStateElements:
    """The six independent entries of the |gg>-initial reduced matrix.

    v_plus and v_minus are the ee/gg populations, w = p fills the central
    block (equal for identical qubits), mu is the ee-gg coherence and
    h_plus/h_minus the first/last row coherences (zero for fields with
    c_n c_{n+1} = 0). Each entry is a scalar, or for a batch over T
    times a length-T array.
    """

    v_plus: float
    v_minus: float
    w: float
    h_plus: complex
    h_minus: complex
    mu: complex

    @property
    def p(self) -> float:
        return self.w

    def validate(self, tol: float = DENSITY_TOL) -> None:
        """Unit trace and populations in [0, 1], on every row of a batch."""
        pops = np.array((self.v_plus, self.v_minus, self.w))
        if (abs(pops[0] + 2 * pops[2] + pops[1] - 1.0) > tol).any():
            raise ValueError("elements violate unit trace")
        outside = ~((-tol <= pops) & (pops <= 1.0 + tol))  # NaN is outside too
        if outside.any():
            k = np.argwhere(outside)[0]
            name = ("v_plus", "v_minus", "w")[k[0]]
            raise ValueError(f"{name} = {pops[tuple(k)]} outside [0, 1]")

    def to_json(self) -> dict:
        return {
            "v_plus": self.v_plus,
            "v_minus": self.v_minus,
            "w": self.w,
            "p": self.p,
            "h_plus": _json_complex(self.h_plus),
            "h_minus": _json_complex(self.h_minus),
            "mu": _json_complex(self.mu),
        }


def analytic_elements(field: FieldState, gt) -> XStateElements:
    """Closed-form reduced-matrix elements for initial |g>|g> (x) field.

    Finite sums over the truncated field support; the n = 0 terms that
    would probe the n - 1 trig argument carry an explicit factor of n and
    are exactly zero. gt is a scalar (scalar elements) or a 1-D vector of
    T times (length-T element arrays); a scalar runs as a batch of one.
    """
    gts = np.asarray(gt, dtype=float)
    if gts.ndim > 1:
        raise ValueError("gt must be a scalar or a 1-D vector")
    c = field.amplitudes
    times = gts.reshape(-1)
    rows = max(1, BLOCK_ENTRIES // (c.size + 1))
    blocks = [_element_sums(c, times[i:i + rows]) for i in range(0, max(times.size, 1), rows)]
    sums = blocks[0] if len(blocks) == 1 else [np.concatenate(s) for s in zip(*blocks)]
    v_plus, v_minus, w, h_plus, h_minus, mu = sums
    if gts.ndim == 0:
        return XStateElements(v_plus=float(v_plus[0]), v_minus=float(v_minus[0]), w=float(w[0]),
                              h_plus=complex(h_plus[0]), h_minus=complex(h_minus[0]),
                              mu=complex(mu[0]))
    return XStateElements(v_plus=v_plus, v_minus=v_minus, w=w,
                          h_plus=h_plus, h_minus=h_minus, mu=mu)


def _element_sums(c: np.ndarray, times: np.ndarray):
    """(v_plus, v_minus, w, h_plus, h_minus, mu), each of length T, for amplitudes c."""
    dim = c.size
    k = np.arange(dim + 1, dtype=float)
    n, n1, n2 = k[:dim], k[1:], k[:dim] + 2

    # trig blocks at photon numbers 0..dim, one row per time; the n + 1
    # and n - 1 arguments are shifted columns (n - 1 clamped at n = 0).
    # Every (T, dim) factor stays row-major so each row sums pairwise,
    # exactly as a batch of one does.
    A, B, C = abc(k, times[:, None])
    B0, C0 = B[:, :dim], C[:dim]
    Ap, Cp = A[:, 1:], C[1:]
    Am = np.concatenate([A[:, :1], A[:, :dim - 1]], axis=1)
    Cm = np.concatenate([C[:1], C[:dim - 1]])
    # diagonal gg factor 1 + 2 n (A(n-1)-1)/C(n-1); exactly 1 at n = 0
    f_gg = 1.0 + 2.0 * (Am - 1.0) / Cm * n
    ap1 = Ap - 1.0
    sqrt_c0 = np.sqrt(C0)

    cpad = np.concatenate([c, [0.0, 0.0]])
    c1 = cpad[1:dim + 1]   # c_{n+1}
    c2 = cpad[2:dim + 2]   # c_{n+2}
    c2_conj = np.conj(c2)
    prob = np.abs(cpad) ** 2

    # field-only prefactors times the (T, dim) time factors, summed over n
    v_plus = np.sum(prob[2:] * 4.0 * n2 * n1 * (ap1 / Cp) ** 2, axis=-1)
    w = np.sum(prob[1:dim + 1] * n1 * B0 ** 2 / C0, axis=-1)
    h_plus = np.sum(c1 * c2_conj * (-2j * n1) * np.sqrt(n2) * (B0 / sqrt_c0) * ap1 / Cp, axis=-1)
    h_minus = np.sum(c * np.conj(c1) * (1j * np.sqrt(n1) * B0 / sqrt_c0) * f_gg, axis=-1)
    mu = np.sum(c * c2_conj * 2.0 * np.sqrt(n2 * n1) * ap1 / Cp * f_gg, axis=-1)
    v_minus = np.sum(prob[:dim] * f_gg ** 2, axis=-1)
    return v_plus, v_minus, w, h_plus, h_minus, mu


def assemble_density(elems: XStateElements) -> np.ndarray:
    """4x4 density matrix from the element set, or a (T, 4, 4) stack from a batch.

    Layout: v_plus at (ee,ee), conj(h_plus) along the first row, conj(mu)
    at the (ee,gg) corner, w = p filling the central block, h_minus along
    the last row, v_minus at (gg,gg).
    """
    elems.validate()
    hp, hm, mu, w = elems.h_plus, elems.h_minus, elems.mu, elems.w
    hp_c, hm_c = hp.conjugate(), hm.conjugate()
    # the 16 entries in row-major order, each a scalar or a length-T row
    entries = np.array([
        elems.v_plus, hp_c, hp_c, mu.conjugate(),
        hp, w, w, hm_c,
        hp, w, w, hm_c,
        mu, hm, hm, elems.v_minus,
    ], dtype=complex)
    return entries.T.reshape(np.shape(elems.v_plus) + (4, 4))


def partial_trace(state: JointState) -> np.ndarray:
    """Reduced qubit-pair matrix: rho[a, b] = sum_n branch_a(n) conj(branch_b(n)).

    Works for any initial qubit state, unlike the analytic route. A
    (T, 4, dim) stack of states gives a (T, 4, 4) stack of matrices.
    """
    br = state.branches
    return br @ br.conj().swapaxes(-1, -2)


def is_x_type(rho: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff the eight off-pattern entries all have magnitude <= tol."""
    rho = np.asarray(rho)
    return bool(max(abs(rho[i, j]) for i, j in X_ANTI_PATTERN) <= tol)


def check_density(rho: np.ndarray, tol: float = DENSITY_TOL) -> None:
    """Validate Hermiticity, unit trace and the positivity floor."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < EIGENVALUE_FLOOR:
        raise ValueError("density matrix has an eigenvalue below the positivity floor")


def density_to_json(rho: np.ndarray) -> dict:
    return {"basis": list(BASIS), "matrix": _json_complex(rho)}
