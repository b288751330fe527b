"""Reduced density matrix of the qubit pair.

Two independent computation routes are provided and cross-checked in the
test suite: closed-form element sums valid for the initial qubit state
|g>|g> (analytic_elements + assemble_density), and a generic partial
trace over the field for any joint state. The element sums are the Gram
sums of the rows of U|gg, c>, with U = 1 + f1 H + f2 H^2 the propagator
module's closed form: ee = f2 (H^2 c), eg = ge = f1 (H c) and
gg = c + f2 (H^2 c). The sums keep only the Fock levels where c, H c or
H^2 c can be nonzero, S, S - 1 and S - 2 for the support S of c, and take
f1 and f2 on the manifolds those levels span. A vector of T times is one
batched evaluation, not split into blocks, so its temporaries are
O(T * levels). Density matrices are plain 4x4 complex arrays in the basis
order (ee, eg, ge, gg).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FieldState, _json_complex
from .propagator import BASIS, EE, EG, GG, JointState, _coefficients, _h_action

DENSITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

#: True at the eight entries that vanish for an X-type matrix: those on
#: neither the diagonal nor the anti-diagonal.
X_OFF_PATTERN = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
X_OFF_PATTERN.flags.writeable = False


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

    def validate(self) -> None:
        """Unit trace and populations in [0, 1] within DENSITY_TOL, on every row of a batch."""
        pops = np.array((self.v_plus, self.v_minus, self.w))
        if (abs(pops[0] + 2 * pops[2] + pops[1] - 1.0) > DENSITY_TOL).any():
            raise ValueError("elements violate unit trace")
        outside = ~((-DENSITY_TOL <= pops) & (pops <= 1.0 + DENSITY_TOL))  # NaN is outside too
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

    Finite sums over the field's support and the two levels below each
    of its levels. gt is a scalar (scalar elements) or a 1-D vector of T
    times (length-T element arrays); a scalar runs as a batch of one. The
    whole vector is one kernel call, so its temporaries are O(T * levels);
    a caller bounds memory by the T it passes.
    """
    gts = np.asarray(gt, dtype=float)
    if gts.ndim > 1:
        raise ValueError("gt must be a scalar or a 1-D vector")
    sums = _element_sums(field.amplitudes, gts.reshape(-1))
    if gts.ndim == 0:
        sums = [values[0].item() for values in sums]   # Python float / complex
    return XStateElements(*sums)


def _element_sums(c: np.ndarray, times: np.ndarray):
    """(v_plus, v_minus, w, h_plus, h_minus, mu), each of length T, for amplitudes c.

    H c fills only the eg and ge rows (equal), H^2 c only ee and gg. The
    sums run over the levels where c, H c or H^2 c can be nonzero: S,
    S - 1 and S - 2 for the support S of c. Row ee at level n lies on
    manifold n + 2, eg on n + 1 and gg on n, so the coefficients are
    evaluated on the manifolds from the lowest level to the highest + 2
    alone. np.take, unlike a fancy index, keeps every (T, levels) factor
    row-major, so each row sums pairwise exactly as a batch of one does.
    """
    psi = np.zeros((4, c.size), dtype=complex)
    psi[GG] = c
    h1 = _h_action(psi)
    h2 = _h_action(h1)
    nonzero = c != 0
    near = nonzero.copy()
    near[:-1] |= nonzero[1:]
    near[:-2] |= nonzero[2:]
    levels = np.flatnonzero(near)
    f1, f2 = _coefficients(np.arange(levels[0], levels[-1] + 3), times)
    cols = levels - levels[0]   # column k holds manifold levels[0] + k
    ee = f2.take(cols + 2, axis=1) * h2[EE, levels]
    eg = f1.take(cols + 1, axis=1) * h1[EG, levels]
    gg = c[levels] + f2.take(cols, axis=1) * h2[GG, levels]
    v_plus = np.sum(np.abs(ee) ** 2, axis=-1)
    v_minus = np.sum(np.abs(gg) ** 2, axis=-1)
    w = np.sum(np.abs(eg) ** 2, axis=-1)
    h_plus = np.sum(eg * ee.conj(), axis=-1)
    h_minus = np.sum(gg * eg.conj(), axis=-1)
    mu = np.sum(gg * ee.conj(), axis=-1)
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
    return bool(np.max(np.abs(np.asarray(rho)[..., X_OFF_PATTERN])) <= tol)


def check_density(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace (both within DENSITY_TOL) and the positivity floor."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL or abs(np.trace(rho).imag) > DENSITY_TOL:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < EIGENVALUE_FLOOR:
        raise ValueError("density matrix has an eigenvalue below the positivity floor")


def density_to_json(rho: np.ndarray) -> dict:
    return {"basis": list(BASIS), "matrix": _json_complex(rho)}
