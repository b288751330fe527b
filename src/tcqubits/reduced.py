"""Reduced density matrix of the qubit pair.

Two independent computation routes are provided and cross-checked in the
test suite: closed-form element sums valid for the initial qubit state
|g>|g> (analytic_elements + assemble_density), and a generic partial
trace over the field for any joint state. U conserves excitation number,
so U|gg, N> stays on manifold N. With the propagator module's closed form
U = 1 + f1 H + f2 H^2 there, it is

    g |gg, N> - i h (|eg, N - 1> + |ge, N - 1>) + e |ee, N - 2>,
    g = 1 + 2N f2,  h = B sqrt(N / C),  e = 2 sqrt(N(N - 1)) f2,

with f2 = (A - 1)/C and (A, B, C) = abc(N - 1, gt), all three factors
real. Each element is a real-weighted sum of |c_N|^2, c_N conj(c_{N+1})
or c_N conj(c_{N+2}) over the field's support S, so the factors are
evaluated on the |S| support manifolds alone; what depends on the field
alone is derived once per field. A stack of F fields is one evaluation
over their supports laid end to end, and each field sums its own run in
the order it sums it alone, so its elements are bit for bit those of a
stack of one. A vector of T times is one batched evaluation, not split
into blocks, so its temporaries are O(T * sum of |S|). Density matrices
are plain 4x4 complex arrays in the basis order (ee, eg, ge, gg).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FieldState, _amplitude_stack, _json_complex
from .propagator import BASIS, JointState, abc

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
    c_n c_{n+1} = 0). Each entry is a scalar, or an array for a batch:
    shape (T,) over T times, (F,) or (F, T) for a stack of F fields.
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


def analytic_elements(fields, gt) -> XStateElements:
    """Closed-form reduced-matrix elements for initial |g>|g> (x) field.

    Finite sums over the manifolds of the field's support S. fields is
    one FieldState or a sequence of F fields on one dim, evaluated as one
    stack (a leading axis of F on every element); each field's elements
    are bit for bit those it has alone. gt is a scalar or a 1-D vector of
    T times (a trailing axis of T); one field at a scalar gt gives Python
    scalars, and a scalar runs as a batch of one. The whole stack is one
    kernel call, so its temporaries are O(T * sum of |S|); a caller
    bounds memory by the stack and the T it passes.
    """
    gts = np.asarray(gt, dtype=float)
    if gts.ndim > 1:
        raise ValueError("gt must be a scalar or a 1-D vector")
    single = isinstance(fields, FieldState)
    stack = fields if single else tuple(fields)
    terms = _support_terms(stack)
    shape = (() if single else (len(stack),)) + gts.shape
    sums = [values.reshape(shape) for values in _element_sums(terms, gts.reshape(-1))]
    if not shape:
        sums = [values.item() for values in sums]   # Python float / complex
    return XStateElements(*sums)


# only the last stack's support terms stay cached; a bell1 peak search reads one field thrice
@lru_cache(maxsize=1)
def _support_terms(fields):
    """What _element_sums needs of a field or a stack of fields alone, derived once per stack.

    Every field's support S, field after field, concatenated into one run
    of columns: its levels as abc's argument N - 1, clamped at 0, and as N
    (C comes from abc alone); 2 sqrt(N(N - 1)) of the factor e; the weights
    |c_N|^2; and, per pair distance d = 1, 2, the columns of N and N + d
    within one field and real and imaginary parts of phase * c_N
    conj(c_{N+d}). Field f owns columns bounds[f]:bounds[f + 1] and the
    pairs whose N lies there. The key is the field or the tuple of fields,
    compared by identity, so a new field builds new terms.
    """
    amps = _amplitude_stack(fields)
    padded = np.zeros((len(amps), amps.shape[1] + 2), dtype=complex)   # no pair crosses a field
    padded[:, :-2] = amps
    c = padded.ravel()
    at = np.flatnonzero(c)
    n = (at % padded.shape[1]).astype(float)
    column = np.full(c.size, -1)   # column of each nonzero amplitude, -1 elsewhere
    column[at] = np.arange(at.size)
    bounds = at.searchsorted(np.arange(len(amps) + 1) * padded.shape[1])
    pairs = []   # the phases are those of h_plus, h_minus (d = 1) and mu (d = 2)
    for d, phases in ((1, (complex(0, -1), complex(0, 1))), (2, (1.0,))):
        j = column[at + d]
        i = np.flatnonzero(j >= 0)
        j = j[i]
        q = c[at[i]] * c[at[j]].conj()
        parts = np.array([[(p * q).real, (p * q).imag] for p in phases])
        pairs.append((i, j, parts, i.searchsorted(bounds)))
    terms = (np.maximum(n - 1.0, 0.0), n, 2.0 * np.sqrt(n * (n - 1.0)), np.abs(c[at]) ** 2,
             bounds)
    for array in terms + sum(pairs, ()):
        array.flags.writeable = False   # every later call on this stack shares them
    return terms + (pairs,)


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums over the last axis of values[..., bounds[f]:bounds[f + 1]], stacked over f first.

    Each slice sums pairwise along its own contiguous run, as it does when
    it is a whole row.
    """
    out = np.empty((len(bounds) - 1,) + values.shape[:-1])
    for f, (a, b) in enumerate(zip(bounds, bounds[1:])):
        np.add.reduce(values[..., a:b], axis=-1, out=out[f])
    return out


def _element_sums(terms, times: np.ndarray):
    """(v_plus, v_minus, w, h_plus, h_minus, mu), each of shape (F, T), from _support_terms.

    The real factors e, g and h of the module docstring are taken on the
    support columns alone, through one abc call. v_plus, v_minus and w
    weigh |c_N|^2 by e^2, g^2 and h^2; h_plus, h_minus and mu weigh the
    products c_N conj(c_{N+d}) by -i h(N) e(N+1), i g(N) h(N+1) and
    g(N) e(N+2) over the pairs with both levels in S, as two real row sums
    each, and are exactly zero where d has no pairs. np.take, unlike a
    fancy index, keeps every product row-major, so each field's run sums
    pairwise exactly as a stack of one does.
    """
    n_abc, n, e_scale, weights, bounds, pairs = terms
    A, B, C = abc(n_abc, times[:, None])
    f2 = (A - 1.0) / C
    E, G, H = range(3)   # rows of factors, (T, 3, columns)
    factors = np.empty((times.size, 3, n.size))
    np.multiply(e_scale, f2, out=factors[:, E])
    np.add(1.0, 2.0 * n * f2, out=factors[:, G])
    np.multiply(B, np.sqrt(n / C), out=factors[:, H])
    v_plus, v_minus, w = _segment_sums(factors * factors * weights, bounds).transpose(2, 0, 1)

    def pair_sums(d, left, right):
        """Per row pair: phase * sum of left(N) right(N + d) c_N conj(c_{N+d}), N and N + d in S."""
        i, j, parts, pair_bounds = pairs[d - 1]   # parts: (rows, 2, pairs)
        if not i.size:
            return np.zeros((len(left), len(bounds) - 1, times.size), dtype=complex)
        r = factors.take(left, axis=1).take(i, axis=2) * factors.take(right, axis=1).take(j, axis=2)
        sums = _segment_sums(r[:, :, None] * parts, pair_bounds)   # (F, T, rows, 2)
        return sums.view(complex)[..., 0].transpose(2, 0, 1)

    h_plus, h_minus = pair_sums(1, [H, G], [E, H])
    (mu,) = pair_sums(2, [G], [E])
    return v_plus, v_minus, w, h_plus, h_minus, mu


def assemble_density(elems: XStateElements) -> np.ndarray:
    """4x4 density matrix from the element set, or a (..., 4, 4) stack from a batch of any shape.

    Layout: v_plus at (ee,ee), conj(h_plus) along the first row, conj(mu)
    at the (ee,gg) corner, w = p filling the central block, h_minus along
    the last row, v_minus at (gg,gg).
    """
    elems.validate()
    hp, hm, mu, w = elems.h_plus, elems.h_minus, elems.mu, elems.w
    hp_c, hm_c = hp.conjugate(), hm.conjugate()
    # the 16 entries in row-major order, each a scalar or an array of the batch's shape
    entries = np.array([
        elems.v_plus, hp_c, hp_c, mu.conjugate(),
        hp, w, w, hm_c,
        hp, w, w, hm_c,
        mu, hm, hm, elems.v_minus,
    ], dtype=complex)
    return entries.reshape(16, -1).T.reshape(np.shape(elems.v_plus) + (4, 4))


def partial_trace(state: JointState) -> np.ndarray:
    """Reduced qubit-pair matrix: rho[a, b] = sum_n branch_a(n) conj(branch_b(n)).

    Works for any initial qubit state, unlike the analytic route. A
    (..., 4, dim) stack of states gives a (..., 4, 4) stack of matrices.
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
