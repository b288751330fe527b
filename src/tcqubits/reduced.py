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
real. Over the field's support S,

    v_plus = sum e(N)^2 |c_N|^2,  v_minus = sum g(N)^2 |c_N|^2,
    w = sum h(N)^2 |c_N|^2,
    h_plus = -i sum h(N) e(N+1) c_N conj(c_{N+1}),
    h_minus = i sum g(N) h(N+1) c_N conj(c_{N+1}),
    mu = sum g(N) e(N+2) c_N conj(c_{N+2}),

each coherence over the N with N and N + d in S, so the factors are
evaluated on the |S| support manifolds alone. The time-free terms, the
levels N, the weights |c_N|^2 and the coherences c_N conj(c_{N+d}), are
derived once per field. A stack of F fields is one evaluation over their
supports, field after field, and each field sums its own run in the
order it sums it alone, so its elements are bit for bit those of a
stack of one. A vector of T times is one batched evaluation, not split
into blocks, so its temporaries are O(T * sum of |S|). Density matrices
are plain 4x4 complex arrays in the basis order (ee, eg, ge, gg).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FieldState, _amplitude_stack
from .propagator import JointState, abc

DENSITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

#: True at the eight entries that vanish for an X-type matrix: those on
#: neither the diagonal nor the anti-diagonal.
X_OFF_PATTERN = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
X_OFF_PATTERN.flags.writeable = False
_NOT_FINITE = "density matrix must be finite (no NaN or inf)"


@dataclass(frozen=True)
class XStateElements:
    """The six independent entries of the |gg>-initial reduced matrix, checked when made.

    v_plus and v_minus are the ee/gg populations, w fills the central
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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Finite entries of one shape, unit trace and populations in [0, 1] within DENSITY_TOL."""
        entries = (self.v_plus, self.v_minus, self.w, self.h_plus, self.h_minus, self.mu)
        one_shape = len({getattr(x, "shape", ()) for x in entries}) == 1   # a Python number is ()
        stack = np.array(entries, dtype=complex) if one_shape else None
        if not one_shape or not np.isfinite(stack).all():
            raise ValueError("the six elements must be finite (no NaN or inf) and of one shape")
        pops = stack[:3].real
        if (abs(pops[0] + 2 * pops[2] + pops[1] - 1.0) > DENSITY_TOL).any():
            raise ValueError("elements violate unit trace")
        outside = ~((-DENSITY_TOL <= pops) & (pops <= 1.0 + DENSITY_TOL))
        if outside.any():
            k = np.argwhere(outside)[0]
            name = ("v_plus", "v_minus", "w")[k[0]]
            raise ValueError(f"{name} = {pops[tuple(k)]} outside [0, 1]")


def analytic_elements(fields, gt) -> XStateElements:
    """Closed-form reduced-matrix elements for initial |g>|g> (x) field.

    The module docstring's six sums, with the real factors e, g and h
    taken on the manifolds of the field's support S through one abc call;
    a coherence whose distance d has no pair N, N + d in S is exactly
    +0.0. fields is one FieldState or a sequence of F fields on one dim,
    evaluated as one stack (a leading axis of F on every element); each
    field sums its own run in the order it sums it alone, so its elements
    are bit for bit those it has alone. gt is a scalar or a 1-D vector of
    T times (a trailing axis of T); one field at a scalar gt gives Python
    scalars, and a scalar runs as a batch of one. The whole stack is one
    kernel call, so its temporaries are O(T * sum of |S|); a caller bounds
    memory by the stack and the T it passes.
    """
    gts = np.asarray(gt, dtype=float)
    if gts.ndim > 1:
        raise ValueError("gt must be a scalar or a 1-D vector")
    single = isinstance(fields, FieldState)
    stack = fields if single else tuple(fields)
    n, weights, bounds, pairs = _support_terms(stack)
    A, B, C = abc(np.maximum(n - 1.0, 0.0), gts.reshape(-1, 1))   # H vanishes on manifold 0
    f2 = (A - 1.0) / C
    e = 2.0 * np.sqrt(n * (n - 1.0)) * f2   # (T, |S|) each
    g = 1.0 + 2.0 * n * f2
    h = B * np.sqrt(n / C)
    v_plus, v_minus, w = (_segment_sums(x * x * weights, bounds) for x in (e, g, h))
    h_plus = complex(0, -1) * _pair_sums(h, e, pairs[0])
    h_minus = complex(0, 1) * _pair_sums(g, h, pairs[0])
    mu = _pair_sums(g, e, pairs[1])
    shape = (() if single else (len(stack),)) + gts.shape
    sums = [values.reshape(shape) for values in (v_plus, v_minus, w, h_plus, h_minus, mu)]
    if not shape:
        sums = [values.item() for values in sums]   # Python float / complex
    return XStateElements(*sums)


# only the last stack's support terms stay cached; a bell1 peak search reads one field thrice
@lru_cache(maxsize=1)
def _support_terms(fields):
    """What analytic_elements needs of a field or a stack of fields alone, derived once per stack.

    Every field's support S, field after field, as one run of columns:
    its levels N and the weights |c_N|^2, with field f owning columns
    bounds[f]:bounds[f + 1]; and, per pair distance d = 1, 2, the columns
    (i, j) of N and N + d within one field, the coherences c_N
    conj(c_{N+d}) and the pair bounds of each field. The key is the field
    or the tuple of fields, compared by identity, so a new field builds
    new terms.
    """
    amps, _ = _amplitude_stack(fields)
    f, n = np.nonzero(amps)   # row-major: field after field, levels ascending
    c = amps[f, n]
    key = f * (amps.shape[1] + 2) + n   # sorted, and no two fields' levels lie within 2
    bounds = f.searchsorted(np.arange(len(amps) + 1))
    pairs = []
    for d in (1, 2):
        j = key.searchsorted(key + d)
        i = np.flatnonzero(key.take(j, mode="clip") == key + d)
        j = j[i]
        pairs.append((i, j, c[i] * c[j].conj(), i.searchsorted(bounds)))
    terms = (n.astype(float), np.abs(c) ** 2, bounds)
    for array in terms + sum(pairs, ()):
        array.flags.writeable = False   # every later call on this stack shares them
    return terms + (pairs,)


def _pair_sums(left: np.ndarray, right: np.ndarray, pairs) -> np.ndarray:
    """(F, T) sums of left(N) right(N + d) c_N conj(c_{N+d}) over one distance's pairs."""
    i, j, coherences, pair_bounds = pairs
    if not i.size:   # no field has a pair at this distance
        return np.zeros((len(pair_bounds) - 1, len(left)), dtype=complex)
    # np.take, unlike a fancy index, keeps each product row-major
    return _segment_sums(left.take(i, axis=1) * right.take(j, axis=1) * coherences, pair_bounds)


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums over the last axis of values[..., bounds[f]:bounds[f + 1]], stacked over f first.

    Each slice sums pairwise along its own contiguous run, as it does when
    it is a whole row; an empty slice sums to +0.
    """
    out = np.empty((len(bounds) - 1,) + values.shape[:-1], dtype=values.dtype)
    for f, (a, b) in enumerate(zip(bounds, bounds[1:])):
        np.add.reduce(values[..., a:b], axis=-1, out=out[f])
    return out


def assemble_density(elems: XStateElements) -> np.ndarray:
    """4x4 density matrix from the element set, or a (..., 4, 4) stack from a batch of any shape.

    Layout: v_plus at (ee,ee), conj(h_plus) along the first row, conj(mu)
    at the (ee,gg) corner, w filling the central block, h_minus along
    the last row, v_minus at (gg,gg).
    """
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
    """Validate finiteness, Hermiticity, unit trace (both within DENSITY_TOL) and positivity."""
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError(_NOT_FINITE)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL or abs(np.trace(rho).imag) > DENSITY_TOL:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < EIGENVALUE_FLOOR:
        raise ValueError("density matrix has an eigenvalue below the positivity floor")
