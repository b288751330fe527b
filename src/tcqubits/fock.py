"""Truncated-Fock-space optical field states.

A field state is a unit-norm complex amplitude vector c_n over photon
numbers n = 0..dim-1. FieldState holds only levels 0..top, top the
highest nonzero one: dim is the declared truncation, not an allocation,
and every route downstream works on the held levels alone. The
constructors here cover the states used by the preparation protocols:
single number states, few-term number-state superpositions (including
next-nearest-neighbor pairs c_m|m> + c_{m+2}|m+2>), and parity-projected
coherent states.
Each propagates exactly from |gg>: |gg, n> lies on excitation manifold
n <= dim - 1, the truncation's one rule (propagator.ensure_headroom).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
#: Smallest norm whose square is a normal float; below it the squares
#: summed inside np.linalg.norm are subnormal or zero and lose digits.
_SQUARES_NORMAL = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)  # holds an array: == is identity, hash is by id
class FieldState:
    """Immutable field state on dim levels: amplitudes[n] is the coefficient of |n>.

    amplitudes is a read-only copy of the given vector up to its highest
    nonzero level; the levels above it, up to dim - 1, are zero and not
    held. dim defaults to the length of the given vector.
    """

    amplitudes: np.ndarray
    dim: int | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-D vector")
        object.__setattr__(self, "dim", amp.size if self.dim is None else self.dim)
        if amp.size > self.dim:
            raise ValueError(f"{amp.size} amplitudes exceed dim {self.dim}")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"field state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        held = amp[:np.flatnonzero(amp)[-1] + 1].copy()
        held.flags.writeable = False
        object.__setattr__(self, "amplitudes", held)


def _amplitude_stack(fields) -> tuple[np.ndarray, int]:
    """(F, width) held amplitudes of F >= 1 fields on one dim, and that dim.

    One FieldState is F = 1, a view of its own amplitudes; a stack is
    zero-filled to its widest field.
    """
    if isinstance(fields, FieldState):
        return fields.amplitudes[None], fields.dim
    stack = tuple(fields)
    if not stack:
        raise ValueError("a stack needs at least one field")
    if len({f.dim for f in stack}) > 1:
        raise ValueError("the fields of a stack must share one dim")
    width = max(f.amplitudes.size for f in stack)
    amps = np.array([np.concatenate((f.amplitudes, np.zeros(width - f.amplitudes.size)))
                     for f in stack])
    return amps, stack[0].dim


def number_state(n: int, dim: int) -> FieldState:
    """Field state |n> in a dim-dimensional truncation."""
    return superpose([(n, 1.0)], dim)


def _normalized(amp: np.ndarray, dim: int, empty: str) -> FieldState:
    """FieldState(amp / its norm, dim), or ValueError(empty) when every amplitude is 0.

    Amplitudes whose squares overflow or underflow inside the norm are
    first scaled by their largest real or imaginary part.
    """
    if not amp.any():
        raise ValueError(empty)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amp)
    if not _SQUARES_NORMAL <= norm < np.inf:
        parts = amp.view(float)   # real division: 1 / scale overflows for a subnormal scale
        parts /= np.max(np.abs(parts))
        norm = np.linalg.norm(amp)
    return FieldState(amp / norm, dim)


def superpose(terms, dim: int) -> FieldState:
    """Superposition sum_k coeff_k |n_k> from (n, coefficient) pairs, phases kept, at unit norm.

    Every n is checked against dim first; only levels 0..max n are allocated.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    terms = list(terms)
    for n, _ in terms:
        if not 0 <= n < dim:
            raise IndexError(f"photon number {n} outside truncation [0, {dim})")
    amp = np.zeros(max((n for n, _ in terms), default=0) + 1, dtype=complex)
    for n, coeff in terms:
        amp[n] += complex(coeff)
    if not np.isfinite(amp).all():
        raise ValueError("superposition coefficients must be finite")
    return _normalized(amp, dim, "superposition has all-zero coefficients")


def coherent_state(alpha: complex, dim: int, parity: str = "any") -> FieldState:
    """Coherent state with Poisson-weighted amplitudes, optionally parity-projected.

    parity="even" zeroes odd-n amplitudes (the |alpha> + |-alpha> cat),
    parity="odd" zeroes even-n amplitudes; both renormalize afterwards.
    Every finite alpha is taken: one whose |alpha|^2 underflows gives the
    series' leading terms, such as |1> with alpha's phase for the odd cat.
    "truncation too small" means levels n >= dim leave out more than 1e-10
    of the returned series' own norm (all of it, when every kept amplitude
    is zero); "no amplitude left" means the projection leaves no series, as
    for the odd cat of the vacuum.
    """
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be 'any', 'even' or 'odd', got {parity!r}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    try:
        a2 = abs(alpha) ** 2
    except OverflowError:
        raise ValueError(f"|alpha|^2 overflows at |alpha| = {abs(alpha):.3g}") from None
    # for n >= e^2 |a|^2, |a|^{2n} / n! <= e^{-n} and |c_n| <= e^{-n/2}, which is exactly 0.0
    # once n >= 1500 too: no level above max(e^2 |a|^2, 1500) is computed (e^2 |a|^2 may be inf)
    n = np.arange(min(dim, max(math.ceil(min(math.e ** 2 * a2, dim)), 1500) + 1))
    small = abs(alpha) < _SQUARES_NORMAL   # |alpha|^2 is subnormal or 0
    if alpha == 0:
        amp = np.zeros(n.size, dtype=complex)
        amp[0] = 1.0
    else:
        # log-space weights; |c_n|^2 = e^{-|a|^2} |a|^{2n} / n!
        log_a2 = 2.0 * math.log(abs(alpha)) if small else math.log(a2)
        logw = -0.5 * a2 + 0.5 * (n * log_a2
                                  - np.array([math.lgamma(k + 1) for k in range(n.size)]))
        phase = np.exp(1j * n * np.angle(alpha))
        amp = np.exp(logw) * phase
    series = 1.0   # the squared norm of the untruncated (projected) series
    if parity == "even":
        amp[1::2] = 0.0
        series = (1.0 + math.exp(-2.0 * a2)) / 2.0
    elif parity == "odd":
        amp[0::2] = 0.0
        series = -math.expm1(-2.0 * a2) / 2.0
    # a small alpha's sums underflow: its series leaves out less than |alpha|^2 of
    # itself, far under 1e-10, unless the truncation keeps none of it
    tail = (float(alpha != 0 and not amp.any()) if small
            else 1.0 - float(np.sum(np.abs(amp) ** 2)) / series)
    if tail > 1e-10:
        raise ValueError(f"truncation too small: tail mass {tail:.3e} exceeds 1e-10")
    return _normalized(amp, dim, f"no amplitude left after {parity}-parity projection")
