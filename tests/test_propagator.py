import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tcqubits import (BASIS, HeadroomError, JointState, abc, apply_propagator,
                      build_hamiltonian, evolve_oracle, number_state, superpose)
from tcqubits.propagator import EE, EG, GE, GG, QUBIT_EXC, _h_action

RNG = np.random.default_rng(20240803)


def random_joint(dim=16, support=10, rng=RNG):
    br = np.zeros((4, dim), dtype=complex)
    br[:, :support] = rng.normal(size=(4, support)) + 1j * rng.normal(size=(4, support))
    br /= np.linalg.norm(br)
    return JointState(br)


def test_abc_at_zero():
    assert abc(0, 0.0) == (1.0, 0.0, 2.0)


def test_abc_c_of_nine():
    _, _, C = abc(9, 0.5)
    assert C == 38.0


def test_abc_direct_evaluation():
    A, B, _ = abc(9, 0.314)
    assert A == pytest.approx(math.cos(math.sqrt(38) * 0.314), abs=1e-15)
    assert B == pytest.approx(math.sin(math.sqrt(38) * 0.314), abs=1e-15)
    assert A * A + B * B == pytest.approx(1.0, abs=1e-15)


def test_abc_rejects_negative_n():
    with pytest.raises(ValueError):
        abc(-1, 0.3)


@pytest.mark.parametrize("n", [np.nan, [1.0, np.nan], np.inf], ids=str)
def test_abc_names_a_nonfinite_n(n):
    # gt is finite here: the fault is n, not the product gt sqrt(C)
    with pytest.raises(ValueError, match="abc requires n >= 0"):
        abc(n, 1.0)


def test_abc_rejects_an_overflowing_phase():
    # the suite turns warnings into errors, so each case also shows that none is emitted
    with pytest.raises(ValueError, match=r"gt \* sqrt\(C\) overflows"):
        abc(9, 1e308)
    with pytest.raises(ValueError, match=r"gt \* sqrt\(C\) overflows"):
        abc(np.arange(3.0), np.array([[0.5], [-1e308]]))
    with pytest.raises(ValueError, match="gt must be finite"):
        abc(9, np.array([0.5, np.inf]))
    A, B, C = abc(0, 1e308)   # sqrt(2) 1e308 is still finite
    assert (C, A * A + B * B) == (2.0, pytest.approx(1.0, abs=1e-15))


def test_identity_at_gt_zero():
    state = random_joint()
    out = apply_propagator(state, 0.0)
    assert np.allclose(out.branches, state.branches, atol=1e-15)


def test_single_photon_splits_half_half():
    # |gg> with one photon transfers to the symmetric one-excitation pair
    state = JointState.from_field(number_state(1, 8), "gg")
    out = apply_propagator(state, math.pi / (2 * math.sqrt(2)))
    assert abs(out.branches[EG][0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.branches[GE][0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(out.branches[GG])) < 1e-12
    assert np.max(np.abs(out.branches[EE])) < 1e-12


def test_gg_column_action_matches_matrix():
    fld = superpose([(0, 0.6), (3, 0.8j)], dim=8)
    state = JointState.from_field(fld, "gg")
    gt = 1.234
    out = apply_propagator(state, gt)
    # dense exp(-i gt H) on all 8 levels; the support stops at n = 3, so the state
    # holds levels 0..3 and the evolution stays there
    evals, evecs = np.linalg.eigh(build_hamiltonian(8))
    mat = (evecs * np.exp(-1j * gt * evals)) @ evecs.T
    full = np.zeros((4, 8), dtype=complex)
    full[:, :4] = state.branches
    expected = (mat @ full.reshape(-1)).reshape(4, 8)
    assert np.allclose(out.branches, expected[:, :4], atol=1e-14)
    assert np.allclose(expected[:, 4:], 0.0, atol=1e-14)


def test_h_cubed_is_c_times_h_on_every_manifold():
    # manifold N = n + excited qubits has eigenvalues 0, 0 and +-sqrt(C(N - 1)),
    # so H^3 = C(N - 1) H there: the identity behind U = 1 + f1 H + f2 H^2
    for dim in range(3, 65):
        state = random_joint(dim, dim - 2).branches
        h1 = _h_action(state)
        h3 = _h_action(_h_action(h1))
        C = 4.0 * (np.arange(dim) + np.array(QUBIT_EXC)[:, None]) - 2.0   # C(N - 1)
        assert np.max(np.abs(h3 - C * h1)) <= 1e-14 * np.max(np.abs(h3)), dim


@pytest.mark.parametrize("gt", [-250.3, 1000.0])
def test_propagator_matches_dense_exponential_at_long_times(gt):
    state = random_joint(16, 14)
    evals, evecs = np.linalg.eigh(build_hamiltonian(16))
    mat = (evecs * np.exp(-1j * gt * evals)) @ evecs.T
    expected = (mat @ state.branches.reshape(-1)).reshape(4, 16)
    assert np.max(np.abs(apply_propagator(state, gt).branches - expected)) <= 1e-11


def complete_manifolds(dim):
    """(4, dim) mask of the levels n with n + QUBIT_EXC[k] <= dim - 1: the exact domain."""
    return np.arange(dim) + np.array(QUBIT_EXC)[:, None] <= dim - 1


@st.composite
def headroom_pairs(draw):
    """Two random joint states of one dim, each anywhere on manifolds N <= dim - 1."""
    dim = draw(st.integers(1, 24))
    mask = complete_manifolds(dim)
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    pair = []
    for _ in range(2):
        br = np.zeros((4, dim), dtype=complex)
        br[mask] = [complex(draw(parts), draw(parts)) for _ in range(mask.sum())]
        assume(np.linalg.norm(br) > 1e-3)
        pair.append(JointState(br / np.linalg.norm(br)))
    return pair


@given(headroom_pairs(), st.floats(-12.0, 12.0))
def test_propagator_preserves_inner_products(pair, gt):
    x, y = pair
    ux, uy = (apply_propagator(s, gt).branches for s in pair)
    assert abs(np.vdot(ux, uy) - np.vdot(x.branches, y.branches)) <= 1e-12


@given(headroom_pairs())
def test_propagator_identity_at_zero(pair):
    for state in pair:
        assert np.array_equal(apply_propagator(state, 0.0).branches, state.branches)


def test_norm_preserved():
    for _ in range(50):
        state = random_joint()
        gt = float(RNG.uniform(-6, 6))
        out = apply_propagator(state, gt)
        assert abs(np.linalg.norm(out.branches) - 1.0) <= 1e-12


def test_composition():
    for _ in range(20):
        state = random_joint()
        t1, t2 = RNG.uniform(-3, 3, size=2)
        once = apply_propagator(state, float(t1 + t2))
        twice = apply_propagator(apply_propagator(state, float(t1)), float(t2))
        assert np.max(np.abs(once.branches - twice.branches)) <= 1e-10


def test_inverse():
    for _ in range(20):
        state = random_joint()
        gt = float(RNG.uniform(0.1, 5))
        back = apply_propagator(apply_propagator(state, gt), -gt)
        assert np.max(np.abs(back.branches - state.branches)) <= 1e-10


def test_excitation_conserved():
    for _ in range(50):
        state = random_joint()
        out = apply_propagator(state, float(RNG.uniform(-8, 8)))
        assert out.excitation_number() == pytest.approx(state.excitation_number(), abs=1e-10)


def test_eg_ge_exchange_symmetry():
    # swapping the two middle branches of the input swaps them in the output
    for _ in range(10):
        state = random_joint()
        gt = float(RNG.uniform(0.2, 4))
        swapped = JointState(state.branches[[0, 2, 1, 3]])
        out = apply_propagator(state, gt)
        out_swapped = apply_propagator(swapped, gt)
        assert np.allclose(out.branches[[0, 2, 1, 3]], out_swapped.branches, atol=1e-13)


def complete_manifold_states():
    """|gg> (x) |7> at dim 8, plus random states on manifolds N <= dim - 1 at dims 1, 2, 3, 8."""
    yield JointState.from_field(number_state(7, 8), "gg")
    for dim in (1, 2, 3, 8):
        for _ in range(5):
            br = np.zeros((4, dim), dtype=complex)
            mask = complete_manifolds(dim)
            br[mask] = RNG.normal(size=mask.sum()) + 1j * RNG.normal(size=mask.sum())
            yield JointState(br / np.linalg.norm(br))


def test_evolution_at_dim_equals_a_wider_run_cut_back():
    # H conserves N, so no amplitude on manifolds N <= dim - 1 reaches level dim
    gts = np.array([0.0, 0.3, -2.5, 8.673, 40.0])
    for state in complete_manifold_states():
        dim = state.dim
        wide = JointState(np.pad(state.branches, ((0, 0), (0, 4))))
        exact = apply_propagator(wide, gts).branches
        assert np.array_equal(apply_propagator(state, gts).branches, exact[..., :dim]), dim
        assert not exact[..., dim:].any()
        brute = evolve_oracle(wide, gts).branches
        assert np.max(np.abs(evolve_oracle(state, gts).branches - brute[..., :dim])) <= 1e-12
        assert np.max(np.abs(brute - exact)) <= 1e-12


def cut_violation(label, level, amplitude, dim=8):
    """|gg, 0> plus a small amplitude at (label, level), normalized."""
    br = np.zeros((4, dim), dtype=complex)
    br[GG, 0], br[label, level] = 1.0, amplitude
    return JointState(br / np.linalg.norm(br))


def test_headroom_violation_raises():
    # at dim 8, ee at level 6 and eg, ge at level 7 lie on manifold 8, just past the cut
    for label, level in ((EE, 6), (EG, 7), (GE, 7)):
        with pytest.raises(HeadroomError):
            apply_propagator(cut_violation(label, level, 1e-6), 0.5)
        apply_propagator(cut_violation(label, level, 1e-13), 0.5)   # within HEADROOM_TOL
    # their neighbours eg, ge at level 6 and gg at level 7 lie on manifold 7, inside it
    for label, level in ((EG, 6), (GE, 6), (GG, 7)):
        apply_propagator(cut_violation(label, level, 1e-6), 0.5)


@pytest.mark.parametrize("label", BASIS)
def test_from_field_holds_the_levels_the_evolution_reaches(label):
    # slot (label, n) lies on manifold n + QUBIT_EXC, whose gg level is n + QUBIT_EXC;
    # test_oracle's zero-padding test shows a wider run adds only zeros
    exc = QUBIT_EXC[BASIS.index(label)]
    joint = JointState.from_field(number_state(3, 8), label)
    assert joint.dim == 4 + exc
    assert JointState.from_field(number_state(6, 8), label).dim == min(7 + exc, 8)
    apply_propagator(joint, 0.9)   # the held levels are enough headroom


def test_a_field_too_high_for_its_label_still_leaks_past_the_cut():
    joint = JointState.from_field(number_state(6, 8), "ee")   # manifold 8 at dim 8
    for evolve in (apply_propagator, evolve_oracle):
        with pytest.raises(HeadroomError):
            evolve(joint, 0.5)


def test_joint_state_shape_and_norm_checks():
    with pytest.raises(ValueError):
        JointState(np.zeros((3, 8), dtype=complex))
    with pytest.raises(ValueError):
        JointState(np.ones((4, 8), dtype=complex))
    nan_branches = np.zeros((4, 8), dtype=complex)
    nan_branches[GG, 0] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        JointState(nan_branches)
    with pytest.raises(ValueError, match="qubit label must be one of"):
        JointState.from_field(number_state(1, 8), "xx")


def test_basis_order():
    assert BASIS == ("ee", "eg", "ge", "gg")


def test_nonfinite_gt_rejected():
    with pytest.raises(ValueError):
        apply_propagator(random_joint(), float("nan"))
