import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tcqubits import (BASIS, HeadroomError, JointState, abc, apply_propagator,
                      build_hamiltonian, number_state, superpose)
from tcqubits.propagator import EE, EG, GE, GG

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
    fld = superpose([(0, 0.6), (3, 0.8j)], dim=8, normalize=True)
    state = JointState.from_field(fld, "gg")
    gt = 1.234
    out = apply_propagator(state, gt)
    # dense exp(-i gt H); the support stops at n = 3, so n + 2 stays inside the truncation
    evals, evecs = np.linalg.eigh(build_hamiltonian(8))
    mat = (evecs * np.exp(-1j * gt * evals)) @ evecs.T
    expected = (mat @ state.branches.reshape(-1)).reshape(4, 8)
    assert np.allclose(out.branches, expected, atol=1e-14)


@st.composite
def headroom_pairs(draw):
    """Two random joint states of one dim, both with empty top two Fock levels."""
    dim = draw(st.integers(3, 24))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    pair = []
    for _ in range(2):
        br = np.zeros((4, dim), dtype=complex)
        br[:, :dim - 2] = np.array(
            [[complex(draw(parts), draw(parts)) for _ in range(dim - 2)] for _ in range(4)])
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


def test_headroom_violation_raises():
    state = JointState.from_field(number_state(7, 8), "gg")
    with pytest.raises(HeadroomError):
        apply_propagator(state, 0.5)


def test_joint_state_shape_and_norm_checks():
    with pytest.raises(ValueError):
        JointState(np.zeros((3, 8), dtype=complex))
    with pytest.raises(ValueError):
        JointState(np.ones((4, 8), dtype=complex))
    nan_branches = np.zeros((4, 8), dtype=complex)
    nan_branches[GG, 0] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        JointState(nan_branches)


def test_basis_order():
    assert BASIS == ("ee", "eg", "ge", "gg")


def test_nonfinite_gt_rejected():
    with pytest.raises(ValueError):
        apply_propagator(random_joint(), float("nan"))
