import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tcqubits import (JointState, analytic_elements, apply_propagator, assemble_density,
                      build_hamiltonian, coherent_state, compare_paths, evolve_oracle,
                      number_state, superpose)
from tcqubits.oracle import _decomposition, _manifold_blocks
from tcqubits.propagator import EE, EG, GE, GG, QUBIT_EXC

RNG = np.random.default_rng(4242)


def test_hamiltonian_exactly_symmetric():
    H = build_hamiltonian(12)
    assert np.array_equal(H, H.T)


def test_two_excitation_block_couplings():
    # |ee,0> couples to |eg,1> and |ge,1> with 1; those couple to |gg,2> with sqrt(2)
    dim = 4
    H = build_hamiltonian(dim)

    def idx(label, n):
        return label * dim + n

    assert H[idx(EG, 1), idx(EE, 0)] == pytest.approx(1.0)
    assert H[idx(GE, 1), idx(EE, 0)] == pytest.approx(1.0)
    assert H[idx(GG, 2), idx(EG, 1)] == pytest.approx(math.sqrt(2))
    assert H[idx(GG, 2), idx(GE, 1)] == pytest.approx(math.sqrt(2))
    assert H[idx(GG, 2), idx(EE, 0)] == 0.0  # no direct two-photon hop


def test_ground_vacuum_is_dark():
    dim = 6
    H = build_hamiltonian(dim)
    assert np.all(H[GG * dim + 0] == 0)
    assert np.all(H[:, GG * dim + 0] == 0)


def test_commutes_with_excitation_operator():
    dim = 10
    H = build_hamiltonian(dim)
    N = np.diag(np.concatenate([exc + np.arange(dim) for exc in QUBIT_EXC]))
    assert np.max(np.abs(H @ N - N @ H)) <= 1e-12


def test_spectral_evolution_unitary():
    dim = 16
    evals, evecs = np.linalg.eigh(build_hamiltonian(dim))
    U = (evecs * np.exp(-1j * 0.77 * evals)) @ evecs.conj().T
    assert np.max(np.abs(U.conj().T @ U - np.eye(4 * dim))) <= 1e-11


def test_gt_zero_identity():
    state = JointState.from_field(number_state(2, 8), "gg")
    out = evolve_oracle(state, 0.0)
    assert np.allclose(out.branches, state.branches, atol=1e-13)


def test_matches_propagator_single_photon():
    state = JointState.from_field(number_state(1, 8), "gg")
    gt = math.pi / (2 * math.sqrt(2))
    a = apply_propagator(state, gt)
    b = evolve_oracle(state, gt)
    assert np.max(np.abs(a.branches - b.branches)) <= 1e-10


def test_matches_propagator_random_states():
    dim = 32
    for _ in range(10):
        br = np.zeros((4, dim), dtype=complex)
        br[:, :dim - 8] = RNG.normal(size=(4, dim - 8)) + 1j * RNG.normal(size=(4, dim - 8))
        br /= np.linalg.norm(br)
        state = JointState(br)
        for gt in (0.1, 1.0, 5.0, 12.0):
            a = apply_propagator(state, gt)
            b = evolve_oracle(state, gt)
            assert np.max(np.abs(a.branches - b.branches)) <= 1e-10


def test_norm_preserved():
    state = JointState.from_field(number_state(3, 16), "gg")
    out = evolve_oracle(state, 7.3)
    assert abs(np.linalg.norm(out.branches) - 1.0) <= 1e-11


def test_compare_paths_single_photon():
    f = number_state(1, 8)
    for gt in (0.3, 1.1107, 4.4):
        rep = compare_paths(f, gt)
        assert rep.max_density_dev <= 1e-10
        assert rep.max_joint_dev <= 1e-10


def test_compare_paths_next_nearest_pair():
    f = superpose([(30, 1), (32, 1)], dim=64)
    rep = compare_paths(f, 8.673)
    assert rep.max_density_dev <= 1e-10
    assert rep.max_joint_dev <= 1e-10


def test_compare_paths_even_coherent():
    f = coherent_state(2, 64, parity="even")
    rep = compare_paths(f, 3.0)
    assert rep.max_density_dev <= 1e-9


def test_compare_paths_reports_location():
    rep = compare_paths(number_state(1, 8), 0.9)
    assert rep.density_argmax[0] in ("ee", "eg", "ge", "gg")
    assert rep.gt == 0.9


def test_one_decomposition_cached():
    compare_paths(number_state(1, 8), 0.5)
    compare_paths(number_state(1, 12), 0.5)
    assert _decomposition.cache_info().currsize == 1


def test_headroom_enforced():
    state = JointState.from_field(number_state(7, 8), "gg")
    with pytest.raises(ValueError):
        evolve_oracle(state, 0.5)


# --- per-manifold blocks against the dense arbiter ---------------------------

def scatter_blocks(dim):
    """The (dim + 2, 4, 4) block stack placed back into the dense 4*dim space."""
    blocks = _manifold_blocks(dim)
    dense = np.zeros((4 * dim, 4 * dim))
    for N in range(dim + 2):
        for k, exc_k in enumerate(QUBIT_EXC):
            for j, exc_j in enumerate(QUBIT_EXC):
                n_k, n_j = N - exc_k, N - exc_j
                if 0 <= n_k < dim and 0 <= n_j < dim:
                    dense[k * dim + n_k, j * dim + n_j] = blocks[N, k, j]
                else:
                    assert blocks[N, k, j] == 0.0  # a missing slot stays decoupled
    return dense


@pytest.mark.parametrize("dim", [3, 4, 8, 33, 64])
def test_blocks_scatter_to_dense_hamiltonian(dim):
    assert np.array_equal(scatter_blocks(dim), build_hamiltonian(dim))


def random_joint(dim, rng=RNG):
    br = np.zeros((4, dim), dtype=complex)
    br[:, :dim - 2] = rng.normal(size=(4, dim - 2)) + 1j * rng.normal(size=(4, dim - 2))
    return JointState(br / np.linalg.norm(br))


@pytest.mark.parametrize("dim", [3, 4, 8, 33, 64])
def test_block_evolution_matches_dense_eigh(dim):
    evals, evecs = np.linalg.eigh(build_hamiltonian(dim))
    gts = np.array([0.0, -3.7, 0.1, 1.0, 8.673, 25.0])
    for _ in range(5):
        state = random_joint(dim)
        psi = state.branches.reshape(-1)
        batch = evolve_oracle(state, gts)
        for i, gt in enumerate(gts):
            dense = evecs @ (np.exp(-1j * gt * evals) * (evecs.T @ psi))
            assert np.max(np.abs(batch.branches[i].reshape(-1) - dense)) <= 1e-12
            assert np.max(np.abs(evolve_oracle(state, gt).branches.reshape(-1) - dense)) <= 1e-12


def test_antisymmetric_vector_is_dark_in_every_manifold():
    dim = 40
    blocks = _manifold_blocks(dim)
    evals, evecs = _decomposition(dim)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for N in range(1, dim + 2):
        assert np.array_equal(blocks[N] @ singlet, np.zeros(4))
        rebuilt = (evecs[N] * evals[N]) @ evecs[N].T
        assert np.max(np.abs(rebuilt @ singlet)) <= 1e-12


@st.composite
def joint_states(draw):
    """Random headroom-respecting joint states: all four branches on levels 0..dim-3."""
    dim = draw(st.integers(3, 24))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    br = np.zeros((4, dim), dtype=complex)
    br[:, :dim - 2] = np.array(
        [[complex(draw(parts), draw(parts)) for _ in range(dim - 2)] for _ in range(4)])
    assume(np.linalg.norm(br) > 1e-3)
    return JointState(br / np.linalg.norm(br))


gt_vectors = st.lists(st.one_of(st.just(0.0), st.floats(-12.0, 12.0)), min_size=1, max_size=9)


@given(joint_states(), gt_vectors)
def test_batched_evolution_matches_scalar_calls(state, gts):
    exact = apply_propagator(state, np.array(gts))
    brute = evolve_oracle(state, np.array(gts))
    assert exact.branches.shape == brute.branches.shape == (len(gts), 4, state.dim)
    for i, gt in enumerate(gts):
        one = apply_propagator(state, gt)
        assert one.branches.shape == (4, state.dim)
        assert np.array_equal(exact.branches[i], one.branches)
        assert np.max(np.abs(brute.branches[i] - evolve_oracle(state, gt).branches)) <= 1e-15


@given(joint_states(), gt_vectors)
def test_batched_compare_paths_matches_scalar_calls(state, gts):
    dim = state.dim
    assume(np.linalg.norm(state.branches[GG]) > 1e-3)
    field = superpose(list(enumerate(state.branches[GG, :dim - 2])), dim)
    batch = compare_paths(field, np.array(gts))
    for i, gt in enumerate(gts):
        one = compare_paths(field, gt)
        assert abs(batch.max_density_dev[i] - one.max_density_dev) <= 1e-15
        assert abs(batch.max_joint_dev[i] - one.max_joint_dev) <= 1e-15
        assert batch.gt[i] == one.gt


@given(gt_vectors, st.data())
def test_nan_gt_anywhere_is_rejected(gts, data):
    gts.insert(data.draw(st.integers(0, len(gts))), math.nan)
    state = JointState.from_field(number_state(1, 12), "gg")
    for evolve in (apply_propagator, evolve_oracle):
        with pytest.raises(ValueError, match="finite"):
            evolve(state, np.array(gts))


def test_evolution_takes_an_empty_vector_and_rejects_a_matrix_of_times_or_a_stack():
    state = JointState.from_field(number_state(1, 8), "gg")
    for evolve in (apply_propagator, evolve_oracle):
        assert evolve(state, np.array([])).branches.shape == (0, 4, 8)
        with pytest.raises(ValueError, match="1-D"):
            evolve(state, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="stack"):
            evolve(evolve(state, np.array([0.1, 0.2])), 0.3)
    assert assemble_density(analytic_elements(number_state(1, 8), [])).shape == (0, 4, 4)
    rep = compare_paths(number_state(1, 8), [])
    assert rep.max_density_dev.shape == rep.max_joint_dev.shape == (0,)
    assert rep.density_argmax == ()
