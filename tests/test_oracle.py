import math

import numpy as np
import pytest

from tcqubits import (JointState, apply_propagator, build_hamiltonian, coherent_state,
                      compare_paths, evolve_oracle, number_state, superpose)
from tcqubits.oracle import _decomposition, excitation_operator
from tcqubits.propagator import EE, EG, GE, GG

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
    N = excitation_operator(dim)
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
    data = rep.to_json()
    assert set(data) == {"max_density_dev", "density_argmax", "max_joint_dev", "gt"}


def test_one_decomposition_cached():
    compare_paths(number_state(1, 8), 0.5)
    compare_paths(number_state(1, 12), 0.5)
    assert _decomposition.cache_info().currsize == 1


def test_headroom_enforced():
    state = JointState.from_field(number_state(7, 8), "gg")
    with pytest.raises(ValueError):
        evolve_oracle(state, 0.5)
