import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tcqubits import (BASIS, FieldState, HeadroomError, JointState, analytic_elements,
                      apply_propagator, assemble_density, build_hamiltonian, coherent_state,
                      compare_paths, concurrence, concurrence_wootters, evolve_oracle,
                      number_state, partial_trace, superpose)
from tcqubits import oracle, propagator
from tcqubits.cli import PRESETS, VALIDATE_GT_GRID
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


def test_one_decomposition_cached():
    compare_paths(number_state(1, 8), 0.5)
    compare_paths(number_state(1, 12), 0.5)
    assert _decomposition.cache_info().currsize == 1


def cut_violation(label, level, amplitude, dim=8):
    """|gg, 0> plus a small amplitude at (label, level), normalized."""
    br = np.zeros((4, dim), dtype=complex)
    br[GG, 0], br[label, level] = 1.0, amplitude
    return JointState(br / np.linalg.norm(br))


def test_headroom_enforced():
    # at dim 8, ee at level 6 and eg, ge at level 7 lie on manifold 8, just past the cut
    for label, level in ((EE, 6), (EG, 7), (GE, 7)):
        with pytest.raises(HeadroomError):
            evolve_oracle(cut_violation(label, level, 1e-6), 0.5)
        evolve_oracle(cut_violation(label, level, 1e-13), 0.5)   # within HEADROOM_TOL
    # their neighbours eg, ge at level 6 and gg at level 7 lie on manifold 7, inside it
    for label, level in ((EG, 6), (GE, 6), (GG, 7)):
        evolve_oracle(cut_violation(label, level, 1e-6), 0.5)


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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 33, 64])
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


@given(gt_vectors, st.data())
def test_nan_gt_anywhere_is_rejected(gts, data):
    gts.insert(data.draw(st.integers(0, len(gts))), math.nan)
    state = JointState.from_field(number_state(1, 12), "gg")
    for evolve in (apply_propagator, evolve_oracle):
        with pytest.raises(ValueError, match="finite"):
            evolve(state, np.array(gts))


def test_evolution_takes_an_empty_vector_and_rejects_a_matrix_of_times():
    state = JointState.from_field(number_state(1, 8), "gg")   # levels 0..1 held
    for evolve in (apply_propagator, evolve_oracle):
        assert evolve(state, np.array([])).branches.shape == (0, 4, 2)
        with pytest.raises(ValueError, match="1-D"):
            evolve(state, np.zeros((2, 2)))
        # a stack evolves row by row, each row as it evolves alone
        stack = evolve(state, np.array([0.1, 0.2])).branches
        again = evolve(JointState(stack), 0.3).branches
        assert again.shape == (2, 4, 2)
        for row, alone in zip(again, stack):
            assert row.tobytes() == evolve(JointState(alone), 0.3).branches.tobytes()
    rho = assemble_density(analytic_elements(number_state(1, 8), []))
    assert rho.shape == (0, 4, 4)
    assert concurrence(rho).shape == concurrence_wootters(rho).shape == (0,)
    rep = compare_paths(number_state(1, 8), [])
    assert rep.max_density_dev.shape == rep.max_joint_dev.shape == (0,)


# --- both kernels evolve a state on the levels it holds ----------------------

def top_reaching(label, dim, rng=RNG):
    """Random amplitudes on one branch, up to its highest uncut level dim - 1 - exc."""
    br = np.zeros((4, dim), dtype=complex)
    top = dim - QUBIT_EXC[label]
    br[label, :top] = rng.normal(size=top) + 1j * rng.normal(size=top)
    return br / np.linalg.norm(br)


@pytest.mark.parametrize("dim", [3, 4, 8, 33])
@pytest.mark.parametrize("label", BASIS)
def test_zero_padding_leaves_the_evolution_bit_identical(label, dim):
    k = BASIS.index(label)
    br = top_reaching(k, dim)
    padded = np.zeros((4, 5 * dim), dtype=complex)
    padded[:, :dim] = br
    gts = np.array([0.0, -3.7, 0.1, 8.673, 25.0])
    for evolve in (apply_propagator, evolve_oracle):
        for gt in (gts, 1.3):
            small = evolve(JointState(br), gt).branches
            large = evolve(JointState(padded), gt).branches
            assert np.array_equal(large[..., :dim], small), (evolve.__name__, gt)
            assert not large[..., dim:].any(), (evolve.__name__, gt)


def validate_field(dim=128, support=40, seed=1):
    """A random field on levels 0..support - 1, drawn the way `validate` draws its trials."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=support) + 1j * rng.normal(size=support)
    return FieldState(amps / np.linalg.norm(amps), dim)


def recorded_abc(monkeypatch):
    """Monkeypatch propagator.abc to record the shape of every n it is handed."""
    seen = []
    abc = propagator.abc

    def recording_abc(n, gt):
        seen.append(np.shape(n))
        return abc(n, gt)

    monkeypatch.setattr(propagator, "abc", recording_abc)
    return seen


def test_kernels_run_over_the_occupied_manifolds_only(monkeypatch):
    # the field holds manifolds 0..39 of the 130 that dim 128 has (0..dim + 1); both
    # kernels run on its 40 held levels, whose manifolds are 0..41
    joint = JointState.from_field(validate_field(), "gg")
    gts = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 8.673, 12.0])
    seen = recorded_abc(monkeypatch)
    apply_propagator(joint, gts)
    assert seen == [(40 + 2,)]   # manifolds 0..Nmax + 2, Nmax = 39

    shapes = []
    decomposition = oracle._decomposition

    class MatmulSpy(np.ndarray):
        """The cached eigenvectors, recording their shape in every matmul they enter."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                shapes.extend(x.shape for x in inputs if isinstance(x, MatmulSpy))
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    def spied_decomposition(dim):
        evals, evecs = decomposition(dim)
        return evals, evecs.view(MatmulSpy)

    monkeypatch.setattr(oracle, "_decomposition", spied_decomposition)
    evolve_oracle(joint, gts)
    assert shapes == [(42, 4, 4)] * 2


def test_tolerated_amplitude_past_the_cut_keeps_the_full_size(monkeypatch):
    dim = 24
    br = np.zeros((4, dim), dtype=complex)
    br[GG, :dim - 2] = RNG.normal(size=dim - 2) + 1j * RNG.normal(size=dim - 2)
    br[GG] /= np.linalg.norm(br[GG])
    br[EE, dim - 1] = 1e-13   # manifold dim + 1, past the cut but within HEADROOM_TOL
    state = JointState(br / np.linalg.norm(br))
    evals, evecs = np.linalg.eigh(build_hamiltonian(dim))
    gts = np.array([0.1, 1.0, 8.673, 25.0])
    seen = recorded_abc(monkeypatch)
    for evolve in (apply_propagator, evolve_oracle):
        batch = evolve(state, gts).branches
        for i, gt in enumerate(gts):
            dense = evecs @ (np.exp(-1j * gt * evals) * (evecs.T @ state.branches.reshape(-1)))
            assert np.max(np.abs(batch[i].reshape(-1) - dense)) <= 1e-12, (evolve.__name__, gt)
        assert np.max(np.abs(np.linalg.norm(batch, axis=(-2, -1)) - 1.0)) <= 1e-12
    assert seen == [(dim + 2,)]


# --- a stack of fields runs every route as one call, each row as it runs alone -----

def validate_mix(dim, seed):
    """The fields of one `validate` call at dim: its random trial, then its three presets."""
    presets = [PRESETS[name](dim).field for name in ("bell1-m30", "single-photon", "werner")]
    return [validate_field(dim, min(40, dim - 8), seed)] + presets


def seeded_stack(dim, seed):
    """validate's mix plus fields on scattered supports, one reaching the top level dim - 1."""
    rng = np.random.default_rng(seed)
    fields = validate_mix(dim, seed)
    for size in (3, 9, 17):
        levels = rng.choice(dim, size=size, replace=False)
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        fields.append(superpose(list(zip(levels.tolist(), amps)), dim))
    fields.append(superpose([(0, 1.0), (dim - 2, 0.5j), (dim - 1, -0.25)], dim))
    return fields


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


STACK_GTS = np.array(VALIDATE_GT_GRID)


@pytest.mark.parametrize("dim", [33, 64, 128])
def test_stacked_evolution_rows_equal_one_state_calls_bit_for_bit(dim):
    fields = seeded_stack(dim, seed=dim)
    joint = JointState.from_field(fields, "gg")
    assert joint.branches.shape == (len(fields), 4, dim)   # the widest field reaches dim - 1
    for evolve in (apply_propagator, evolve_oracle):
        for gt in (STACK_GTS, 0.7):
            stacked = evolve(joint, gt).branches
            assert stacked.shape == (len(fields),) + np.shape(gt) + (4, dim)
            for field, row in zip(fields, stacked):
                alone = evolve(JointState.from_field(field, "gg"), gt).branches
                size = field.amplitudes.size   # each row on its own width, zeros beyond
                assert same_bits(row[..., :size], alone), (evolve.__name__, dim, gt)
                assert not row[..., size:].any()


@pytest.mark.parametrize("dim", [33, 64, 128])
def test_stacked_elements_and_deviations_equal_one_field_calls_bit_for_bit(dim):
    fields = seeded_stack(dim, seed=dim + 1)
    for gt in (STACK_GTS, 0.7):
        elems = analytic_elements(fields, gt)
        rep = compare_paths(fields, gt)
        assert rep.max_density_dev.shape == (len(fields),) + np.shape(gt)
        for k, field in enumerate(fields):
            alone = analytic_elements(field, gt)
            for name in ("v_plus", "v_minus", "w", "h_plus", "h_minus", "mu"):
                assert same_bits(getattr(elems, name)[k], getattr(alone, name)), (name, dim, k)
            one = compare_paths(field, gt)
            assert same_bits(rep.max_density_dev[k], one.max_density_dev)
            assert same_bits(rep.max_joint_dev[k], one.max_joint_dev)
            assert max(np.max(one.max_density_dev), np.max(one.max_joint_dev)) <= 1e-9


def full_dim_deviations(fields, gts):
    """compare_paths' deviations with both kernels and partial_trace run on all dim levels."""
    held = JointState.from_field(fields, "gg").branches
    br = np.zeros(held.shape[:-1] + (fields[0].dim,), dtype=complex)
    br[..., :held.shape[-1]] = held
    closed, brute = propagator._apply_raw(br, gts), oracle._evolve_blocks(br, gts)
    rho = assemble_density(analytic_elements(fields, gts))
    density = np.max(np.abs(rho - partial_trace(JointState(brute))), axis=(-2, -1))
    return density, np.max(np.abs(closed - brute), axis=(-2, -1))


@pytest.mark.parametrize("dim", [33, 64, 128, 2048])
def test_deviations_on_the_occupied_prefix_equal_the_full_dim_ones_bit_for_bit(dim):
    # validate's mix occupies levels 0..39, and at dim 33 its bell1-m30 preset reaches dim - 1
    mix = validate_mix(dim, seed=dim)
    top = superpose([(0, 1.0), (dim - 2, 0.5j), (dim - 1, -0.25)], dim)   # never trimmed
    for fields, size in ((mix, min(40, dim)), ([top], dim)):
        assert JointState.from_field(fields).dim == size
        rep = compare_paths(fields, STACK_GTS)
        density, joint = full_dim_deviations(fields, STACK_GTS)
        assert same_bits(rep.max_density_dev, density), (dim, size)
        assert same_bits(rep.max_joint_dev, joint), (dim, size)


@pytest.mark.parametrize("kernel", [propagator._apply_raw, oracle._evolve_blocks])
def test_each_kernel_at_dim_2048_equals_its_prefix_evolution_zero_padded(kernel):
    held = JointState.from_field(validate_mix(2048, seed=3), "gg").branches
    size = 40   # Nmax = 39
    assert held.shape[-1] == size
    br = np.zeros(held.shape[:-1] + (2048,), dtype=complex)
    br[..., :size] = held
    full = kernel(br, STACK_GTS)
    assert same_bits(full[..., :size], kernel(br[..., :size], STACK_GTS))
    assert not full[..., size:].any()

def test_a_stack_takes_any_sequence_of_fields_on_one_dim():
    fields = [number_state(1, 12), coherent_state(0.8, 12)]
    batch = compare_paths(iter(fields), 0.4)   # a one-pass iterator is read once
    assert batch.max_density_dev.shape == batch.max_joint_dev.shape == (2,)
    assert analytic_elements(tuple(fields), [0.4, 0.5]).v_plus.shape == (2, 2)
    mixed = [number_state(1, 8), number_state(1, 9)]
    for bad, message in (([], "at least one"), (mixed, "one dim")):
        for route in (compare_paths, analytic_elements):
            with pytest.raises(ValueError, match=message):
                route(bad, 0.4)
        with pytest.raises(ValueError, match=message):
            JointState.from_field(bad)


def test_headroom_rejects_a_stack_when_any_one_state_leaks_past_the_cut():
    dim = 12
    inside = JointState.from_field(number_state(dim - 1, dim), "gg").branches
    leaking = np.zeros((4, dim), dtype=complex)
    leaking[EG, dim - 1] = 1.0   # manifold dim, one past the cut
    for k in range(3):
        stack = np.stack([inside] * 3)
        stack[k] = leaking
        with pytest.raises(HeadroomError, match="exceeds"):
            propagator.ensure_headroom(stack)
        for evolve in (apply_propagator, evolve_oracle):
            with pytest.raises(HeadroomError):
                evolve(JointState(stack), np.array([0.5, 1.0]))
    # every state inside the cut, or past it within HEADROOM_TOL, evolves
    tolerated = inside.copy()
    tolerated[EE, dim - 2] = 1e-13
    stack = np.stack([inside, tolerated / np.linalg.norm(tolerated)])
    propagator.ensure_headroom(stack)
    assert apply_propagator(JointState(stack), 0.5).branches.shape == (2, 4, dim)
