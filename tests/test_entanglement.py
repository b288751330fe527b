import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tcqubits import (TargetState, XStateElements, analytic_elements, assemble_density,
                      bell1_plan, coherent_state, concurrence, concurrence_wootters,
                      concurrence_x_state, fidelity, is_x_type, number_state, singlet_vector,
                      superpose, target)
from tcqubits.entanglement import _spin_flip

RNG = np.random.default_rng(55)


def random_density(rng=RNG):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_density(rng=RNG):
    d = rng.uniform(0.05, 1.0, size=4)
    d /= d.sum()
    rho = np.diag(d).astype(complex)
    m14 = math.sqrt(d[0] * d[3]) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    m23 = math.sqrt(d[1] * d[2]) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho[0, 3], rho[3, 0] = m14, np.conj(m14)
    rho[1, 2], rho[2, 1] = m23, np.conj(m23)
    return rho


def test_concurrence_product_state():
    assert concurrence(np.diag([0, 0, 0, 1.0]).astype(complex)) == 0.0


def test_concurrence_bell2_is_one():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1:3, 1:3] = 0.5
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_werner_eta_one_is_zero():
    assert concurrence(target("werner", eta=1.0).matrix) == 0.0


def test_concurrence_rejects_non_hermitian():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 0.4
    with pytest.raises(ValueError):
        concurrence(rho)


def test_concurrence_matches_x_state_closed_form():
    for _ in range(50):
        rho = random_x_density()
        assert concurrence_wootters(rho) == pytest.approx(concurrence_x_state(rho), abs=1e-10)
        assert concurrence(rho) == concurrence_x_state(rho)


def test_one_tiny_off_x_entry_takes_the_eigen_route():
    # The route test is exact: 1e-300 is far inside is_x_type's tolerance,
    # yet the matrix is not exactly X-type, so the eigen route serves it.
    for _ in range(10):
        rho = random_x_density()
        rho[0, 1] = 1e-300
        assert is_x_type(rho)
        assert concurrence(rho) == concurrence_wootters(rho)
        assert concurrence(np.array([rho, rho])).tolist() == [concurrence_wootters(rho)] * 2


def test_concurrence_local_phase_invariant():
    for _ in range(25):
        rho = random_density()
        theta, chi = RNG.uniform(0, 2 * np.pi, size=2)
        u = np.kron(np.diag([np.exp(1j * theta), 1]), np.diag([np.exp(1j * chi), 1]))
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)


def test_concurrence_in_unit_interval():
    for _ in range(50):
        c = concurrence(random_density())
        assert 0.0 <= c <= 1.0


def test_bell1_target_corners():
    t = target("bell1", phi=0.0)
    assert t.matrix[0, 0] == pytest.approx(0.5)
    assert t.matrix[0, 3] == pytest.approx(0.5)
    assert t.matrix[3, 0] == pytest.approx(0.5)
    assert np.count_nonzero(np.abs(t.matrix) > 1e-15) == 4
    tpi = target("bell1", phi=math.pi)
    assert tpi.matrix[3, 0] == pytest.approx(-0.5)


def test_bell_targets_are_rank_one_projectors():
    for t in (target("bell1", phi=1.1), target("bell2")):
        assert np.array_equal(np.outer(t.vector, t.vector.conj()), t.matrix)
        evals = np.linalg.eigvalsh(t.matrix)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(evals[:-1])) < 1e-12
        assert np.allclose(t.matrix @ t.matrix, t.matrix, atol=1e-12)


def test_werner_eta_one_matrix():
    t = target("werner", eta=1.0)
    expected = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
    expected[1, 2] = expected[2, 1] = 1 / 6
    assert np.allclose(t.matrix, expected, atol=1e-15)
    assert t.vector is None


def test_werner_eta_zero_is_singlet():
    t = target("werner", eta=0.0)
    psi = singlet_vector()
    assert np.allclose(t.matrix, np.outer(psi, psi.conj()), atol=1e-15)


def test_werner_parameter_range():
    with pytest.raises(ValueError):
        target("werner", eta=1.2)
    with pytest.raises(ValueError):
        target("werner")


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_bell1_target_rejects_non_finite_phase(phi):
    with pytest.raises(ValueError, match="not finite"):
        target("bell1", phi=phi)


def test_target_unknown_kind():
    with pytest.raises(ValueError):
        target("ghz")


def test_fidelity_self():
    rho = random_density()
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_gg_vs_bell1():
    rho = np.diag([0, 0, 0, 1.0]).astype(complex)
    assert fidelity(rho, target("bell1", phi=0.0)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_pure_target_reduction():
    # against a pure target the Uhlmann form collapses to <psi|rho|psi>
    for vec in (target("bell1", phi=0.7).vector, target("bell2").vector, singlet_vector()):
        rho = random_density()
        direct = float((vec.conj() @ rho @ vec).real)
        assert fidelity(rho, np.outer(vec, vec.conj())) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("kind", ["bell1", "bell2"])
def test_pure_target_fidelity_matches_the_uhlmann_route(kind):
    tgt = target(kind, phi=2.3)
    rhos = np.concatenate([density_stack(3, 40),
                           assemble_density(analytic_elements(superpose([(0, 1), (2, 1j)], 8),
                                                              np.linspace(0.0, 6.0, 40)))])
    assert np.max(np.abs(fidelity(rhos, tgt) - fidelity(rhos, tgt.matrix))) <= 5e-8


def uhlmann_reference(rho, sigma):
    """The Uhlmann formula exactly as fidelity evaluates it for mixed targets."""
    def sqrtm(m):
        evals, evecs = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
        evals = np.clip(evals, 0.0, None)
        evals[evals < 1e-14 * np.maximum(evals[..., -1:], 1e-300)] = 0.0
        return (evecs * np.sqrt(evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    sq = sqrtm(rho)
    tr = np.trace(sqrtm(sq @ sigma @ sq), axis1=-2, axis2=-1).real
    return np.minimum(np.maximum(tr * tr, 0.0), 1.0)


def test_werner_target_fidelity_is_the_uhlmann_formula():
    rhos = density_stack(4, 30)
    for eta in (0.0, 0.4, 1.0):
        tgt = target("werner", eta=eta)
        assert np.array_equal(fidelity(rhos, tgt), uhlmann_reference(rhos, tgt.matrix))
        assert fidelity(rhos[0], tgt) == float(uhlmann_reference(rhos[0], tgt.matrix))


def test_fidelity_symmetric():
    a, b = random_density(), random_density()
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


# --- batched measures -------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)


def density_stack(seed, size):
    """size random densities, dense and X-type mixed, as a (size, 4, 4) stack."""
    rng = np.random.default_rng(seed)
    return np.array([random_x_density(rng) if rng.random() < 0.5 else random_density(rng)
                     for _ in range(size)])


@given(seeds, st.integers(1, 8), st.sampled_from([None, "bell1", "bell2", "werner", "mixed"]))
def test_batched_measures_match_per_matrix_calls(seed, size, sigma_kind):
    rhos = density_stack(seed, size)
    if sigma_kind is None:
        sigma = rhos[0]
    elif sigma_kind == "mixed":
        sigma = density_stack(seed + 1, 1)[0]
    else:
        sigma = target(sigma_kind, phi=0.4, eta=0.7)
    conc = concurrence(rhos)
    fid = fidelity(rhos, sigma)
    assert conc.shape == fid.shape == (size,)
    for i, rho in enumerate(rhos):
        assert conc[i] == concurrence(rho)  # exact, whichever routes the stack mixes
        assert abs(fid[i] - fidelity(rho, sigma)) <= 1e-12
        assert isinstance(concurrence(rho), float) and isinstance(fidelity(rho, sigma), float)
        assert 0.0 <= conc[i] <= 1.0 and 0.0 <= fid[i] <= 1.0


@given(st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True), seeds,
       st.lists(st.one_of(st.just(0.0), st.floats(0.0, 12.0)), min_size=1, max_size=9))
def test_batched_concurrence_matches_x_state_closed_form(half_levels, seed, gts):
    # Even levels only: c_n c_{n+1} = 0, so every row is X-type. These rows
    # are often rank deficient, where each of the three small Wootters
    # eigenvalues of the eigen route carries up to sqrt(eps) ~ 1.5e-8 of
    # round-off (1.0e-8 seen over 27,000 random rows), hence 3 sqrt(eps).
    rng = np.random.default_rng(seed)
    fld = superpose([(2 * k, complex(*rng.normal(size=2))) for k in half_levels], dim=28)
    rhos = assemble_density(analytic_elements(fld, np.array(gts)))
    conc = concurrence_wootters(rhos)
    for i, rho in enumerate(rhos):
        assert is_x_type(rho)
        assert abs(conc[i] - concurrence_x_state(rho)) <= 5e-8
    assert np.array_equal(concurrence(rhos), concurrence_x_state(rhos))


@pytest.mark.parametrize("fld", [
    bell1_plan(30, 1.3).field,
    bell1_plan(1, 0.0).field,
    number_state(1, 8),
    superpose([(0, 0.6), (10, 0.8)], 16),
    coherent_state(2.0, 40, parity="even"),
    superpose([(0, 1.0), (1, 0.5j), (3, -0.7)], 8),
    coherent_state(1.5, 40),
], ids=["bell1-m30", "bell1-m1", "single-photon", "werner", "even-cat", "adjacent-levels",
        "coherent"])
def test_concurrence_of_elements_is_that_of_their_matrices_bit_for_bit(fld):
    # X-type fields read the elements through the Yu-Eberly form; fields
    # with adjacent levels (h_plus, h_minus nonzero) are assembled first
    gts = np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 12.0, 40)])
    elems = analytic_elements(fld, gts)
    batch = concurrence(elems)
    assert batch.tobytes() == np.asarray(concurrence(assemble_density(elems))).tobytes()
    for gt, row in zip(gts[:6], batch):
        one = analytic_elements(fld, gt)
        assert concurrence(one) == concurrence(assemble_density(one)) == row
        assert isinstance(concurrence(one), float)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_concurrence_of_elements_rejects_a_non_finite_mu(bad):
    # elements check themselves when made, so no concurrence of them is reached
    for mu in (bad, np.array([0.1, bad])):
        with pytest.raises(ValueError, match="must be finite"):
            XStateElements(v_plus=0.5, v_minus=0.5, w=0.0, h_plus=0.0, h_minus=0.0, mu=mu)
    with pytest.raises(ValueError, match="unit trace"):
        XStateElements(v_plus=0.5, v_minus=0.6, w=0.0, h_plus=0.0, h_minus=0.0, mu=0.1)


def test_one_non_hermitian_matrix_fails_the_whole_batch():
    rhos = density_stack(7, 3)
    rhos[1, 0, 1] += 0.4
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence(rhos)


@pytest.mark.parametrize("shape", [(4,), (3, 3)])
def test_measures_reject_non_density_shapes(shape):
    with pytest.raises(ValueError, match="4x4"):
        concurrence(np.zeros(shape))
    with pytest.raises(ValueError, match="4x4"):
        fidelity(np.zeros(shape), target("bell2"))


MEASURES = {
    "concurrence": concurrence,
    "concurrence_wootters": concurrence_wootters,
    "concurrence_x_state": concurrence_x_state,
    "fidelity_pure": lambda rho: fidelity(rho, target("bell1", phi=0.3)),
    "fidelity_uhlmann": lambda rho: fidelity(rho, target("werner", eta=0.5)),
}


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measures_of_a_stack_of_stacks_equal_the_per_row_calls(name):
    # (F, T, 4, 4), as assemble_density, partial_trace and compare_paths return for F fields
    rhos = np.array([density_stack(5, 3), density_stack(6, 3)])
    values = MEASURES[name](rhos)
    assert values.shape == (2, 3)
    assert all(values[k].tobytes() == MEASURES[name](rhos[k]).tobytes() for k in range(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measures_reject_non_finite_input(name, stacked, bad):
    rho = random_x_density()
    rho[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        MEASURES[name](np.array([random_x_density(), rho]) if stacked else rho)


def test_fidelity_rejects_a_non_finite_target_matrix():
    sigma = target("bell2").matrix.copy()
    sigma[1, 2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        fidelity(random_density(), sigma)


BELL2 = target("bell2")


@pytest.mark.parametrize("matrix, vector, message", [
    (np.full((4, 4), math.nan), None, "matrix must be finite and of shape"),
    (np.diag([math.inf, 0.0, 0.0, 0.0]), None, "matrix must be finite and of shape"),
    (np.eye(3) / 3, None, "matrix must be finite and of shape"),
    (np.eye(4)[None] / 4, None, "matrix must be finite and of shape"),
    (BELL2.matrix, [math.nan, 1.0, 1.0, 0.0], "vector must be finite and of shape"),
    (BELL2.matrix, [0.0, complex(1.0, math.inf), 1.0, 0.0], "vector must be finite and of shape"),
    (BELL2.matrix, [0.0, 1.0, 1.0], "vector must be finite and of shape"),
    (BELL2.matrix, BELL2.matrix, "vector must be finite and of shape"),
], ids=["nan-matrix", "inf-matrix", "3x3-matrix", "stacked-matrix", "nan-vector",
        "inf-vector", "short-vector", "matrix-as-vector"])
def test_targets_check_themselves_when_made(matrix, vector, message):
    # a target that cannot be made never reaches fidelity, so fidelity never returns nan
    with pytest.raises(ValueError, match=message):
        TargetState(matrix, vector)


def test_spin_flip_is_the_signed_index_reversal():
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sigma_y, sigma_y)
    for rhos in (density_stack(7, 50), random_density(), np.array([density_stack(8, 3)] * 2)):
        assert np.array_equal(_spin_flip(rhos), yy @ rhos.conj() @ yy)
