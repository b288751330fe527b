import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tcqubits import (JointState, XStateElements, analytic_elements, apply_propagator,
                      assemble_density, check_density, coherent_state, density_to_json,
                      is_x_type, number_state, partial_trace, superpose)
from tcqubits.reduced import BLOCK_ENTRIES

RNG = np.random.default_rng(918273)


def random_field(dim=32, max_support=24, rng=RNG):
    support = int(rng.integers(1, max_support + 1))
    amps = np.zeros(dim, dtype=complex)
    amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    amps /= np.linalg.norm(amps)
    return superpose(list(enumerate(amps[:support])), dim, normalize=True)


def analytic_rho(field, gt):
    return assemble_density(analytic_elements(field, gt))


def pipeline_rho(field, gt):
    return partial_trace(apply_propagator(JointState.from_field(field, "gg"), gt))


def test_elements_at_time_zero():
    f = random_field()
    e = analytic_elements(f, 0.0)
    assert e.v_minus == pytest.approx(1.0, abs=1e-12)
    assert e.v_plus == e.w == 0.0
    assert e.h_plus == e.h_minus == e.mu == 0


def test_single_photon_central_element():
    # closed form: w = p = sin^2(sqrt(2) gt) / 2, everything else zero
    f = number_state(1, 8)
    for gt in np.linspace(0, 4.5, 25):
        e = analytic_elements(f, float(gt))
        assert e.w == pytest.approx(0.5 * math.sin(math.sqrt(2) * gt) ** 2, abs=1e-12)
        assert e.p == e.w
        assert e.v_plus == pytest.approx(0.0, abs=1e-12)
        assert abs(e.mu) < 1e-14 and abs(e.h_plus) < 1e-14 and abs(e.h_minus) < 1e-14


def test_vacuum_plus_ten_element_formulas():
    # literal closed forms for the c0|0> + c10|10> field
    c10_sq = 0.726
    f = superpose([(0, math.sqrt(1 - c10_sq)), (10, math.sqrt(c10_sq))], dim=16)
    for gt in np.linspace(0.05, 2.2, 23):
        e = analytic_elements(f, float(gt))
        u = math.cos(math.sqrt(38) * gt)
        assert e.v_plus == pytest.approx((90 / 361) * c10_sq * (u - 1) ** 2, abs=1e-12)
        assert e.w == pytest.approx((5 / 19) * c10_sq * math.sin(math.sqrt(38) * gt) ** 2, abs=1e-12)
        assert e.v_minus == pytest.approx(
            (1 - c10_sq) + c10_sq * (1 + (10 / 19) * (u - 1)) ** 2, abs=1e-12)
        assert abs(e.mu) < 1e-14 and abs(e.h_plus) < 1e-14 and abs(e.h_minus) < 1e-14


def test_analytic_equals_partial_trace():
    # the two computation routes must agree elementwise for initial |gg>
    for _ in range(50):
        f = random_field()
        gt = float(RNG.uniform(0, 12))
        assert np.max(np.abs(analytic_rho(f, gt) - pipeline_rho(f, gt))) <= 1e-10


def test_partial_trace_product_state():
    f = random_field()
    rho = partial_trace(JointState.from_field(f, "gg"))
    assert np.allclose(rho, np.diag([0, 0, 0, 1.0]), atol=1e-14)


def test_partial_trace_other_initial_qubits():
    # the generic route accepts initial states the closed form does not cover
    f = number_state(1, 8)
    rho = partial_trace(apply_propagator(JointState.from_field(f, "eg"), 0.7))
    check_density(rho)
    assert rho[0, 0].real > 0  # one excitation can climb to |ee>


def test_assemble_bell1_layout():
    e = XStateElements(v_plus=0.5, v_minus=0.5, w=0.0, h_plus=0, h_minus=0, mu=-0.5)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    expected[0, 3] = expected[3, 0] = -0.5
    assert np.array_equal(assemble_density(e), expected)


def test_assemble_bell2_layout():
    e = XStateElements(v_plus=0.0, v_minus=0.0, w=0.5, h_plus=0, h_minus=0, mu=0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1:3, 1:3] = 0.5
    assert np.array_equal(assemble_density(e), expected)


def test_assemble_werner_layout():
    third, sixth = 1 / 3, 1 / 6
    e = XStateElements(v_plus=third, v_minus=third, w=sixth, h_plus=0, h_minus=0, mu=0)
    expected = np.diag([third, sixth, sixth, third]).astype(complex)
    expected[1, 2] = expected[2, 1] = sixth
    assert np.array_equal(assemble_density(e), expected)


def test_assemble_conjugation_convention():
    # the first row holds conjugates; the first column the plain values
    e = XStateElements(v_plus=0.3, v_minus=0.4, w=0.15,
                       h_plus=0.01 + 0.02j, h_minus=0.03 - 0.01j, mu=0.05j)
    rho = assemble_density(e)
    assert rho[1, 0] == e.h_plus and rho[0, 1] == np.conj(e.h_plus)
    assert rho[3, 0] == e.mu and rho[0, 3] == np.conj(e.mu)
    assert rho[3, 1] == e.h_minus and rho[1, 3] == np.conj(e.h_minus)
    assert np.allclose(rho, rho.conj().T, atol=0)


def test_elements_validate_trace():
    with pytest.raises(ValueError):
        XStateElements(v_plus=0.6, v_minus=0.6, w=0.1, h_plus=0, h_minus=0, mu=0).validate()


def test_is_x_type_werner():
    third, sixth = 1 / 3, 1 / 6
    rho = np.diag([third, sixth, sixth, third]).astype(complex)
    rho[1, 2] = rho[2, 1] = sixth
    assert is_x_type(rho, 1e-12)


def test_is_x_type_even_coherent():
    f = coherent_state(2, 64, parity="even")
    for gt in (0.3, 1.7, 5.2):
        assert is_x_type(analytic_rho(f, gt), 1e-12)


def test_is_x_type_adjacent_pair_fails():
    f = superpose([(3, 1), (4, 1)], dim=10)
    assert not is_x_type(analytic_rho(f, 0.8), 1e-6)


def test_x_condition_theorem_random_sparse_fields():
    # fields with c_n c_{n+1} = 0 keep the reduced matrix X-type at all times
    for _ in range(20):
        levels = sorted(RNG.choice(np.arange(0, 24, 2), size=4, replace=False))
        terms = [(int(n), complex(RNG.normal(), RNG.normal())) for n in levels]
        f = superpose(terms, dim=32)
        gt = float(RNG.uniform(0, 10))
        assert is_x_type(analytic_rho(f, gt), 1e-12)


def test_density_properties_random():
    for _ in range(50):
        rho = analytic_rho(random_field(), float(RNG.uniform(0, 10)))
        check_density(rho)  # hermitian, unit trace, positivity floor


def test_eg_ge_symmetry_for_gg_initial():
    for _ in range(10):
        rho = pipeline_rho(random_field(), float(RNG.uniform(0, 8)))
        assert rho[1, 1] == pytest.approx(rho[2, 2], abs=1e-12)
        assert rho[0, 1] == pytest.approx(rho[0, 2], abs=1e-12)
        assert rho[1, 3] == pytest.approx(rho[2, 3], abs=1e-12)


def test_check_density_rejects_bad_matrices():
    with pytest.raises(ValueError):
        check_density(np.eye(4))  # trace 4
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.3  # not hermitian
    with pytest.raises(ValueError):
        check_density(bad)
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        check_density(negative)


def test_density_json_encoding():
    rho = analytic_rho(random_field(), 1.3)
    data = density_to_json(rho)
    assert data == {"basis": ["ee", "eg", "ge", "gg"],
                    "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in rho]}
    assert all(type(x) is float for row in data["matrix"] for pair in row for x in pair)


# --- batched kernel ---------------------------------------------------------

ELEMENT_NAMES = ("v_plus", "v_minus", "w", "h_plus", "h_minus", "mu")
_parts = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def fields(draw):
    """Random fields with sparse (a few levels) or dense (a prefix of levels) support."""
    dim = draw(st.integers(4, 40))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, dim - 3), min_size=1, max_size=4, unique=True))
    else:
        levels = range(draw(st.integers(1, dim - 2)))
    amps = [complex(draw(_parts), draw(_parts)) for _ in levels]
    assume(np.linalg.norm(amps) > 1e-3)
    return superpose(list(zip(levels, amps)), dim)


gt_vectors = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 12.0)), min_size=1, max_size=9)


@given(fields(), gt_vectors)
def test_batched_elements_and_density_match_scalar_calls(f, gts):
    batch = analytic_elements(f, np.array(gts))
    rhos = assemble_density(batch)
    assert rhos.shape == (len(gts), 4, 4)
    for i, gt in enumerate(gts):
        e = analytic_elements(f, gt)
        assert isinstance(e.v_plus, float) and isinstance(e.mu, complex)
        for name in ELEMENT_NAMES:
            assert abs(getattr(batch, name)[i] - getattr(e, name)) <= 1e-15
        rho = assemble_density(e)
        assert rho.shape == (4, 4)
        assert np.max(np.abs(rhos[i] - rho)) <= 1e-15


def test_long_batch_spans_blocks_and_matches_scalar_calls():
    f = coherent_state(2.5, 64, parity="even")
    gts = np.linspace(0.0, 9.0, 3 * (BLOCK_ENTRIES // 65) + 5)  # four blocks at dim 64
    rhos = assemble_density(analytic_elements(f, gts))
    assert all(np.array_equal(rhos[i], analytic_rho(f, gt)) for i, gt in enumerate(gts))


@given(fields(), gt_vectors, st.data())
def test_nan_gt_anywhere_is_rejected(f, gts, data):
    gts.insert(data.draw(st.integers(0, len(gts))), math.nan)
    with pytest.raises(ValueError, match="finite"):
        analytic_elements(f, np.array(gts))


def test_elements_reject_a_matrix_of_times():
    with pytest.raises(ValueError, match="1-D"):
        analytic_elements(number_state(1, 8), np.zeros((2, 2)))


@pytest.mark.parametrize("bad_row, message", [
    (dict(v_plus=0.6, v_minus=0.6, w=0.1), "unit trace"),
    (dict(v_plus=1.2, v_minus=-0.2, w=0.0), "outside"),
])
def test_one_bad_row_fails_the_whole_batch(bad_row, message):
    good = dict(v_plus=0.25, v_minus=0.25, w=0.25)
    rows = [good, bad_row, good]
    elems = XStateElements(**{k: np.array([r[k] for r in rows]) for k in good},
                           h_plus=np.zeros(3, complex), h_minus=np.zeros(3, complex),
                           mu=np.zeros(3, complex))
    with pytest.raises(ValueError, match=message):
        elems.validate()
    with pytest.raises(ValueError, match=message):
        assemble_density(elems)
