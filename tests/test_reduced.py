import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tcqubits import (FieldState, JointState, XStateElements, analytic_elements,
                      apply_propagator, assemble_density, bell1_plan, check_density,
                      coherent_state, is_x_type, number_state, partial_trace, reduced, superpose)
from tcqubits.cli import _re_im, build_field, main

RNG = np.random.default_rng(918273)


def random_field(dim=32, max_support=24, rng=RNG):
    support = int(rng.integers(1, max_support + 1))
    amps = np.zeros(dim, dtype=complex)
    amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    amps /= np.linalg.norm(amps)
    return superpose(list(enumerate(amps[:support])), dim)


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


def random_amplitudes(levels, rng=RNG):
    return list(zip(levels, rng.normal(size=len(levels)) + 1j * rng.normal(size=len(levels))))


@pytest.mark.parametrize("field", [
    superpose([(0, 0.6), (1, 0.8j)], 12),     # e vanishes on both levels, h on level 0
    superpose([(6, 0.6 - 0.2j), (7, -0.5 + 0.6j)], 12),   # h_plus and h_minus pairs only
    superpose([(6, 0.6 + 0.3j), (8, -0.5j)], 12),         # one mu pair only
    superpose([(9, 1.0), (11, -1j)], 12),     # support at dim - 1
    number_state(11, 12),
    number_state(0, 8),
    coherent_state(4.0, 64, parity="even"),
    superpose(random_amplitudes(range(24)), 24),
    superpose(random_amplitudes([0, 1, 3, 4, 5, 8, 10, 13, 14, 17, 19, 22, 23]), 24),
], ids=["levels-0-1", "adjacent-only", "gap-of-two", "pair-at-top", "top-level", "vacuum",
        "even-cat", "full-support", "mixed-gaps-to-top"])
def test_sparse_sums_equal_partial_trace(field):
    gts = np.linspace(0.0, 12.0, 57)
    assert np.max(np.abs(analytic_rho(field, gts) - pipeline_rho(field, gts))) <= 1e-12


@pytest.mark.parametrize("field, manifolds", [
    (coherent_state(6.6, 192, parity="even"), 96),
    (bell1_plan(30, math.pi).field, 2),
], ids=["even-cat-dim-192", "bell1-m30"])
def test_coefficients_are_taken_on_the_support_manifolds_only(field, manifolds, monkeypatch):
    seen = []
    abc = reduced.abc

    def recording_abc(n, gt):
        seen.append(np.shape(n))
        return abc(n, gt)

    monkeypatch.setattr(reduced, "abc", recording_abc)
    assert np.count_nonzero(field.amplitudes) == manifolds
    analytic_elements(field, np.linspace(0.0, 12.0, 9))
    analytic_elements(field, 0.7)
    assert seen == [(manifolds,)] * 2


def test_support_terms_are_reused_on_one_field_only():
    # the memo holds terms derived from the most recent field, never a result
    amps = bell1_plan(30, 1.3).field.amplitudes
    first, twin = FieldState(amps), FieldState(amps.copy())
    reduced._support_terms.cache_clear()
    gts = np.linspace(0.0, 3.0, 7)
    a = analytic_elements(first, gts)
    b = analytic_elements(first, gts[::-1])
    assert reduced._support_terms.cache_info()[:2] == (1, 1)   # (hits, misses)
    assert np.array_equal(a.mu, b.mu[::-1]) and not np.array_equal(a.mu, b.mu)
    c = analytic_elements(twin, gts)
    assert reduced._support_terms.cache_info()[:2] == (1, 2)
    assert reduced._support_terms(twin) is not reduced._support_terms(first)
    assert all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(c)))


def test_stack_of_fields_with_and_without_pairs_equals_one_field_calls():
    # adjacent pairs at the top of the first field and the bottom of the second, whose
    # levels dim - 1 and 0 meet in the stack; the third, X-type field has a mu pair only
    dim = 24
    fields = [superpose([(dim - 2, 0.6 - 0.2j), (dim - 1, -0.5 + 0.6j)], dim),
              superpose([(0, 0.6), (1, 0.8j)], dim),
              superpose([(3, 1.0), (5, 0.5j), (9, -0.25)], dim)]
    gts = np.linspace(0.0, 12.0, 57)
    stacked = analytic_elements(fields, gts)
    for k, field in enumerate(fields):
        alone = analytic_elements(field, gts)
        for name in ELEMENT_NAMES:
            assert getattr(stacked, name)[k].tobytes() == getattr(alone, name).tobytes(), (k, name)
        assert np.max(np.abs(assemble_density(alone) - pipeline_rho(field, gts))) <= 1e-12
    assert np.count_nonzero(stacked.h_minus[:2], axis=-1).all()   # the first two have pairs
    for name in ("h_plus", "h_minus"):
        x_row = getattr(stacked, name)[2]
        assert not x_row.any() and not np.signbit([x_row.real, x_row.imag]).any()   # all +0.0


def test_elements_of_a_sparse_field_allocate_nothing_that_grows_with_dim():
    field = superpose([(0, 1), (3_000_000, 1)], 3_000_001)
    gts = np.linspace(0.0, 12.0, 256)
    tracemalloc.start()
    try:
        analytic_elements(field, gts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        reduced._support_terms.cache_clear()   # let the 48 MB field go
    assert peak < 2 ** 20


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
    with pytest.raises(ValueError, match="density matrix must be 4x4"):
        check_density(np.eye(3) / 3)
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.3  # not hermitian
    with pytest.raises(ValueError):
        check_density(bad)
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        check_density(negative)
    # non-finite input is rejected before any arithmetic can warn or fail to converge
    for non_finite in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="must be finite"):
            check_density(non_finite)


def test_batched_elements_encode_as_nested_lists_of_their_rows():
    # the report's one [re, im] encoder nests like the array it is given
    fields = [superpose([(3, 1), (4, 1j)], 12), number_state(1, 12)]
    gts = np.array([0.0, 0.4, 1.1])
    batch = analytic_elements(fields, gts)
    for name in ELEMENT_NAMES:
        value = json.loads(json.dumps(_re_im(getattr(batch, name))))
        assert value == [[_re_im(getattr(analytic_elements(f, gt), name)) for gt in gts]
                         for f in fields]


def test_density_json_encoding(capsys):
    fld = random_field()
    recipe = ";".join(f"{n}:{c.real:.17g},{c.imag:.17g}" for n, c in enumerate(fld.amplitudes))
    assert main(["scan", "--field", recipe, "--dim", str(fld.dim), "--gt-min", "1.3",
                 "--gt-max", "2", "--steps", "2", "--format", "json", "--outputs", "density"]) == 0
    data = json.loads(capsys.readouterr().out)["rows"][0]["density"]
    rho = analytic_rho(build_field(recipe, fld.dim)[0], 1.3)
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


def test_long_batch_matches_scalar_calls():
    f = coherent_state(2.5, 64, parity="even")
    gts = np.linspace(0.0, 9.0, 95)
    rhos = assemble_density(analytic_elements(f, gts))
    assert all(np.array_equal(rhos[i], analytic_rho(f, gt)) for i, gt in enumerate(gts))


def test_long_batch_matches_scalar_calls_with_every_pair_kind():
    # adjacent pairs (h_plus, h_minus) and gap-of-two pairs (mu) on one field
    f = superpose(random_amplitudes(range(40)), 48)
    gts = np.linspace(0.0, 9.0, 95)
    batch = analytic_elements(f, gts)
    for i, gt in enumerate(gts):
        e = analytic_elements(f, gt)
        assert all(getattr(batch, name)[i] == getattr(e, name) for name in ELEMENT_NAMES)


@given(fields(), gt_vectors, st.data())
def test_nan_gt_anywhere_is_rejected(f, gts, data):
    gts.insert(data.draw(st.integers(0, len(gts))), math.nan)
    with pytest.raises(ValueError, match="finite"):
        analytic_elements(f, np.array(gts))


def test_elements_reject_a_matrix_of_times():
    with pytest.raises(ValueError, match="1-D"):
        analytic_elements(number_state(1, 8), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ELEMENT_NAMES)
def test_elements_reject_a_non_finite_entry_when_made(name, bad):
    good = dict(v_plus=0.25, v_minus=0.25, w=0.25, h_plus=0.1j, h_minus=-0.1j, mu=0.1)
    with pytest.raises(ValueError, match="must be finite"):
        XStateElements(**{**good, name: bad})
    batch = {k: np.full((2, 3), v) for k, v in good.items()}
    batch[name][1, 2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        XStateElements(**batch)


def test_elements_of_more_than_one_shape_are_rejected_when_made():
    with pytest.raises(ValueError, match="of one shape"):
        XStateElements(v_plus=np.zeros(2), v_minus=np.ones(2), w=np.zeros(2),
                       h_plus=0.0, h_minus=0.0, mu=0.0)
    with pytest.raises(ValueError, match="of one shape"):
        XStateElements(**{name: np.zeros((2, 3) if name == "mu" else 3, complex)
                          for name in ELEMENT_NAMES[1:]}, v_plus=np.ones(3))


@pytest.mark.parametrize("bad_row, message", [
    (dict(v_plus=0.6, v_minus=0.6, w=0.1), "unit trace"),
    (dict(v_plus=1.2, v_minus=-0.2, w=0.0), "outside"),
])
def test_one_bad_row_fails_the_whole_batch(bad_row, message):
    good = dict(v_plus=0.25, v_minus=0.25, w=0.25)
    rows = [good, bad_row, good]
    with pytest.raises(ValueError, match=message):   # checked when made
        XStateElements(**{k: np.array([r[k] for r in rows]) for k in good},
                       h_plus=np.zeros(3, complex), h_minus=np.zeros(3, complex),
                       mu=np.zeros(3, complex))
