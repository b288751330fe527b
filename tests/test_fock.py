import math

import numpy as np
import pytest

from tcqubits import FieldState, coherent_state, neighbor_product_zero, number_state, superpose


def test_number_state_vacuum():
    s = number_state(0, 4)
    assert np.array_equal(s.amplitudes, [1, 0, 0, 0])


def test_number_state_single_photon():
    s = number_state(1, 8)
    assert s.amplitudes[1] == 1
    assert np.count_nonzero(s.amplitudes) == 1


def test_number_state_out_of_range():
    with pytest.raises(IndexError):
        number_state(3, 3)


def test_superpose_equal_pair():
    s = superpose([(30, 1), (32, 1)], dim=64)
    assert s.amplitudes[30] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert s.amplitudes[32] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_superpose_preserves_given_probabilities():
    s = superpose([(0, math.sqrt(0.274)), (10, math.sqrt(0.726))], dim=32)
    assert abs(s.amplitudes[0]) ** 2 == pytest.approx(0.274, abs=1e-12)
    assert abs(s.amplitudes[10]) ** 2 == pytest.approx(0.726, abs=1e-12)


def test_superpose_single_term_is_number_state():
    assert np.array_equal(superpose([(5, 1)], dim=8).amplitudes,
                          number_state(5, 8).amplitudes)


def test_superpose_preserves_phases():
    s = superpose([(2, 1j), (4, -1)], dim=8)
    assert s.amplitudes[2] == pytest.approx(1j / math.sqrt(2))
    assert s.amplitudes[4] == pytest.approx(-1 / math.sqrt(2))


def test_superpose_rejects_all_zero():
    with pytest.raises(ValueError):
        superpose([(1, 0.0), (3, 0.0)], dim=8)


def test_superpose_rejects_out_of_range():
    with pytest.raises(IndexError):
        superpose([(9, 1.0)], dim=8)


def test_superpose_linear_in_coefficients():
    # an already-normalized coefficient list passes through untouched
    rng = np.random.default_rng(7)
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    c /= np.linalg.norm(c)
    s = superpose(list(enumerate(c)), dim=12, normalize=False)
    assert np.allclose(s.amplitudes, c, atol=1e-15)
    # global rescaling is removed by normalization, phases kept
    s2 = superpose([(n, 3.7 * v) for n, v in enumerate(c)], dim=12)
    assert np.allclose(s2.amplitudes, c, atol=1e-14)


def test_coherent_alpha_zero_is_vacuum():
    s = coherent_state(0, 8)
    assert np.array_equal(s.amplitudes, number_state(0, 8).amplitudes)


def test_coherent_poisson_weights():
    # brute-force Poisson oracle: |c_n|^2 = e^{-4} 4^n / n!
    s = coherent_state(2, 64)
    for n in range(20):
        expected = math.exp(-4.0) * 4.0 ** n / math.factorial(n)
        assert abs(s.amplitudes[n]) ** 2 == pytest.approx(expected, abs=1e-12)


def test_coherent_phase_convention():
    alpha = 1.5 * np.exp(1j * 0.6)
    s = coherent_state(alpha, 48)
    # c_n proportional to alpha^n
    ratio = s.amplitudes[5] / s.amplitudes[4]
    assert ratio == pytest.approx(alpha / math.sqrt(5), abs=1e-12)


@pytest.mark.parametrize("parity,zeroed", [("even", 1), ("odd", 0)])
def test_coherent_parity_projection(parity, zeroed):
    s = coherent_state(2, 64, parity=parity)
    assert np.all(s.amplitudes[zeroed::2] == 0)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_coherent_truncation_too_small():
    with pytest.raises(ValueError, match="tail"):
        coherent_state(6, 16)


def test_coherent_bad_parity():
    with pytest.raises(ValueError):
        coherent_state(2, 64, parity="weird")


def test_neighbor_product_zero_even_coherent():
    assert neighbor_product_zero(coherent_state(2, 64, parity="even"))


def test_neighbor_product_zero_next_nearest_pair():
    assert neighbor_product_zero(superpose([(30, 1), (32, 1)], dim=64))


def test_neighbor_product_zero_adjacent_pair():
    assert not neighbor_product_zero(superpose([(3, 1), (4, 1)], dim=8))


def test_constructors_normalized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        terms = [(int(n), complex(rng.normal(), rng.normal()))
                 for n in rng.choice(16, size=5, replace=False)]
        assert np.linalg.norm(superpose(terms, dim=16).amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_field_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        FieldState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        FieldState(np.array([np.nan, 0.0, 0.0]))


def test_constructors_reject_nonfinite_inputs():
    with pytest.raises(ValueError, match="finite"):
        superpose([(0, np.nan), (2, 1.0)], dim=8)
    with pytest.raises(ValueError, match="finite"):
        coherent_state(np.nan, 16, parity="even")


def test_has_headroom():
    assert number_state(1, 8).has_headroom()
    assert not number_state(7, 8).has_headroom()
    assert not number_state(6, 8).has_headroom()


def test_field_json_encoding():
    s = superpose([(2, 1j), (5, -2.0)], dim=8)
    data = s.to_json()
    assert data == {"dim": 8,
                    "amplitudes": [[float(c.real), float(c.imag)] for c in s.amplitudes]}
    assert data["amplitudes"][2] == [0.0, 1.0 / math.sqrt(5.0)]
    assert data["amplitudes"][5] == [-2.0 / math.sqrt(5.0), 0.0]
    assert all(type(x) is float for pair in data["amplitudes"] for x in pair)
