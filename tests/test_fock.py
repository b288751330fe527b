import cmath
import json
import math

import numpy as np
import pytest

from tcqubits import FieldState, bell1_plan, coherent_state, number_state, superpose
from tcqubits.cli import main


def test_number_state_vacuum():
    s = number_state(0, 4)
    assert np.array_equal(s.amplitudes, [1]) and s.dim == 4


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
    s = superpose(list(enumerate(c)), dim=12)
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


@pytest.mark.parametrize("alpha, dim, parity", [(0.02, 3, "odd"), (0.255, 6, "even")])
def test_coherent_tail_is_measured_on_the_projected_state(alpha, dim, parity):
    # the full Poisson series leaves out less than 1e-10 here, the cat more of its own norm
    with pytest.raises(ValueError, match="tail"):
        coherent_state(alpha, dim, parity=parity)


@pytest.mark.parametrize("alpha, dim, parity", [
    (0.05, 4, "odd"), (3.0, 64, "even"), (5.0, 128, "even"), (7.0, 192, "even"),
    (7.0, 4096, "even"), (15.0, 4096, "even"), (7.0, 10**8, "even")])
def test_coherent_cats_within_the_tail_bound_build(alpha, dim, parity):
    # the expected series on at most 4096 levels: it falls from n = alpha^2 on, so where
    # level 4095 lies past alpha^2 and far below exp's underflow, every level above is 0.0
    n = np.arange(min(dim, 4096))
    log_c = n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    assert n.size == dim or (n.size > alpha ** 2 and log_c[-1] < -800)
    poisson = np.exp(log_c)
    poisson[(n % 2 == 0) if parity == "odd" else (n % 2 == 1)] = 0.0
    expected = poisson / np.linalg.norm(poisson)
    field = coherent_state(alpha, dim, parity=parity)
    amps = field.amplitudes   # up to the top nonzero level
    assert field.dim == dim
    assert np.max(np.abs(amps - expected[:amps.size])) < 1e-15
    assert not expected[amps.size:].any()


@pytest.mark.parametrize("alpha, dim, parity", [(30, 10, "any"), (40, 10, "even"), (2.0, 1, "odd")])
def test_coherent_series_that_underflows_or_is_cut_away_is_a_truncation_fault(alpha, dim, parity):
    # every kept amplitude's square underflows, or dim 1 keeps no odd level: the
    # truncation leaves out all of the series, which the projection did not empty
    with pytest.raises(ValueError, match="truncation too small: tail mass 1.000e"):
        coherent_state(alpha, dim, parity=parity)


@pytest.mark.parametrize("dim", [0, -3])
@pytest.mark.parametrize("build", [lambda d: superpose([(0, 1)], d), lambda d: coherent_state(1, d),
                                   lambda d: number_state(0, d)],
                         ids=["superpose", "coherent_state", "number_state"])
def test_constructors_reject_a_dim_below_one(build, dim):
    with pytest.raises(ValueError, match="dim must be >= 1"):
        build(dim)


def test_coherent_bad_parity():
    with pytest.raises(ValueError):
        coherent_state(2, 64, parity="weird")


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


def test_constructors_handle_overflowing_inputs():
    # finite coefficients whose norm overflows are scaled down, with no warning
    big = superpose([(1, 1e200), (3, 1e200j)], dim=8)
    assert np.array_equal(big.amplitudes, superpose([(1, 1.0), (3, 1j)], dim=8).amplitudes)
    with pytest.raises(ValueError, match="overflows"):
        coherent_state(1e200, 16, parity="even")


@pytest.mark.parametrize("scale", [1e-155, 1e-158, 1e-170, 1e-320])
def test_constructors_handle_underflowing_inputs(scale):
    # squares below the smallest normal float lose digits or flush to zero
    # inside the norm, so these are scaled up first, with no warning
    tiny = superpose([(1, scale), (3, scale * 1j)], dim=8)
    assert np.array_equal(tiny.amplitudes, superpose([(1, 1.0), (3, 1j)], dim=8).amplitudes)


def test_field_json_encoding(capsys):
    # plan's JSON report writes its field on all dim levels, m + 5 for bell1
    assert main(["plan", "bell1", "--m", "2", "--phi", "pi/2"]) in (0, 1)
    data = json.loads(capsys.readouterr().out)["field"]
    s = bell1_plan(2, math.pi / 2).field
    assert s.amplitudes.size == 5   # levels 5..6 are zeros in the JSON alone
    assert data == {"dim": 7, "amplitudes": [[float(c.real), float(c.imag)] for c in s.amplitudes]
                    + [[0.0, 0.0]] * 2}
    assert data["amplitudes"][2] == [s.amplitudes[2].real, 0.0]
    assert data["amplitudes"][2][0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert data["amplitudes"][4] == pytest.approx([0.0, 1.0 / math.sqrt(2.0)], abs=1e-15)
    assert all(type(x) is float for pair in data["amplitudes"] for x in pair)


def test_a_field_holds_its_levels_up_to_the_top_nonzero_one_on_dim():
    given = np.array([0.0, 1.0, 0.0, 0.0])
    s = FieldState(given, dim=6)
    assert np.array_equal(s.amplitudes, [0.0, 1.0]) and s.dim == 6
    assert not s.amplitudes.flags.writeable and given.flags.writeable   # a copy, read-only
    assert FieldState(given).dim == 4   # dim defaults to the vector's length
    assert superpose([(2, 1.0)], 10**12).amplitudes.size == 3   # dim is a bound
    with pytest.raises(ValueError, match="4 amplitudes exceed dim 3"):
        FieldState(given, dim=3)
    for not_a_vector in (np.eye(2), np.zeros(0)):
        with pytest.raises(ValueError, match="amplitudes must be a nonempty 1-D vector"):
            FieldState(not_a_vector)


def test_odd_projection_of_the_vacuum_leaves_nothing():
    with pytest.raises(ValueError, match="no amplitude left after odd-parity projection"):
        coherent_state(0, 8, parity="odd")


def test_coherent_state_takes_an_alpha_whose_square_underflows():
    # |alpha|^2 = 0 in floats: the state is |0> + alpha|1> to double precision, and
    # its cats are |0> and |1> with alpha's phase
    alpha = 1e-200 * cmath.exp(0.3j)
    c = coherent_state(alpha, 8).amplitudes
    assert c[0] == 1.0 and c[1] == pytest.approx(alpha, rel=1e-12) and not c[2:].any()
    even = coherent_state(alpha, 8, parity="even")
    assert even.amplitudes.tobytes() == number_state(0, 8).amplitudes.tobytes()
    odd = coherent_state(alpha, 8, parity="odd").amplitudes
    assert odd[1] == pytest.approx(cmath.exp(0.3j), abs=1e-15)
    assert not np.delete(odd, 1).any()
