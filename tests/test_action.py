import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_embed import (DimensionError, FormError, ParameterError, act, dft,
                         idft, make_cyclic_action, make_translation_action,
                         orbit, quotient_distance, to_fourier_domain)
from orbit_embed.oracles import exhaustive_orbit_distance

from conftest import unit_vector


def random_diagonal_action(data):
    m = data.draw(st.integers(1, 16), label="m")
    n = data.draw(st.integers(1, 8), label="n")
    weights = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                        label="weights")
    return make_cyclic_action(m, weights)


class TestMakeCyclicAction:
    def test_minus_identity(self):
        action = make_cyclic_action(2, [1, 1])
        x = np.array([1 + 2j, -3j])
        np.testing.assert_array_equal(act(action, 1, x), -x)

    def test_weights_reduced_mod_m(self):
        action = make_cyclic_action(12, [18, -3, 25])
        assert action.weights == (6, 9, 1)

    def test_zero_weight_fixes_coordinate(self):
        action = make_cyclic_action(4, [0, 1])
        x = np.array([1.0 + 0j, 1.0 + 0j])
        moved = act(action, 1, x)
        assert moved[0] == 1.0
        assert moved[1] == pytest.approx(1j)

    def test_empty_weights_rejected(self):
        with pytest.raises(DimensionError):
            make_cyclic_action(2, [])

    def test_zero_order_rejected(self):
        with pytest.raises(ParameterError):
            make_cyclic_action(0, [1])

    @pytest.mark.parametrize("m", [2**63, 10**400])
    def test_order_beyond_int64_rejected(self, m):
        # exponents are stored as int64; 2**63 - 1 is the largest order
        with pytest.raises(ParameterError, match="2\\*\\*63"):
            make_cyclic_action(m, [1])
        assert make_cyclic_action(2**63 - 1, [1]).m == 2**63 - 1


class TestAct:
    def test_translation_shift(self):
        action = make_translation_action(4)
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        np.testing.assert_array_equal(act(action, 1, x), [4.0, 1.0, 2.0, 3.0])

    def test_full_cycle_is_identity(self, z12_action, rng):
        x = unit_vector(rng, z12_action.n)
        np.testing.assert_allclose(act(z12_action, z12_action.m, x), x, atol=1e-12)

    def test_negative_power_reduces(self, z12_action, rng):
        x = unit_vector(rng, z12_action.n)
        np.testing.assert_array_equal(act(z12_action, -1, x),
                                      act(z12_action, z12_action.m - 1, x))

    def test_dimension_mismatch(self, z12_action):
        with pytest.raises(DimensionError):
            act(z12_action, 1, np.zeros(3))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, data):
        action = random_diagonal_action(data)
        k = data.draw(st.integers(-5, 25), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal(action.n) + 1j * rng.standard_normal(action.n)
        assert np.linalg.norm(act(action, k, x)) == pytest.approx(
            np.linalg.norm(x), rel=1e-12)


class TestQuotientDistance:
    def test_same_point_is_zero(self, z12_action, rng):
        x = unit_vector(rng, z12_action.n)
        assert quotient_distance(z12_action, x, x) == 0.0

    def test_translation_same_orbit(self):
        action = make_translation_action(4)
        assert quotient_distance(action, [1, 0, 0, 0], [0, 1, 0, 0]) == 0.0

    def test_distance_to_zero_is_norm(self, z12_action, rng):
        x = 3.7 * unit_vector(rng, z12_action.n)
        assert quotient_distance(z12_action, x, np.zeros(5)) == pytest.approx(
            np.linalg.norm(x), rel=1e-15)

    def test_symmetry_is_exact(self, z12_action, rng):
        for _ in range(50):
            x = unit_vector(rng, 5)
            y = unit_vector(rng, 5)
            assert quotient_distance(z12_action, x, y) == \
                quotient_distance(z12_action, y, x)

    def test_triangle_inequality(self, z12_action, rng):
        for _ in range(50):
            x, y, z = (unit_vector(rng, 5) for _ in range(3))
            dxz = quotient_distance(z12_action, x, z)
            via = quotient_distance(z12_action, x, y) + quotient_distance(z12_action, y, z)
            assert dxz <= via + 1e-12

    def test_group_invariance(self, z12_action, rng):
        # acting on one argument permutes the minimized set
        x = unit_vector(rng, 5)
        y = unit_vector(rng, 5)
        d = quotient_distance(z12_action, x, y)
        for k in range(z12_action.m):
            assert quotient_distance(z12_action, x, act(z12_action, k, y)) == \
                pytest.approx(d, rel=1e-12)

    def test_group_invariance_exact_for_translation(self, rng):
        # shifts are exact permutations, so the float sets coincide
        action = make_translation_action(8)
        x = unit_vector(rng, 8)
        y = unit_vector(rng, 8)
        d = quotient_distance(action, x, y)
        for k in range(8):
            assert quotient_distance(action, x, act(action, k, y)) == d

    def test_orbit_shape(self, z12_action, rng):
        x = unit_vector(rng, 5)
        orb = orbit(z12_action, x)
        assert orb.shape == (12, 5)
        np.testing.assert_array_equal(orb[0], x)


class TestBatch:
    """(S, n) input gives the rows that one (n,) call per row gives."""

    @pytest.fixture(scope="class", params=["z12_action", "translation_action"])
    def action(self, request):
        return request.getfixturevalue(request.param)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_match_per_row_calls(self, action, data):
        S = data.draw(st.integers(0, 12), label="S")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x, y = (rng.standard_normal((S, action.n)) + 1j * rng.standard_normal((S, action.n))
                for _ in range(2))
        y *= (10.0 ** rng.uniform(-3, 3, size=S))[:, None]
        k = data.draw(st.integers(-20, 20), label="k")
        ks = rng.integers(-20, 20, size=S)
        orbits, moved, moved_per_row = orbit(action, x), act(action, k, x), act(action, ks, x)
        d = quotient_distance(action, x, y)
        assert orbits.shape == (S, action.m, action.n) and d.shape == (S,)
        for i in range(S):
            np.testing.assert_array_equal(orbits[i], orbit(action, x[i]))
            np.testing.assert_array_equal(moved[i], act(action, k, x[i]))
            np.testing.assert_array_equal(moved_per_row[i], act(action, ks[i], x[i]))
            assert d[i] == quotient_distance(action, x[i], y[i])
            assert d[i] == pytest.approx(exhaustive_orbit_distance(action, x[i], y[i]),
                                         rel=1e-12)

    def test_one_power_per_row_is_checked(self, action):
        with pytest.raises(DimensionError):
            act(action, [1, 2], np.ones((3, action.n)))
        with pytest.raises(DimensionError):
            act(action, [1, 2], np.ones(action.n))


class TestDft:
    def test_delta(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), 0.5 * np.ones(4), atol=1e-15)

    def test_parseval(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.linalg.norm(dft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_round_trip(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        np.testing.assert_allclose(idft(dft(x)), x, atol=1e-10)

    def test_batch_rows_are_bit_identical(self, rng):
        x = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        for fn in (dft, idft):
            batch = fn(x)
            assert batch.shape == x.shape
            for row, xi in zip(batch, x):
                np.testing.assert_array_equal(row, fn(xi))

    def test_shift_theorem(self, rng):
        # translating in time modulates in frequency with weights e_j = j
        n, k = 8, 3
        translation = make_translation_action(n)
        modulation = to_fourier_domain(translation)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(dft(act(translation, k, x)),
                                   act(modulation, k, dft(x)), atol=1e-10)


class TestToFourierDomain:
    def test_translation_becomes_modulation(self):
        action = to_fourier_domain(make_translation_action(4))
        assert action.form == "diagonal"
        assert action.m == 4
        assert action.weights == (0, 1, 2, 3)

    def test_degenerate_n1(self):
        action = to_fourier_domain(make_translation_action(1))
        assert (action.m, action.weights) == (1, (0,))

    def test_rejects_diagonal(self, z12_action):
        with pytest.raises(FormError):
            to_fourier_domain(z12_action)

    def test_distances_agree_in_both_domains(self, rng):
        translation = make_translation_action(8)
        modulation = to_fourier_domain(translation)
        for _ in range(20):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert quotient_distance(translation, x, y) == pytest.approx(
                quotient_distance(modulation, dft(x), dft(y)), abs=1e-10)
