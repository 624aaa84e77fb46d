import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_embed import (CyclicAction, DimensionError, FormError, ParameterError,
                         act, dft, idft, make_cyclic_action,
                         make_translation_action, orbit, quotient_distance,
                         to_fourier_domain)
from orbit_embed import action as action_module
from orbit_embed import errors
from orbit_embed.errors import check_param
from orbit_embed.oracles import exhaustive_orbit_distance, same_orbit

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

    @pytest.mark.parametrize("m,weights", [
        (12.7, [13, 1]),  # a float order would give fractional weights
        (12, [1.5, 2]),  # a float weight would be truncated
        (True, [5]),  # a boolean is not an order
        (12, [1, True]),
        (12, "12"),
        (12, np.array([[1, 2]])),
        (12, np.array([1.0, 2.0])),
    ])
    def test_non_integer_order_or_weights_rejected(self, m, weights):
        with pytest.raises(ParameterError):
            make_cyclic_action(m, weights)

    def test_integer_arrays_and_ranges_accepted(self):
        assert make_cyclic_action(np.int64(12), np.array([6, -3])).weights == (6, 9)
        assert make_cyclic_action(5, range(5)).weights == (0, 1, 2, 3, 4)


class TestOrdersWithoutATable:
    """An order whose (m, n) table of group elements cannot be built is refused
    with ParameterError naming action.m, before anything is allocated: at
    2**63 - 1 its exponents k * e_i overflow int64, at 2**40 building it takes
    about 96 TiB."""

    @pytest.mark.parametrize("m", [2**63 - 1, 2**40])
    @pytest.mark.parametrize("call", [
        lambda a: orbit(a, [1, 1j]),
        lambda a: act(a, 3, [1, 1j]),
        lambda a: quotient_distance(a, [1, 0], [0, 1]),
    ], ids=["orbit", "act", "quotient_distance"])
    def test_refused(self, m, call):
        with pytest.raises(ParameterError, match=f"action.m = {m} is too large"):
            call(make_cyclic_action(m, [1, 2]))

    def test_the_prime_rule_is_the_table_rule(self, monkeypatch):
        # with memory for a 7 x 7 table only, p = 7 passes and p = 11 is refused,
        # as the modulation action of order 11 is
        monkeypatch.setattr(errors, "_memory_bytes", lambda: 48 * 7 * 7)
        check_param(p=7)
        action_module._powers(make_cyclic_action(7, range(7)))
        with pytest.raises(ParameterError, match="p must be a prime"):
            check_param(p=11)
        with pytest.raises(ParameterError, match="action.m = 11 is too large"):
            action_module._powers(make_cyclic_action(11, range(11)))


class TestTablesLiveOnTheAction:
    def test_freed_with_the_action(self, rng):
        # a module-level cache kept up to 64 tables after their actions were gone
        action = make_translation_action(8)
        x = unit_vector(rng, 8)
        assert quotient_distance(action, x, act(action, 3, x)) == pytest.approx(0.0, abs=1e-12)
        tables = [weakref.ref(action._phases), weakref.ref(action._shifts)]
        del action
        gc.collect()
        assert [table() for table in tables] == [None, None]


class TestMakeTranslationAction:
    @pytest.mark.parametrize("n", [8.5, True, 0, -3, "8"])
    def test_non_positive_integer_rejected(self, n):
        with pytest.raises(ParameterError):
            make_translation_action(n)


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

    @pytest.mark.parametrize("k", [1.5, True, np.True_, "1", None, np.array([1.5]),
                                   [1, True], np.array([True])])
    def test_non_integer_power_rejected(self, z12_action, k):
        # 1.5 raised numpy's IndexError and True applied T^1
        with pytest.raises(ParameterError, match="k must be"):
            act(z12_action, k, np.ones(5))

    def test_integer_powers_accepted(self, z12_action, translation_action, rng):
        for action in (z12_action, translation_action):
            x = rng.standard_normal((2, action.n)) + 0j
            expected = np.array([act(action, 3, x[0]), act(action, -4, x[1])])
            for k in ([3, -4], (3, -4), np.array([3, -4]),
                      np.array([3, action.m - 4], dtype=np.uint8)):
                np.testing.assert_array_equal(act(action, k, x), expected)
            np.testing.assert_array_equal(act(action, np.int64(3), x[0]), expected[0])

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

    def test_batches_of_different_lengths_rejected(self, z12_action):
        with pytest.raises(DimensionError):
            quotient_distance(z12_action, np.ones((3, 5)), np.ones((4, 5)))

    def test_one_signal_pairs_with_every_row(self, z12_action, rng):
        x = unit_vector(rng, 5)
        y = np.array([unit_vector(rng, 5) for _ in range(4)])
        each = [quotient_distance(z12_action, x, row) for row in y]
        for one in (x, x[None]):
            np.testing.assert_array_equal(quotient_distance(z12_action, one, y), each)
            np.testing.assert_array_equal(quotient_distance(z12_action, y, one), each)

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

    def test_memory_does_not_grow_with_pairs(self, rng):
        # all m = 2,000 scores of 2,000 pairs at once take about 96 MB; one
        # block of 8 pairs takes one BLOCK_BYTES
        action = make_cyclic_action(2000, [1, 3])
        x, y = (rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
                for _ in range(2))
        quotient_distance(action, x, y)  # builds the cached phase table
        tracemalloc.start()
        try:
            quotient_distance(action, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * action_module.BLOCK_BYTES, peak

    def test_orbit_shape(self, z12_action, rng):
        x = unit_vector(rng, 5)
        orb = orbit(z12_action, x)
        assert orb.shape == (12, 5)
        np.testing.assert_array_equal(orb[0], x)


def enumerated_distance(action, x, y):
    """The quotient distance as every group element gives it, in both orientations."""
    best = np.inf
    for k in range(action.m):
        best = np.minimum(best, np.minimum(np.linalg.norm(act(action, k, y) - x, axis=-1),
                                           np.linalg.norm(act(action, k, x) - y, axis=-1)))
    return best


def adversarial_pairs(action, rng, S):
    """S pairs of rows; the first eight are one of each kind, the rest random kinds:
    generic, same orbit, near tie, equidistant from two images, constant, zero,
    scaled by 1e-165..1e165 (squares that underflow or nearly overflow), non-finite."""
    n, m = action.n, action.m
    x, y = (rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n)) for _ in range(2))
    kinds = rng.integers(0, 8, size=S)
    kinds[:8] = np.arange(min(S, 8))
    for i, kind in enumerate(kinds):
        k, j = rng.integers(0, m, size=2)
        if kind == 1:
            y[i] = act(action, k, x[i])
        elif kind == 2:
            y[i] = act(action, k, x[i]) + 1e-12 * x[i]
        elif kind == 3:  # T^-k y and T^-j y lie equally far from x
            y[i] = (act(action, k, x[i]) + act(action, j, x[i])) / 2
        elif kind == 4:  # every k ties for translation
            x[i], y[i] = x[i, 0], y[i, 0]
        elif kind == 5:
            x[i] = 0.0
            y[i] *= rng.integers(0, 2)
        elif kind == 6:
            scale = 10.0 ** rng.uniform(-165, 165)
            x[i] *= scale
            y[i] *= scale * 10.0 ** rng.uniform(-1, 1)
        elif kind == 7:
            x[i, rng.integers(0, n)] = rng.choice(
                [np.nan, np.inf, -np.inf, complex(np.inf, np.inf)])
    return x, y


class TestQuotientDistanceIsTheEnumeration:
    """Scoring every k by one product and recomputing only the nearest exactly
    returns the float that enumerating every k returns, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_enumeration(self, data):
        if data.draw(st.booleans(), label="translation"):
            action = make_translation_action(data.draw(st.integers(1, 39), label="n"))
        else:
            action = random_diagonal_action(data)
        S = data.draw(st.integers(0, 40), label="S")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x, y = adversarial_pairs(action, rng, S)
        with np.errstate(all="ignore"):  # inf - inf in the non-finite rows
            d = quotient_distance(action, x, y)
            # one signal at a time: numpy rounds the complex product of a (1,)
            # and a (1, 1) array, the loop's one-row one-coordinate batch, by
            # another kernel than every other shape
            expected = np.array([enumerated_distance(action, a, b) for a, b in zip(x, y)])
            if (S, action.n) != (1, 1):
                np.testing.assert_array_equal(enumerated_distance(action, x, y), expected)
        assert d.shape == (S,)
        np.testing.assert_array_equal(d, expected)

    @pytest.mark.parametrize("n", [36, 64])
    def test_equals_the_enumeration_where_squares_are_subnormal(self, n, rng):
        # below about 1e-154 the squared entries lose the relative accuracy the
        # candidate slack assumes; such rows are enumerated for every k
        action = make_translation_action(n)
        x, y = ((rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n)))
                * 10.0 ** rng.uniform(-170, -150, size=(400, 1)) for _ in range(2))
        expected = np.array([enumerated_distance(action, a, b) for a, b in zip(x, y)])
        np.testing.assert_array_equal(quotient_distance(action, x, y), expected)

    @pytest.mark.parametrize("case", ["cyclic_m2000", "translation_n64"])
    def test_equals_the_enumeration_across_blocks(self, case, monkeypatch, rng):
        # the test above never fills a block (at m <= 39 one holds 420 rows or
        # more); here S = 20 pairs go in blocks of 8 rows (m = 2,000), and S = 37
        # in blocks of 5 rows (BLOCK_BYTES patched to five rows of 64 values)
        if case == "cyclic_m2000":
            action, S, rows = make_cyclic_action(2000, [1, 3]), 20, 8
        else:
            action, S, rows = make_translation_action(64), 37, 5
            monkeypatch.setattr(action_module, "BLOCK_BYTES", 16 * 64 * 5)
        assert next(action_module.blocks(S, max(action.n, action.m))).stop == rows
        x, y = adversarial_pairs(action, rng, S)
        with np.errstate(all="ignore"):  # inf - inf in the non-finite rows
            d = quotient_distance(action, x, y)
            expected = np.array([enumerated_distance(action, a, b) for a, b in zip(x, y)])
        np.testing.assert_array_equal(d, expected)

    def test_every_kind_of_row_is_drawn(self, z12_action, rng):
        x, y = adversarial_pairs(z12_action, rng, 8)
        assert np.isfinite(x[:7]).all() and not np.isfinite(x[7]).all()
        assert not x[5].any() and np.ptp(x[4]) == 0
        with np.errstate(all="ignore"):
            d = quotient_distance(z12_action, x, y)
        assert d[1] <= 1e-15 and 0 < d[2] < 1e-11 and not np.isfinite(d[7])


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

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_zero_length_rejected(self, shape):
        for fn in (dft, idft):
            with pytest.raises(DimensionError):
                fn(np.zeros(shape))

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


class TestOrbitOracle:
    """The oracle builds T^k y from the generator's definition, so a fault in
    the action's lookup tables shows as a disagreement."""

    @pytest.fixture
    def pair(self, z12_action, rng):
        x = unit_vector(rng, 5)
        return x, act(z12_action, 5, x)  # one orbit

    def test_agrees_with_the_tables(self, z12_action, pair):
        assert quotient_distance(z12_action, *pair) == pytest.approx(0.0, abs=1e-12)
        assert exhaustive_orbit_distance(z12_action, *pair) == pytest.approx(0.0, abs=1e-12)
        assert same_orbit(z12_action, *pair)

    def test_sees_weights_off_by_one_in_the_phase_table(self, z12_action, pair, monkeypatch):
        table = CyclicAction._phases.func

        def off_by_one(action):
            return table(CyclicAction(m=action.m, n=action.n, form=action.form,
                                      weights=tuple((e + 1) % action.m for e in action.weights)))

        # a data descriptor wins over a table already cached on the instance
        monkeypatch.setattr(CyclicAction, "_phases", property(off_by_one))
        mutant = quotient_distance(z12_action, *pair)
        oracle = exhaustive_orbit_distance(z12_action, *pair)
        assert oracle == pytest.approx(0.0, abs=1e-12)
        assert same_orbit(z12_action, *pair)
        assert abs(mutant - oracle) > 0.1
