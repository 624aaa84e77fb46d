import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_embed import (DimensionError, FormError, PairMonomial,
                         PowerMonomial, act, coordinate_order, eval_invariants,
                         is_homogeneous, is_invariant_monomial,
                         eval_gradient, make_cyclic_action,
                         make_translation_action, pair_exponents,
                         separating_set,
                         separating_set_to_json, to_fourier_domain)
from orbit_embed.invariants import SeparatingSet
from orbit_embed.oracles import exhaustive_orbit_distance, separation_counterexample

from conftest import unit_vector

# every monomial appearing in the explicit Z12-on-C5 example map
Z12_EXAMPLE_MONOMIALS = [
    PowerMonomial(5, 6),            # x5^6
    PairMonomial(4, 5, 1, 5),       # x4 x5^5
    PowerMonomial(4, 6),            # x4^6
    PairMonomial(3, 5, 1, 4),       # x3 x5^4
    PairMonomial(3, 4, 1, 4),       # x3 x4^4
    PairMonomial(2, 5, 2, 3),       # x2^2 x5^3
    PowerMonomial(3, 3),            # x3^3
    PairMonomial(2, 4, 2, 3),       # x2^2 x4^3
    PairMonomial(1, 5, 1, 3),       # x1 x5^3
    PairMonomial(1, 4, 1, 3),       # x1 x4^3
    PairMonomial(1, 2, 1, 2),       # x1 x2^2
    PowerMonomial(1, 2),            # x1^2
]


def brute_force_pair_search(m, e_j, e_k):
    """Independent oracle: scan the full (a, b) grid in order."""
    m_k = coordinate_order(m, e_k)
    for a in range(1, m + 1):
        for b in range(m_k):
            if (a * e_j + b * e_k) % m == 0:
                return a, b
    raise AssertionError("no solution in the search grid")


class TestCoordinateOrder:
    @pytest.mark.parametrize("m,e,expected", [(12, 3, 4), (2, 1, 2), (12, 0, 1),
                                              (12, 6, 2), (12, 5, 12)])
    def test_values(self, m, e, expected):
        assert coordinate_order(m, e) == expected


class TestPairExponents:
    @pytest.mark.parametrize("m,ej,ek,expected", [
        (2, 1, 1, (1, 1)),      # x_j x_k, the phase-retrieval pair
        (12, 2, 2, (1, 5)),     # x4 x5^5 in the Z12 fixture
        (12, 3, 2, (2, 3)),     # x2^2 x5^3
        (12, 3, 4, (4, 0)),     # degenerate: collapses to x_j^4
        (10**9, 1, 2, (2, 499_999_999)),  # closed form; a grid search takes minutes
    ])
    def test_values(self, m, ej, ek, expected):
        assert pair_exponents(m, ej, ek) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_and_is_minimal(self, data):
        m = data.draw(st.integers(1, 20), label="m")
        e_j = data.draw(st.integers(0, m - 1), label="e_j")
        e_k = data.draw(st.integers(0, m - 1), label="e_k")
        a, b = pair_exponents(m, e_j, e_k)
        assert (a, b) == brute_force_pair_search(m, e_j, e_k)
        assert (a * e_j + b * e_k) % m == 0
        assert a >= 1 and 0 <= b < coordinate_order(m, e_k)
        # minimality: no smaller a admits any valid b
        m_k = coordinate_order(m, e_k)
        for smaller in range(1, a):
            assert all((smaller * e_j + bb * e_k) % m for bb in range(m_k))


class TestSeparatingSet:
    def test_minus_identity_entries(self):
        sset = separating_set(make_cyclic_action(2, [1, 1]))
        assert sset.monomials == (PowerMonomial(1, 2), PowerMonomial(2, 2),
                                  PairMonomial(1, 2, 1, 1))
        assert sset.size == 3

    def test_z12_fixture_contains_example_map_monomials(self, z12_set):
        assert z12_set.size == 15
        for mono in Z12_EXAMPLE_MONOMIALS:
            assert mono in z12_set.monomials

    def test_single_coordinate(self):
        sset = separating_set(make_cyclic_action(7, [3]))
        assert sset.monomials == (PowerMonomial(1, 7),)

    def test_rejects_translation_form(self):
        with pytest.raises(FormError, match="to_fourier_domain"):
            separating_set(make_translation_action(4))

    def test_canonical_ordering(self, z12_set):
        singles = z12_set.singles
        assert [s.i for s in singles] == [1, 2, 3, 4, 5]
        pairs = z12_set.pairs
        assert [(p.j, p.k) for p in pairs] == [
            (j, k) for j in range(1, 6) for k in range(j + 1, 6)]

    def test_degenerate_pairs_flagged(self, z12_set):
        assert [(p.j, p.k) for p in z12_set.pairs if p.b == 0] == [(1, 3), (2, 3)]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_and_exact_invariance(self, data):
        m = data.draw(st.integers(1, 16), label="m")
        n = data.draw(st.integers(1, 8), label="n")
        weights = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                            label="weights")
        action = make_cyclic_action(m, weights)
        sset = separating_set(action)
        assert sset.size == n * (n + 1) // 2
        assert all(is_invariant_monomial(action, mono) for mono in sset.monomials)

    def test_numerical_invariance_of_monomials(self, z12_action, z12_set, rng):
        x = unit_vector(rng, 5)
        base = eval_invariants(z12_set, x)
        for k in range(z12_action.m):
            moved = eval_invariants(z12_set, act(z12_action, k, x))
            np.testing.assert_allclose(moved, base, atol=1e-10)


# Actions whose exact separation check enumerates more than this many phase
# vectors, prod(m_i) * 2**n, are skipped; translation n=8 needs 2**25 (0.5 s).
SEPARATION_WORK = 2**26


class TestSeparationTheorem:
    """F(x) = F(y) forces y into the orbit of x, checked exactly by
    ``oracles.separation_counterexample``."""

    @staticmethod
    def check(sset):
        if math.prod(sset.orders) * 2**sset.n > SEPARATION_WORK:
            pytest.skip("beyond the exact separation check's work bound")
        return separation_counterexample(sset)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_actions_separate(self, data):
        m = data.draw(st.integers(1, 12), label="m")
        n = data.draw(st.integers(1, 4), label="n")
        weights = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                            label="weights")
        assert self.check(separating_set(make_cyclic_action(m, weights))) is None

    @pytest.mark.parametrize("fixture", ["minus_identity_pipeline", "z12_pipeline",
                                         "translation_pipeline"])
    def test_shipped_fixture_separates(self, request, fixture):
        assert self.check(request.getfixturevalue(fixture).sset) is None

    def test_pair_replaced_by_a_power_is_detected(self, z12_action, z12_set):
        # x_j ** m_j is invariant but redundant; the sampled separation suite
        # passes all 8 such mutants of z12 (the other 2 pairs already are one)
        mutants = 0
        for index, pair in enumerate(z12_set.pairs, start=z12_set.n):
            power = PairMonomial(pair.j, pair.k, z12_set.orders[pair.j - 1], 0)
            if power == pair:
                continue
            mutants += 1
            monomials = list(z12_set.monomials)
            monomials[index] = power
            mutant = SeparatingSet(z12_action, tuple(monomials))
            support, phases = self.check(mutant)
            assert (pair.j - 1, pair.k - 1) == support
            # the witness: y equal to x up to phases, off x's orbit, with F(y) = F(x)
            x = np.zeros(5, dtype=complex)
            x[list(support)] = [0.6, 0.8j]
            y = x.copy()
            y[list(support)] *= np.exp(2j * np.pi * np.array(phases, dtype=float))
            np.testing.assert_allclose(eval_invariants(mutant, y), eval_invariants(mutant, x),
                                       atol=1e-12)
            assert exhaustive_orbit_distance(z12_action, x, y) > 0.1
        assert mutants == 8


class TestPowerPlan:
    @pytest.mark.parametrize("action, invariant, partial", [
        (to_fourier_domain(make_translation_action(64)), 1695, 2233),
        (make_cyclic_action(12, [6, 3, 4, 2, 2]), 15, 20),
    ])
    def test_each_power_once(self, action, invariant, partial):
        sset = separating_set(action)
        first, a, second, b = sset.index_arrays
        n = sset.n
        for plan, count, factor_sets in [
                (sset.invariant_powers, invariant, [(first, a), (second, b)]),
                (sset.partial_powers, partial, [(first, a - 1), (second, b),
                                                (first[n:], a[n:]),
                                                (second, np.maximum(b - 1, 0))])]:
            coords, exps, *positions = plan
            assert len(set(zip(coords.tolist(), exps.tolist()))) == len(coords) == count
            for at, (index, exponent) in zip(positions, factor_sets, strict=True):
                np.testing.assert_array_equal(coords[at], index)
                np.testing.assert_array_equal(exps[at], exponent)

    @pytest.mark.parametrize("m", [10**9, 2**63 - 1])
    def test_orders_past_any_packed_key(self, m):
        # a key packed as coordinate * (largest exponent + 1) + exponent
        # would overflow int64 at m = 2**63 - 1
        sset = separating_set(make_cyclic_action(m, [1, 2]))
        coords, exps, first_at, second_at = sset.invariant_powers
        assert exps.dtype == np.int64 and int(exps.max()) == sset.orders[0]
        first, a, second, b = sset.index_arrays
        np.testing.assert_array_equal(exps[first_at], a)
        np.testing.assert_array_equal(exps[second_at], b)
        x = np.exp(2j * np.pi * np.array([[0.1, 0.7], [0.25, 0.5]]))
        values = eval_invariants(sset, x)
        np.testing.assert_array_equal(values[:, :2], x ** np.array(sset.orders))
        np.testing.assert_array_equal(values[:, 2], x[:, 0] ** a[2] * x[:, 1] ** b[0])
        assert eval_gradient(sset, x).shape == (2, 3, 2)


class TestIsInvariantMonomial:
    def test_phase_retrieval_pair(self):
        action = make_cyclic_action(2, [1, 1])
        assert is_invariant_monomial(action, PairMonomial(1, 2, 1, 1))

    def test_z12_examples(self, z12_action):
        assert is_invariant_monomial(z12_action, PairMonomial(4, 5, 1, 5))
        assert not is_invariant_monomial(z12_action, PairMonomial(4, 5, 1, 1))

    def test_out_of_range_index(self, z12_action):
        with pytest.raises(DimensionError):
            is_invariant_monomial(z12_action, PowerMonomial(6, 2))


class TestIsHomogeneous:
    @pytest.mark.parametrize("m,weights,expected", [
        (3, [1, 1, 1], True),
        (12, [6, 3, 4, 2, 2], False),
        (2, [1], True),
        (4, [2, 2], False),     # equal weights but not a primitive root
        (1, [0, 0], True),      # trivial group: identity is omega*I with omega = 1
    ])
    def test_values(self, m, weights, expected):
        assert is_homogeneous(make_cyclic_action(m, weights)) is expected

    def test_homogeneous_set_has_total_degree_m(self):
        sset = separating_set(make_cyclic_action(5, [2, 2, 2]))
        for mono in sset.pairs:
            assert mono.a + mono.b == 5

    def test_degree_m_scaling(self, rng):
        action = make_cyclic_action(3, [1, 1, 1, 1])
        sset = separating_set(action)
        x = unit_vector(rng, 4)
        for c in [0.5 + 0.1j, -0.3j, 0.9]:
            np.testing.assert_allclose(eval_invariants(sset, c * x),
                                       c ** 3 * eval_invariants(sset, x),
                                       atol=1e-10)


def listed_monomials(doc: dict) -> tuple:
    """The monomials a JSON document lists, rebuilt from their fields."""
    kinds = {"single": PowerMonomial, "pair": PairMonomial}
    return tuple(kinds[entry["kind"]](**{key: value for key, value in entry.items()
                                         if key != "kind"})
                 for entry in doc["monomials"])


def canonical_monomials(doc: dict) -> tuple:
    """The monomials of a fresh construction for the document's action."""
    return separating_set(make_cyclic_action(doc["m"], doc["weights"])).monomials


class TestSerialization:
    def test_round_trip(self, z12_set):
        doc = json.loads(json.dumps(separating_set_to_json(z12_set)))
        assert listed_monomials(doc) == canonical_monomials(doc) == z12_set.monomials

    def test_schema(self, z12_set):
        doc = separating_set_to_json(z12_set)
        assert set(doc) == {"m", "weights", "monomials"}
        assert doc["m"] == 12 and doc["weights"] == [6, 3, 4, 2, 2]
        assert doc["monomials"][0] == {"kind": "single", "i": 1, "exp": 2}
        assert doc["monomials"][5] == {"kind": "pair", "j": 1, "k": 2, "a": 1, "b": 2}

    def test_tampered_document_rejected(self, z12_set):
        doc = separating_set_to_json(z12_set)
        doc["monomials"][0]["exp"] = 3
        assert listed_monomials(doc) != canonical_monomials(doc)
