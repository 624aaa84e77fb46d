import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_embed import (DataError, DimensionError, ParameterError, act,
                         auto_target_dim, embed, eval_gradient,
                         eval_invariants, lipschitz_bound, make_cyclic_action,
                         make_pipeline, make_reducer, measure, operator_norm,
                         separating_set)
from orbit_embed.oracles import finite_difference_gradient, svd_operator_norm

from conftest import unit_vector


@pytest.fixture(scope="module")
def minus_identity_set():
    return separating_set(make_cyclic_action(2, [1, 1]))


class TestEvalInvariants:
    def test_hand_values(self, minus_identity_set):
        np.testing.assert_array_equal(
            eval_invariants(minus_identity_set, [1, 0]), [1, 0, 0])
        np.testing.assert_array_equal(
            eval_invariants(minus_identity_set, [2, 3]), [4, 9, 6])

    def test_even_under_sign_flip(self, minus_identity_set, rng):
        x = unit_vector(rng, 2)
        np.testing.assert_array_equal(eval_invariants(minus_identity_set, x),
                                      eval_invariants(minus_identity_set, -x))

    def test_invariance_on_fixture_orbits(self, z12_action, z12_set, rng):
        x = unit_vector(rng, 5)
        base = eval_invariants(z12_set, x)
        for k in range(12):
            np.testing.assert_allclose(
                eval_invariants(z12_set, act(z12_action, k, x)), base, atol=1e-10)

    def test_dimension_mismatch(self, z12_set):
        with pytest.raises(DimensionError):
            eval_invariants(z12_set, np.ones(4))


class TestEvalGradient:
    def test_hand_values(self, minus_identity_set):
        jac = eval_gradient(minus_identity_set, [1, 0])
        assert jac[0, 0] == 2            # d(x1^2)/dx1 at x1 = 1
        assert jac[2, 1] == 1            # d(x1 x2)/dx2 at (1, 0)
        assert jac[0, 1] == 0 and jac[1, 0] == 0

    def test_degenerate_pair_has_zero_partial(self, z12_set):
        # pair (1, 3) collapses to x1^2: no x3 dependence even at x3 = 0
        row = 5 + [(p.j, p.k) for p in z12_set.pairs].index((1, 3))
        x = np.zeros(5, dtype=complex)
        jac = eval_gradient(z12_set, x)
        assert jac[row, 2] == 0

    def test_matches_finite_differences(self, z12_set, rng):
        for _ in range(10):
            x = unit_vector(rng, 5)
            gap = np.abs(eval_gradient(z12_set, x)
                         - finite_difference_gradient(z12_set, x)).max()
            assert gap < 1e-5

    def test_matches_finite_differences_translation(self, translation_pipeline, rng):
        sset = translation_pipeline.sset
        x = unit_vector(rng, 8)
        gap = np.abs(eval_gradient(sset, x) - finite_difference_gradient(sset, x)).max()
        assert gap < 1e-5


class TestMakeReducer:
    def test_reproducible(self):
        a = make_reducer(15, 11, seed=42)
        b = make_reducer(15, 11, seed=42)
        assert a.entries.shape == (11, 15)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_seeds_differ(self):
        a = make_reducer(15, 11, seed=1)
        b = make_reducer(15, 11, seed=2)
        assert np.abs(a.entries - b.entries).max() > 1e-6

    def test_identity(self):
        r = make_reducer(3, 3, kind="identity")
        np.testing.assert_array_equal(r.entries, np.eye(3))

    def test_identity_requires_square(self):
        with pytest.raises(ParameterError):
            make_reducer(5, 3, kind="identity")

    def test_no_padding(self):
        with pytest.raises(ParameterError):
            make_reducer(5, 7)

    def test_unit_expected_square_modulus(self):
        r = make_reducer(200, 150, seed=0)
        assert np.mean(np.abs(r.entries) ** 2) == pytest.approx(1.0, abs=0.05)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(make_reducer(3, 3, kind="identity")) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-10)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 4))) == 0.0

    def test_matches_svd_oracle(self):
        # 129 x 2080 is the translation n=64 reducer, whose top singular
        # values lie close together
        for r in (make_reducer(15, 11, seed=42), make_reducer(2080, 129, seed=42)):
            assert operator_norm(r) == pytest.approx(svd_operator_norm(r.entries), abs=1e-8)

    def test_matches_svd_on_wide_gaussian(self):
        r = make_reducer(36, 17, seed=42)
        assert operator_norm(r) == pytest.approx(svd_operator_norm(r.entries), abs=1e-8)


class TestPipeline:
    def test_auto_dimension_small_n_uses_identity(self, minus_identity_pipeline):
        # N = 3 < 2n+1 = 5: reduction is vacuous
        assert minus_identity_pipeline.target_dim == 3
        assert minus_identity_pipeline.reducer.kind == "identity"

    def test_auto_dimension_z12(self, z12_pipeline):
        assert z12_pipeline.target_dim == 11
        assert z12_pipeline.reducer.kind == "gaussian"
        assert z12_pipeline.reducer.cols == z12_pipeline.sset.size == 15

    def test_auto_dimension_homogeneous(self):
        action = make_cyclic_action(3, [1, 1, 1, 1])
        assert auto_target_dim(action, 10) == 8
        assert make_pipeline(action, seed=1).target_dim == 8

    def test_auto_dimension_translation(self, translation_pipeline):
        assert translation_pipeline.target_dim == 17
        assert translation_pipeline.sset.size == 36

    def test_explicit_dimension_validated(self, z12_action):
        with pytest.raises(ParameterError):
            make_pipeline(z12_action, target_dim=16)


class TestEmbed:
    def test_zero_maps_to_exact_zero(self, z12_pipeline):
        phi = embed(z12_pipeline, np.zeros(5))
        assert phi.shape == (11,)
        assert np.all(phi == 0)

    def test_tiny_inputs_hit_zero_branch(self, z12_pipeline):
        phi = embed(z12_pipeline, np.full(5, 1e-320 + 0j))
        assert np.all(phi == 0)

    def test_positive_homogeneity(self, z12_pipeline, rng):
        x = unit_vector(rng, 5)
        phi = embed(z12_pipeline, x)
        for t in (0.5, 2.0, 10.0):
            dev = np.linalg.norm(embed(z12_pipeline, t * x) - t * phi)
            assert dev <= 1e-10 * (1 + t * np.linalg.norm(phi))

    def test_invariance(self, z12_pipeline, z12_action, rng):
        x = unit_vector(rng, 5)
        phi = embed(z12_pipeline, x)
        for k in range(12):
            dev = np.linalg.norm(embed(z12_pipeline, act(z12_action, k, x)) - phi)
            assert dev <= 1e-10 * (1 + np.linalg.norm(phi))

    def test_translation_invariance(self, translation_pipeline, translation_action, rng):
        x = 2.5 * unit_vector(rng, 8)
        phi = embed(translation_pipeline, x)
        for k in range(8):
            dev = np.linalg.norm(
                embed(translation_pipeline, act(translation_action, k, x)) - phi)
            assert dev <= 1e-10 * (1 + np.linalg.norm(phi))

    def test_equals_measurement_on_sphere(self, z12_pipeline, rng):
        x = unit_vector(rng, 5)
        np.testing.assert_allclose(embed(z12_pipeline, x), measure(z12_pipeline, x),
                                   atol=1e-12)

    def test_dimension_mismatch(self, z12_pipeline):
        with pytest.raises(DimensionError):
            embed(z12_pipeline, np.ones(4))

    def test_non_finite_rejected(self, z12_pipeline):
        with pytest.raises(DataError):
            embed(z12_pipeline, [np.nan, 0, 0, 0, 0])


def batch_with_zero_rows(data, n):
    """S in 0..40 signals with log-uniform norms; some rows forced to zero."""
    S = data.draw(st.integers(0, 40), label="S")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))
    x *= (10.0 ** rng.uniform(-3, 3, size=S))[:, None]
    zero = data.draw(st.lists(st.integers(0, 39), max_size=5), label="zero rows")
    x[[i for i in zero if i < S]] = 0
    return x


class TestBatch:
    """(S, n) input gives the rows that one (n,) call per row gives."""

    @pytest.fixture(scope="class", params=["z12_pipeline", "translation_pipeline"])
    def pipeline(self, request):
        return request.getfixturevalue(request.param)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_match_per_row_calls(self, pipeline, data):
        x = batch_with_zero_rows(data, pipeline.action.n)
        k, N = pipeline.target_dim, pipeline.sset.size
        values = eval_invariants(pipeline.sset, x)
        assert values.shape == (len(x), N)
        for row, xi in zip(values, x):
            np.testing.assert_array_equal(row, eval_invariants(pipeline.sset, xi))
        jac = eval_gradient(pipeline.sset, x)
        assert jac.shape == (len(x), N, pipeline.action.n)
        for row, xi in zip(jac, x):
            np.testing.assert_array_equal(row, eval_gradient(pipeline.sset, xi))
        for fn in (embed, measure):
            batch = fn(pipeline, x)
            assert batch.shape == (len(x), k)
            for row, xi in zip(batch, x):
                alone = fn(pipeline, xi)
                assert alone.shape == (k,)
                assert np.linalg.norm(row - alone) <= 1e-14 * np.linalg.norm(alone)
        zero = ~x.any(axis=1)
        assert np.all(embed(pipeline, x)[zero] == 0)
        assert np.all(measure(pipeline, x)[zero] == 0)

    def test_empty_batch(self, pipeline):
        n, k = pipeline.action.n, pipeline.target_dim
        assert embed(pipeline, np.zeros((0, n))).shape == (0, k)
        assert measure(pipeline, np.zeros((0, n))).shape == (0, k)
        assert eval_invariants(pipeline.sset, np.zeros((0, n))).shape == (0, pipeline.sset.size)

    def test_zero_rows_are_positive_zero(self, pipeline):
        # exactly +0, as the 1-d zero guard returns: no -0.0 in written files
        x = np.zeros((3, pipeline.action.n), dtype=complex)
        x[1] = -1e-301
        phi = embed(pipeline, x)
        assert not np.signbit(phi.real).any() and not np.signbit(phi.imag).any()
        assert np.all(phi == 0)

    def test_three_dimensional_input_rejected(self, z12_pipeline):
        with pytest.raises(DimensionError):
            embed(z12_pipeline, np.ones((2, 2, 5)))


class TestLipschitzBound:
    def test_minus_identity_identity_reducer(self, minus_identity_pipeline):
        bound = lipschitz_bound(minus_identity_pipeline)
        assert bound.m == 2
        assert bound.reducer_norm == pytest.approx(1.0)
        assert bound.bound == pytest.approx(6.0)

    def test_z12_fixture(self, z12_pipeline):
        bound = lipschitz_bound(z12_pipeline)
        assert bound.bound == pytest.approx(36 * bound.reducer_norm)

    def test_trivial_group(self):
        pipeline = make_pipeline(make_cyclic_action(1, [0, 0]))
        bound = lipschitz_bound(pipeline)
        assert bound.bound == pytest.approx(3 * bound.reducer_norm)
