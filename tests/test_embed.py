import gc
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbit_embed
from orbit_embed import (DataError, DimensionError, ParameterError, act,
                         auto_target_dim, embed, eval_gradient,
                         eval_invariants, lipschitz_bound, make_cyclic_action,
                         make_pipeline, make_reducer, make_translation_action,
                         measure, operator_norm, separating_set,
                         to_fourier_domain)
from orbit_embed.action import BLOCK_BYTES
from orbit_embed.embed import PRODUCT_ROWS, eval_partials
from orbit_embed.oracles import (finite_difference_gradient, gradient_discrepancy,
                                 svd_operator_norm)

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

    @pytest.mark.parametrize("name", ["z12_set", "translation_pipeline"])
    def test_finite_difference_rows_match_one_signal_calls(self, name, request, rng):
        value = request.getfixturevalue(name)
        sset = getattr(value, "sset", value)
        x = np.array([unit_vector(rng, sset.n) for _ in range(6)])
        batch = finite_difference_gradient(sset, x)
        gaps = gradient_discrepancy(sset, x)
        assert batch.shape == (6, sset.size, sset.n) and gaps.shape == (6,)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], finite_difference_gradient(sset, x[i]))
            assert gaps[i] == gradient_discrepancy(sset, x[i])


def reference_invariants(sset, x):
    """One ``**`` per monomial factor: the evaluation the power plan replaced."""
    first, first_exp, second, second_exp = sset.index_arrays
    values = x.take(first, axis=-1) ** first_exp
    values[..., sset.n:] *= x.take(second, axis=-1) ** second_exp
    return values


def reference_partials(sset, x):
    first, a, second, b = sset.index_arrays
    x1, x2 = x.take(first, axis=-1), x.take(second, axis=-1)
    d_first = a * x1 ** (a - 1)
    d_first[..., sset.n:] *= x2 ** b
    d_second = b * x1[..., sset.n:] ** a[sset.n:] * x2 ** np.maximum(b - 1, 0)
    return d_first, d_second


def reference_gradient(sset, x):
    first, _, second, _ = sset.index_arrays
    d_first, d_second = reference_partials(sset, x)
    jac = np.zeros(x.shape[:-1] + (sset.size, sset.n), dtype=np.complex128)
    rows = np.arange(sset.size)
    jac[..., rows, first] = d_first
    jac[..., rows[sset.n:], second] = d_second
    return jac


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_reference_bits(sset, x):
    with np.errstate(all="ignore"):  # overflowing powers of the scaled rows
        pairs = [(eval_invariants(sset, x), reference_invariants(sset, x)),
                 *zip(eval_partials(sset, x), reference_partials(sset, x)),
                 (eval_gradient(sset, x), reference_gradient(sset, x))]
    for actual, expected in pairs:
        assert_same_bits(actual, expected)


def plan_test_set(data):
    """z12, c2, a translation set for n <= 40, or a diagonal action with
    m <= 300: orders of 100 and more take numpy's libm power, not its
    repeated squaring."""
    kind = data.draw(st.sampled_from(["z12", "c2", "translation", "diagonal"]), label="kind")
    if kind == "z12":
        return separating_set(make_cyclic_action(12, [6, 3, 4, 2, 2]))
    if kind == "c2":
        return separating_set(make_cyclic_action(2, [1, 1]))
    if kind == "translation":
        n = data.draw(st.integers(1, 40), label="n")
        return separating_set(to_fourier_domain(make_translation_action(n)))
    m = data.draw(st.integers(1, 300), label="m")
    n = data.draw(st.integers(1, 8), label="n")
    return separating_set(make_cyclic_action(
        m, data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n), label="weights")))


def hard_rows(rng, S, n):
    """S unit rows, each kept plain, given exact +-0 entries, subnormal
    entries, or scaled by 1e150 or 1e-150, or given inf/NaN entries."""
    x = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    kind = rng.integers(0, 6, size=(S, 1))
    some = rng.random((S, n)) < 0.4
    x[(kind == 1) & some] = 0
    x.real[(kind == 1) & (rng.random((S, n)) < 0.3)] = -0.0
    x.imag[(kind == 1) & (rng.random((S, n)) < 0.3)] = -0.0
    x[(kind == 2) & some] *= 1e-310
    x *= np.array([1, 1, 1, 1e150, 1e-150, 1])[kind]
    x[(kind == 5) & some] = rng.choice([np.nan, np.inf, -np.inf, complex(np.inf, np.nan)],
                                       size=int(((kind == 5) & some).sum()))
    return x


class TestPowerPlanKeepsTheBits:
    """Each distinct power once, then gathered, is the per-factor ``**``
    evaluation bit for bit."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_one_power_per_factor(self, data):
        sset = plan_test_set(data)
        S = data.draw(st.integers(0, 40), label="S")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = hard_rows(rng, S, sset.n)
        assert_reference_bits(sset, x)
        assert_reference_bits(sset, x[0] if S else np.ones(sset.n, dtype=complex))

    def test_every_kind_of_row_is_drawn(self):
        x = hard_rows(np.random.default_rng(3), 40, 6)
        assert (x == 0).any() and np.signbit(x.real[x.real == 0]).any()
        assert ((0 < abs(x)) & (abs(x) < 1e-300)).any()
        assert (abs(x) > 1e149).any() and ((0 < abs(x)) & (abs(x) < 1e-149)).any()
        assert np.isnan(x).any() and np.isinf(x).any()

    @pytest.mark.parametrize("fn, reference", [(eval_invariants, reference_invariants),
                                               (eval_partials, reference_partials)])
    def test_holds_no_more_than_one_power_per_factor(self, fn, reference, rng):
        # one block of the n=64 suites: the table and the gathers must not
        # outgrow the per-factor powers they replace
        sset = make_pipeline(make_translation_action(64), seed=42).sset
        x = np.array([unit_vector(rng, 64) for _ in range(7)])
        fn(sset, x)  # builds the cached plan
        peaks = []
        for f in (fn, reference):
            tracemalloc.start()
            f(sset, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    @pytest.mark.parametrize("plan", ["invariant_powers", "partial_powers"])
    def test_a_swapped_position_fails(self, plan, rng):
        sset = separating_set(make_cyclic_action(12, [6, 3, 4, 2, 2]))
        coords, exps, first_at, *rest = getattr(sset, plan)
        first_at = first_at.copy()
        first_at[[0, 1]] = first_at[[1, 0]]
        sset.__dict__[plan] = (coords, exps, first_at, *rest)
        with pytest.raises(AssertionError):
            assert_reference_bits(sset, hard_rows(rng, 10, sset.n))


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

    @pytest.mark.parametrize("N,k,seed,kind", [
        (15, 11.9, 0, "gaussian"),  # would silently give 11 rows
        (15.0, 11, 0, "gaussian"),
        (15, 15.0, 0, "identity"),
        (15, 11, -1, "gaussian"),  # numpy's own ValueError before
        (15, 11, 1.5, "gaussian"),
        (15, 11, True, "gaussian"),
        (15, 11, 0, "sparse"),
        (15, 11, 0, None),
    ])
    def test_non_integer_sizes_seeds_and_kinds_rejected(self, N, k, seed, kind):
        with pytest.raises(ParameterError):
            make_reducer(N, k, seed=seed, kind=kind)

    def test_auto_kind(self):
        assert make_reducer(15, 15, kind="auto").kind == "identity"
        auto, gaussian = make_reducer(15, 11, seed=3, kind="auto"), make_reducer(15, 11, seed=3)
        assert auto == gaussian
        np.testing.assert_array_equal(auto.entries, gaussian.entries)

    @pytest.mark.parametrize("N,k,seed", [(15, 11, 42), (36, 17, 3), (2080, 129, 42), (1, 1, 0)])
    def test_entries_follow_the_documented_formula(self, N, k, seed):
        # (2080, 129) is drawn in several row blocks
        z = np.random.default_rng(seed).standard_normal((2, k, N))
        expected = (z[0] + 1j * z[1]) / math.sqrt(2)
        entries = make_reducer(N, k, seed=seed).entries
        np.testing.assert_array_equal(entries.view(np.float64), expected.view(np.float64))

    def test_draw_holds_no_copy_of_the_entries(self):
        # the (2, k, N) normal draw and its complex combination held twice the result
        tracemalloc.start()
        try:
            entries = make_reducer(2080, 129, seed=42).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * entries.nbytes, peak / entries.nbytes

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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), ()])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(DimensionError, match="expects a matrix"):
            operator_norm(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3, 4, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(DataError):
            operator_norm(a)

    def test_matches_svd_oracle(self):
        # 129 x 2080 is the translation n=64 reducer, whose top singular
        # values lie close together
        for r in (make_reducer(15, 11, seed=42), make_reducer(2080, 129, seed=42)):
            assert operator_norm(r) == pytest.approx(svd_operator_norm(r.entries), abs=1e-8)

    def test_matches_svd_on_wide_gaussian(self):
        r = make_reducer(36, 17, seed=42)
        assert operator_norm(r) == pytest.approx(svd_operator_norm(r.entries), abs=1e-8)

    @pytest.mark.parametrize("shape", [(2, 1), (5, 3), (300, 66), (2081, 129)])
    def test_tall_matrix_is_its_transpose(self, rng, shape):
        # a tall l takes the Gram matrix of its transpose, whose spectrum it shares
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert operator_norm(a) == operator_norm(a.T)
        assert operator_norm(a) == pytest.approx(svd_operator_norm(a), abs=1e-8)

    def test_eigenvalue_outside_the_bracket_raises(self, monkeypatch):
        # sigma_max lies in [frob / sqrt(min(k, N)), frob]; frob of eye(3, 4) is sqrt(3)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda gram: np.array([4.0]))
        with pytest.raises(ArithmeticError, match="outside certified bracket"):
            operator_norm(np.eye(3, 4))

    @pytest.mark.parametrize("pipeline", ["minus_identity_pipeline", "z12_pipeline",
                                          "translation_pipeline", "translation-64"])
    def test_keeps_the_bits_of_the_whole_gram_product_on_shipped_reducers(self, pipeline,
                                                                          request):
        # the Lipschitz reports print this norm
        if pipeline == "translation-64":
            a = make_pipeline(make_translation_action(64), seed=42).reducer.entries
        else:
            a = request.getfixturevalue(pipeline).reducer.entries
        assert operator_norm(a) == math.sqrt(np.linalg.eigvalsh(a @ a.conj().T)[-1])

    def test_keeps_the_bits_of_the_whole_gram_product(self):
        # in its own interpreter with one BLAS thread, as the benchmark runs:
        # with more, OpenBLAS splits a product's rows among its threads, and
        # then the bits of the whole product depend on the split as well
        src = str(Path(orbit_embed.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", GRAM_BITS_CHECK], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-3000:]


# k around the edges of the Gram blocks (max(PRODUCT_ROWS, block_rows(N)) rows,
# a lone last row joined to the block before it), N >= k, and tall k > N shapes,
# whose Gram matrix is l* l
GRAM_BITS_CHECK = """
import math
import numpy as np
from hypothesis import given, settings, strategies as st
from orbit_embed import operator_norm

@given(k=st.sampled_from([1, 2, 3, 63, 64, 65, 66, 127, 128, 129, 130]),
       extra=st.one_of(st.integers(0, 600), st.sampled_from([2080, 8256])),
       tall=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, database=None)
def check(k, extra, tall, seed):
    shape = (k + extra, k) if tall else (k, min(k + extra, 8256))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    assert operator_norm(a) == math.sqrt(np.linalg.eigvalsh(gram)[-1]), shape

check()
"""


def traced_peak(fn, *args):
    """The tracemalloc peak of ``fn(*args)``, after one warm-up call and with
    the cyclic collector off."""
    fn(*args)
    enabled = gc.isenabled()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        if enabled:
            gc.enable()


class TestReducerProductsHoldNoCopy:
    """The k x N reducer is the only full-size array: neither the operator
    norm nor the reducer products hold a second copy of one."""

    def test_operator_norm_takes_no_copy_of_the_reducer(self):
        # the translation n=128 reducer, 34 MB
        r = make_reducer(8256, 257, seed=42)
        peak = traced_peak(operator_norm, r)
        assert peak < 0.5 * r.entries.nbytes, peak / r.entries.nbytes

    def test_embed_holds_one_copy_of_the_monomial_rows(self, rng):
        # one 64-row reducer product at n=64: its monomial rows, (64, 2080)
        pipeline = make_pipeline(make_translation_action(64), seed=42)
        x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        peak = traced_peak(embed, pipeline, x)
        rows = 64 * pipeline.sset.size * 16
        assert peak < 1.75 * rows, peak / rows


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

    @pytest.mark.parametrize("kwargs", [
        {"target_dim": 3.7}, {"target_dim": True}, {"target_dim": 0}, {"target_dim": "11"},
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"},
        {"reducer_kind": "sparse"}, {"reducer_kind": None},
    ])
    def test_wrong_type_or_range_rejected(self, z12_action, kwargs):
        with pytest.raises(ParameterError):
            make_pipeline(z12_action, **kwargs)

    def test_auto_kind_is_the_default(self, z12_action, minus_identity_action):
        auto = make_pipeline(z12_action, seed=42, reducer_kind="auto").reducer
        default = make_pipeline(z12_action, seed=42).reducer
        assert auto == default
        np.testing.assert_array_equal(auto.entries, default.entries)
        assert make_pipeline(minus_identity_action, reducer_kind="auto").reducer.kind == "identity"


class TestEmbed:
    def test_zero_maps_to_exact_zero(self, z12_pipeline):
        phi = embed(z12_pipeline, np.zeros(5))
        assert phi.shape == (11,)
        assert np.all(phi == 0)

    def test_tiny_inputs_hit_zero_branch(self, z12_pipeline):
        phi = embed(z12_pipeline, np.full(5, 1e-320 + 0j))
        assert np.all(phi == 0)

    def test_zero_branch_is_a_norm_of_zero(self, z12_pipeline):
        # squares of entries below about 1.6e-162 underflow, so the norm is 0;
        # entries of 3e-162 have a nonzero norm, and a nonzero embedding
        assert np.all(embed(z12_pipeline, np.full(5, 1e-170 + 0j)) == 0)
        assert np.all(embed(z12_pipeline, np.full(5, 3e-162 + 0j)) != 0)

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
                assert_same_bits(row, alone)
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


class TestRowBitsDoNotDependOnTheBatch:
    """Every row of embed and measure has the bits of the same signal alone and
    inside any other split of its batch: the reducer product runs in blocks of
    at least 64 rows and never on one row."""

    @pytest.fixture(scope="class", params=["translation-8", "translation-32",
                                           "translation-64", "diagonal-40"])
    def pipeline(self, request):
        form, n = request.param.split("-")
        if form == "translation":
            return make_pipeline(make_translation_action(int(n)), seed=42)
        return make_pipeline(make_cyclic_action(7, [i % 7 for i in range(int(n))]), seed=42)

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_rows_match_alone_and_in_any_split(self, pipeline, data):
        n, N = pipeline.action.n, pipeline.sset.size
        step = max(PRODUCT_ROWS, BLOCK_BYTES // (16 * N))  # rows of one reducer product
        S = data.draw(st.one_of(st.sampled_from([1, 2, 65, 129, step + 1, 2 * step + 1]),
                                st.integers(1, 200)), label="S")
        cut = data.draw(st.integers(0, S), label="cut")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))
        x *= (10.0 ** rng.uniform(-3, 3, size=S))[:, None]
        for fn in (embed, measure):
            batch = fn(pipeline, x)
            assert_same_bits(np.concatenate((fn(pipeline, x[:cut]), fn(pipeline, x[cut:]))),
                             batch)
            for row, xi in zip(batch, x):
                assert_same_bits(fn(pipeline, xi), row)


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
