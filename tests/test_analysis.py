import gc
import importlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_embed import (HypothesisError, OrbitEmbedError, ParameterError, act,
                         check_invariance, coordinate_order, embed,
                         empirical_lipschitz, eval_invariants,
                         find_degeneration_witness, lipschitz_bound,
                         lower_lipschitz_sweep, make_cyclic_action,
                         make_pipeline, make_translation_action, measure,
                         nonparallel_falsification, orbit,
                         prime_case_report, prime_collision_pair,
                         prime_fourier_map, quotient_distance,
                         separation_margin, sup_norm_check, tilde_rescale,
                         to_fourier_domain)
from orbit_embed import analysis
from orbit_embed.analysis import _Draw
from orbit_embed.action import BLOCK_BYTES
from orbit_embed.oracles import sample_rng, sphere_point

from conftest import oracle_draw, unit_vector


class TestCheckInvariance:
    def test_minus_identity_passes_tightly(self, minus_identity_pipeline):
        report = check_invariance(minus_identity_pipeline, samples=100, seed=3)
        assert report.passed
        assert report.statistic < 1e-12

    def test_z12_fixture(self, z12_pipeline):
        report = check_invariance(z12_pipeline, samples=200, seed=3)
        assert report.passed

    def test_translation_fixture(self, translation_pipeline):
        report = check_invariance(translation_pipeline, samples=100, seed=3)
        assert report.passed

    def test_deterministic(self, z12_pipeline):
        a = check_invariance(z12_pipeline, samples=50, seed=9)
        b = check_invariance(z12_pipeline, samples=50, seed=9)
        assert a == b

    def test_report_schema(self, minus_identity_pipeline):
        doc = check_invariance(minus_identity_pipeline, 10, seed=1).to_json_dict()
        assert {"suite", "seed", "samples", "statistic", "threshold",
                "pass", "cases", "extra"} == set(doc)

    def test_sample_count_validated(self, minus_identity_pipeline):
        with pytest.raises(ParameterError):
            check_invariance(minus_identity_pipeline, samples=0)


def reference_orbit_pass(action, f, samples, seed):
    # the definition, one sample and one k at a time: the largest relative
    # deviation at the first sample and then the first k that attain it (None
    # if none beats 0), and the largest gap
    worst, spread = None, 0.0
    for i in range(samples):
        values = f(orbit(action, sphere_point(sample_rng(seed, i), action.n)))
        gaps = np.linalg.norm(values - values[0], axis=-1)
        scale = 1.0 + np.linalg.norm(values[:1], axis=-1)[0]
        for k in range(action.m):
            if gaps[k] / scale > (worst["deviation"] if worst else 0.0):
                worst = {"sample": i, "k": k, "deviation": float(gaps[k] / scale)}
            spread = max(spread, float(gaps[k]))
    return worst, spread


# maps full of exact ties between samples and between group elements; on the
# sign map the first k at the maximum differs between tied samples
TIED_MAPS = {"half_rounded": lambda u: np.round(u * 2) / 2, "real_sign": lambda u: np.sign(u.real)}


class TestOrbitPass:
    """The blocked orbit pass is its definition, and nothing outlives a call."""

    @pytest.mark.parametrize("name", ["z12_pipeline", "translation_pipeline",
                                      "minus_identity_pipeline"])
    @pytest.mark.parametrize("samples", [1, 7, 300])
    def test_embedding_matches_the_reference(self, request, name, samples):
        pipeline = request.getfixturevalue(name)

        def phi(u):
            return embed(pipeline, u)

        result = analysis._orbit_pass(pipeline.action, phi, samples, 5, pipeline.target_dim)
        assert result == reference_orbit_pass(pipeline.action, phi, samples, 5)
        if name == "minus_identity_pipeline":
            assert result == (None, 0.0)  # Phi(-x) = Phi(x) exactly

    @pytest.mark.parametrize("name", ["z12_action", "translation_action"])
    @pytest.mark.parametrize("samples", [7, 300, 1000])
    @pytest.mark.parametrize("f", TIED_MAPS.values(), ids=TIED_MAPS)
    def test_tied_map_matches_the_reference(self, request, name, samples, f):
        action = request.getfixturevalue(name)
        result = analysis._orbit_pass(action, f, samples, 5, action.n)
        assert result == reference_orbit_pass(action, f, samples, 5)
        assert result[0] is not None

    def test_direct_calls_share_nothing(self, translation_pipeline, orbit_pass_calls):
        a = check_invariance(translation_pipeline, samples=20, seed=4)
        b = check_invariance(translation_pipeline, samples=20, seed=4)
        assert a == b and orbit_pass_calls == [(20, 4), (20, 4)]

    def test_a_memo_serves_its_key_only(self, translation_pipeline, orbit_pass_calls):
        passes = {}
        check_invariance(translation_pipeline, samples=20, seed=4, passes=passes)
        separation_margin(translation_pipeline, 20, 0.1, seed=4, passes=passes)
        separation_margin(translation_pipeline, 20, 0.1, seed=5, passes=passes)
        check_invariance(translation_pipeline, samples=10, seed=4, passes=passes)
        assert orbit_pass_calls == [(20, 4), (20, 5), (10, 4)]
        assert set(passes) == {(4, 20), (5, 20), (4, 10)}


def keep(largest, *blocks):
    # a keeper offered (values, first sample index, fields) blocks in turn
    worst = analysis._Worst("value", largest)
    for values, start, fields in blocks:
        values = np.asarray(values, dtype=float)
        worst.offer(values, start + np.arange(values.size),
                    **{key: np.asarray(a) for key, a in fields.items()})
    return worst


class TestWorstCaseKeeper:
    """A suite's worst case is the first sample, in index order, whose value
    beats the kept one strictly and beats the start (0 for a maximum, inf for a
    minimum); its case holds Python numbers."""

    @pytest.mark.parametrize("largest,values", [(True, [1.0, 3.0, 2.0, 3.0]),
                                                (False, [2.0, 0.5, 1.0, 0.5])])
    def test_a_tie_in_one_block_keeps_the_first(self, largest, values):
        worst = keep(largest, (values, 10, {"q": [0.1, 0.2, 0.3, 0.4]}))
        assert worst.case == {"sample": 11, "value": values[1], "q": 0.2}
        assert worst.value == values[1]

    @pytest.mark.parametrize("largest,first,tie,better", [(True, 3.0, 3.0, 4.0),
                                                          (False, 0.5, 0.5, 0.25)])
    def test_a_tie_across_blocks_keeps_the_first(self, largest, first, tie, better):
        worst = keep(largest, ([first, 2.0], 0, {}), ([1.0, tie], 2, {}))
        assert worst.case == {"sample": 0, "value": first}
        worst = keep(largest, ([first, 2.0], 0, {}), ([1.0, tie], 2, {}),
                     ([better, better], 4, {}))
        assert worst.case == {"sample": 4, "value": better}

    @pytest.mark.parametrize("largest,start", [(True, 0.0), (False, math.inf)])
    def test_a_value_equal_to_the_start_is_not_kept(self, largest, start):
        worst = keep(largest, ([start, start], 0, {}), ([start], 2, {}))
        assert worst.case is None and worst.value == start

    @pytest.mark.parametrize("largest", [True, False])
    def test_empty_blocks_change_nothing(self, largest):
        assert keep(largest, ([], 0, {"q": []})).case is None
        worst = keep(largest, ([], 0, {"q": []}), ([1.0], 0, {"q": [7]}), ([], 1, {"q": []}))
        assert worst.case == {"sample": 0, "value": 1.0, "q": 7}

    def test_a_block_of_rows_is_read_row_major(self):
        # the orbit pass's (samples, k) blocks: the first sample, then the first k
        dev = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 2.0]])
        rows, k = np.indices(dev.shape)
        worst = analysis._Worst("deviation", largest=True)
        worst.offer(dev, 5 + rows, k=k)
        assert worst.case == {"sample": 5, "deviation": 2.0, "k": 2}

    def test_the_case_holds_json_types(self):
        rows, k = np.indices((2, 3))
        worst = analysis._Worst("deviation", largest=True)
        worst.offer(np.arange(6.0).reshape(2, 3), np.int64(9) + rows, k=k,
                    quotient_distance=np.full((2, 3), 0.5, dtype=np.float64))
        case = worst.case
        assert case == {"sample": 10, "deviation": 5.0, "k": 2, "quotient_distance": 0.5}
        assert {key: type(value) for key, value in case.items()} == {
            "sample": int, "deviation": float, "k": int, "quotient_distance": float}
        assert type(worst.value) is float
        assert json.loads(json.dumps(case)) == case


@pytest.mark.parametrize("run", [
    lambda pipeline: check_invariance(pipeline, samples=True),
    lambda pipeline: check_invariance(pipeline, samples=1.5),
    lambda pipeline: check_invariance(pipeline, samples="10"),
    lambda pipeline: separation_margin(pipeline, samples=10, delta="0.1"),
    lambda pipeline: lower_lipschitz_sweep(pipeline, ["0.1", "0.01"]),
    lambda pipeline: lower_lipschitz_sweep(pipeline, [0.1, 0.01], witness=(3, 4.0)),
    lambda pipeline: prime_case_report(5.0, samples=10),
], ids=["samples-bool", "samples-float", "samples-str", "delta-str", "epsilons-str",
        "witness-float", "p-float"])
def test_parameter_of_wrong_type_raises_parameter_error(z12_pipeline, run):
    with pytest.raises(ParameterError):
        run(z12_pipeline)


SEEDED_SUITES = {
    "invariance": lambda p, seed: check_invariance(p, 2, seed),
    "separation": lambda p, seed: separation_margin(p, 2, 0.1, seed),
    "lipschitz": lambda p, seed: empirical_lipschitz(p, 2, seed),
    "nonparallel": lambda p, seed: nonparallel_falsification(p, 2, 0.1, seed),
    "sup_norm": lambda p, seed: sup_norm_check(p.sset, 2, seed),
    "prime": lambda p, seed: prime_case_report(5, 2, seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
@pytest.mark.parametrize("suite", SEEDED_SUITES)
def test_seed_of_wrong_type_or_range_raises_parameter_error(z12_pipeline, suite, seed):
    # numpy's own errors before; a boolean seed ran and was reported as true
    with pytest.raises(ParameterError, match="seed"):
        SEEDED_SUITES[suite](z12_pipeline, seed)


@pytest.mark.parametrize("suite", SEEDED_SUITES)
def test_integer_seeds_accepted(z12_pipeline, suite):
    assert SEEDED_SUITES[suite](z12_pipeline, np.int64(3)) == SEEDED_SUITES[suite](z12_pipeline, 3)


@pytest.mark.parametrize("suite", SEEDED_SUITES)
def test_numpy_integer_seed_gives_the_same_json(z12_pipeline, suite):
    # the report held the numpy seed, which json.dumps refuses
    reports = [SEEDED_SUITES[suite](z12_pipeline, seed) for seed in (np.int64(3), 3)]
    assert isinstance(reports[0].seed, int) and not isinstance(reports[0].seed, np.integer)
    dumped = [json.dumps(r.to_json_dict(), indent=2, sort_keys=True) for r in reports]
    assert dumped[0] == dumped[1]


def test_numpy_integer_p_samples_and_witness_give_the_same_json(z12_pipeline):
    def dumps(report):
        return json.dumps(report.to_json_dict(), sort_keys=True)

    assert dumps(prime_case_report(np.int64(5), np.int64(2), 3)) == \
        dumps(prime_case_report(5, 2, 3))
    assert dumps(lower_lipschitz_sweep(z12_pipeline, [0.1, 0.01], (np.int64(3), np.int64(4)))) == \
        dumps(lower_lipschitz_sweep(z12_pipeline, [0.1, 0.01], (3, 4)))


class TestSeparationMargin:
    def test_hand_pair(self, minus_identity_pipeline):
        # distinct orbits (1,0) and (0,1): embeddings (1,0,0) and (0,1,0)
        x = np.array([1, 0], dtype=complex)
        y = np.array([0, 1], dtype=complex)
        assert quotient_distance(minus_identity_pipeline.action, x, y) == \
            pytest.approx(np.sqrt(2))
        gap = np.linalg.norm(measure(minus_identity_pipeline, x)
                             - measure(minus_identity_pipeline, y))
        assert gap == pytest.approx(np.sqrt(2))

    def test_fixture_margin_positive(self, z12_pipeline):
        report = separation_margin(z12_pipeline, samples=300, delta=0.1, seed=7)
        assert report.passed
        assert report.statistic > 0
        assert report.extra["same_orbit_leakage"] <= 1e-10
        assert report.extra["qualifying_pairs"] > 0

    def test_no_qualifying_pairs_fails(self, minus_identity_pipeline):
        # random unit pairs essentially never reach quotient distance 1.99
        report = separation_margin(minus_identity_pipeline, samples=20,
                                   delta=1.99, seed=1)
        assert not report.passed
        assert report.extra["qualifying_pairs"] == 0

    def test_delta_validated(self, minus_identity_pipeline):
        for delta in (0.0, -1.0, 2.0, 2.5):
            with pytest.raises(ParameterError):
                separation_margin(minus_identity_pipeline, 10, delta)

    def test_deterministic(self, z12_pipeline):
        a = separation_margin(z12_pipeline, 50, 0.1, seed=11)
        b = separation_margin(z12_pipeline, 50, 0.1, seed=11)
        assert a == b


class TestEmpiricalLipschitz:
    def test_minus_identity_within_bound(self, minus_identity_pipeline):
        report = empirical_lipschitz(minus_identity_pipeline, samples=2000, seed=5)
        assert report.passed
        assert report.extra["bound"] == pytest.approx(6.0)
        assert report.statistic <= 6.0 * (1 + 1e-9)

    def test_z12_fixture_within_bound(self, z12_pipeline):
        report = empirical_lipschitz(z12_pipeline, samples=1000, seed=5)
        assert report.passed
        assert report.statistic <= report.extra["bound"] * (1 + 1e-9)

    def test_hand_ratio_is_modest(self, minus_identity_pipeline):
        x = np.array([1, 0], dtype=complex)
        y = np.array([0, 1], dtype=complex)
        ratio = np.linalg.norm(
            embed(minus_identity_pipeline, x) - embed(minus_identity_pipeline, y)
        ) / quotient_distance(minus_identity_pipeline.action, x, y)
        assert ratio == pytest.approx(1.0)
        assert ratio <= 6.0

    def test_scaling_pair_ratio(self, minus_identity_pipeline, rng):
        # x vs 2x reduces to ||Phi(x)|| / ||x|| by positive homogeneity
        x = unit_vector(rng, 2)
        ratio = np.linalg.norm(embed(minus_identity_pipeline, 2 * x)
                               - embed(minus_identity_pipeline, x))
        ratio /= quotient_distance(minus_identity_pipeline.action, x, 2 * x)
        expected = np.linalg.norm(embed(minus_identity_pipeline, x))
        assert ratio == pytest.approx(expected, rel=1e-10)
        assert ratio <= 6.0

    def test_deterministic(self, z12_pipeline):
        a = empirical_lipschitz(z12_pipeline, 100, seed=13)
        b = empirical_lipschitz(z12_pipeline, 100, seed=13)
        assert a == b


class TestNonparallel:
    def test_hand_case(self, minus_identity_pipeline):
        # H(1,0) = (1,0,0) and H(0,1) = (0,1,0): orthogonal, lambda* = 0
        hx = measure(minus_identity_pipeline, [1, 0])
        hy = measure(minus_identity_pipeline, [0, 1])
        lam = max(float(np.real(np.vdot(hy, hx))) / np.linalg.norm(hy) ** 2, 0.0)
        assert lam == 0.0
        assert np.linalg.norm(hx - lam * hy) == pytest.approx(1.0)

    def test_fixture(self, z12_pipeline):
        report = nonparallel_falsification(z12_pipeline, samples=300, delta=0.1, seed=7)
        assert report.passed
        assert report.statistic > 0
        assert report.extra["same_orbit_lambda_error"] <= 1e-8
        assert report.extra["same_orbit_residual"] <= 1e-8

    def test_translation_fixture(self, translation_pipeline):
        report = nonparallel_falsification(translation_pipeline, samples=100,
                                           delta=0.1, seed=7)
        assert report.passed

    def test_deterministic(self, z12_pipeline):
        a = nonparallel_falsification(z12_pipeline, 50, 0.1, seed=17)
        b = nonparallel_falsification(z12_pipeline, 50, 0.1, seed=17)
        assert a == b


class TestSupNorm:
    def test_minus_identity(self, minus_identity_pipeline):
        report = sup_norm_check(minus_identity_pipeline.sset, samples=500, seed=5)
        assert report.passed
        assert report.extra["max_component"] <= 1 + 1e-12
        assert report.extra["max_partial"] <= 2 + 1e-9

    def test_z12_fixture(self, z12_pipeline):
        report = sup_norm_check(z12_pipeline.sset, samples=500, seed=5)
        assert report.passed
        assert report.extra["max_partial"] <= 12 + 1e-9


class TestTildeRescale:
    def test_identity_at_lambda_one(self, z12_pipeline, rng):
        y = unit_vector(rng, 5)
        np.testing.assert_array_equal(tilde_rescale(z12_pipeline.sset, y, 1.0), y)

    def test_minus_identity_is_sqrt_scaling(self, minus_identity_pipeline, rng):
        y = unit_vector(rng, 2)
        lam = 2.7
        scaled = tilde_rescale(minus_identity_pipeline.sset, y, lam)
        np.testing.assert_allclose(scaled, np.sqrt(lam) * y, rtol=1e-15)
        sset = minus_identity_pipeline.sset
        np.testing.assert_allclose(eval_invariants(sset, scaled),
                                   lam * eval_invariants(sset, y), rtol=1e-12)

    def test_pair_component_identity_on_fixture(self, z12_set, rng):
        # every fixture pair satisfies a/m_j + b/m_k = 1 (exact arithmetic),
        # so rescaling multiplies the pair components by lambda as well
        m = z12_set.action.m
        w = z12_set.action.weights
        checked = 0
        for p in z12_set.pairs:
            ratio = (Fraction(p.a, coordinate_order(m, w[p.j - 1]))
                     + Fraction(p.b, coordinate_order(m, w[p.k - 1])))
            assert ratio == 1
            checked += 1
        assert checked == 10
        y = unit_vector(rng, 5)
        lam = 0.37
        np.testing.assert_allclose(eval_invariants(z12_set, tilde_rescale(z12_set, y, lam)),
                                   lam * eval_invariants(z12_set, y), atol=1e-10)

    def test_rejects_nonpositive_lambda(self, z12_set):
        for lam in (0.0, -1.0):
            with pytest.raises(ParameterError):
                tilde_rescale(z12_set, np.ones(5), lam)

    @pytest.mark.parametrize("lam", ["1", None, True, float("nan"), [2.0]])
    def test_rejects_non_real_lambda(self, z12_set, lam):
        # a string was compared with 0 and raised an untyped TypeError
        with pytest.raises(ParameterError, match="lam"):
            tilde_rescale(z12_set, np.ones(5), lam)


class TestLowerLipschitzSweep:
    EPSILONS = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]

    def test_fixture_with_paper_witness(self, z12_pipeline):
        result = lower_lipschitz_sweep(z12_pipeline, self.EPSILONS, witness=(3, 4))
        assert result.passed
        assert 0.8 <= result.slope <= 1.2
        assert result.ratios[-1] / result.ratios[0] < 0.5
        for eps, d in zip(result.epsilons, result.quotient_distances):
            assert abs(d - eps) <= eps ** 2

    def test_ratios_monotone_for_small_eps(self, z12_pipeline):
        result = lower_lipschitz_sweep(z12_pipeline, [1e-2, 3e-3, 1e-3], witness=(3, 4))
        assert result.ratios[0] > result.ratios[1] > result.ratios[2]

    def test_auto_witness(self, z12_pipeline):
        result = lower_lipschitz_sweep(z12_pipeline, self.EPSILONS)
        assert result.passed
        # first canonical pair with an exponent >= 2 is (1, 2) with b = 2
        assert (result.support_index, result.perturb_index) == (0, 1)

    def test_witness_detection(self, z12_set):
        support, perturb, pair = find_degeneration_witness(z12_set)
        assert (support, perturb) == (0, 1)
        assert (pair.j, pair.k, pair.a, pair.b) == (1, 2, 1, 2)

    def test_witness_on_the_first_coordinate(self):
        # the first pair, (1, 2), has a = 2 and b = 1: eps goes on coordinate 0
        pipeline = make_pipeline(make_cyclic_action(4, [1, 2, 1]))
        support, perturb, pair = find_degeneration_witness(pipeline.sset)
        assert (support, perturb) == (1, 0)
        assert (pair.j, pair.k, pair.a, pair.b) == (1, 2, 2, 1)
        result = lower_lipschitz_sweep(pipeline, self.EPSILONS)
        assert result.passed and 0.99 <= result.slope <= 1.01

    @pytest.mark.parametrize("n", [4, 5, 8, 12, 16])
    def test_translation_sweeps_its_fourier_conjugate(self, n):
        # the sweep runs on the diagonal form: a translation pipeline's sweep is
        # that of the pipeline built on its Fourier conjugate, field for field
        action = make_translation_action(n)
        sweeps = [lower_lipschitz_sweep(make_pipeline(a, seed=42), self.EPSILONS).to_json_dict()
                  for a in (action, to_fourier_domain(action))]
        assert sweeps[0] == sweeps[1]

    def test_failing_sweep_passed_is_a_python_bool(self, z12_pipeline):
        # witness (1, 0) fits a slope near 0; the failed gate was a numpy.bool
        result = lower_lipschitz_sweep(z12_pipeline, self.EPSILONS, witness=(1, 0))
        assert result.passed is False
        assert json.loads(json.dumps(result.to_json_dict()))["pass"] is False

    def test_small_group_rejected(self, minus_identity_pipeline):
        with pytest.raises(HypothesisError):
            lower_lipschitz_sweep(minus_identity_pipeline, self.EPSILONS)

    def test_no_witness_rejected(self):
        # all pair exponents are (1, 1): no monomial sees eps at second order
        pipeline = make_pipeline(make_cyclic_action(4, [2, 2, 2]))
        with pytest.raises(HypothesisError):
            lower_lipschitz_sweep(pipeline, self.EPSILONS)

    def test_epsilons_validated(self, z12_pipeline):
        for bad in ([0.1, 0.2], [0.6, 0.1], [0.1, 0.1], [-0.1], [], [0.1]):
            with pytest.raises(ParameterError):
                lower_lipschitz_sweep(z12_pipeline, bad, witness=(3, 4))

    def test_translation_pipeline_sweeps_in_fourier_domain(self, translation_pipeline):
        result = lower_lipschitz_sweep(translation_pipeline, self.EPSILONS)
        assert result.passed


class TestPrimeCase:
    def test_output_length(self):
        assert prime_fourier_map(5, np.ones(5)).shape == (8,)
        assert prime_fourier_map(7, np.ones(7)).shape == (12,)

    def test_layout(self):
        xhat = np.arange(1, 6, dtype=complex)
        out = prime_fourier_map(5, xhat)
        assert out[0] == xhat[0]
        np.testing.assert_array_equal(out[1:5], xhat[1:] ** 5)
        np.testing.assert_array_equal(
            out[5:], [xhat[1] ** 3 * xhat[2], xhat[1] ** 2 * xhat[3], xhat[1] * xhat[4]])

    def test_invariance_under_modulation(self, rng):
        p = 5
        modulation = make_cyclic_action(p, range(p))
        xhat = unit_vector(rng, p)
        base = prime_fourier_map(p, xhat)
        for k in range(p):
            np.testing.assert_allclose(
                prime_fourier_map(p, act(modulation, k, xhat)), base, atol=1e-10)

    def test_collision_pair(self):
        x, y = prime_collision_pair(5)
        assert x[1] == 0 and y[1] == 0
        gap = np.linalg.norm(prime_fourier_map(5, x) - prime_fourier_map(5, y))
        assert gap <= 1e-12
        modulation = make_cyclic_action(5, range(5))
        assert quotient_distance(modulation, x, y) > 0.5

    def test_composite_rejected(self):
        with pytest.raises(ParameterError):
            prime_fourier_map(6, np.ones(6))

    def test_p_below_two_rejected(self):
        with pytest.raises(ParameterError, match="p must be prime, got 1"):
            prime_fourier_map(1, np.ones(1))

    @pytest.mark.parametrize("p", [5.0, "5", True, None])
    def test_non_integer_rejected(self, p):
        # a float reached math.isqrt and raised an untyped TypeError
        with pytest.raises(ParameterError):
            prime_fourier_map(p, np.ones(5))

    @pytest.mark.parametrize("p", [2**61 - 1, 100_000_007])
    def test_prime_without_a_table_is_refused_promptly(self, p):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="p must be a prime"):
            prime_case_report(p, samples=1)
        assert time.perf_counter() - start < 5.0

    def test_large_prime_checks_the_signal_length_first(self):
        # trial division to sqrt(2**61 - 1) ran before the length check and hung
        start = time.perf_counter()
        with pytest.raises(OrbitEmbedError):
            prime_fourier_map(2**61 - 1, np.ones(5))
        assert time.perf_counter() - start < 1.0

    def test_report(self):
        report = prime_case_report(5, samples=100, seed=3)
        assert report.passed
        assert report.extra["collision_orbit_distance"] > 0.5
        assert not report.extra["collision_same_orbit"]


class TestBoundConsistency:
    def test_empirical_never_exceeds_theorem_bound(self, minus_identity_pipeline,
                                                   z12_pipeline, translation_pipeline):
        for pipeline in (minus_identity_pipeline, z12_pipeline, translation_pipeline):
            report = empirical_lipschitz(pipeline, samples=500, seed=21)
            assert report.statistic <= lipschitz_bound(pipeline).bound * (1 + 1e-9)


class TestWorstCaseReplay:
    """Each reported worst case, recomputed from its sample index with
    single-signal calls, gives every field of the case and the reported
    statistic: the blocked suites keep the index of the sample they report,
    and the case names the statistic under the suite's own name."""

    @pytest.fixture(scope="class", params=["z12_pipeline", "translation_pipeline"])
    def pipeline(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def pair(seed, sample, n):
        rng = sample_rng(seed, sample)
        return sphere_point(rng, n), sphere_point(rng, n)

    def test_invariance(self, pipeline):
        report = check_invariance(pipeline, samples=300, seed=7)
        case = report.cases[0]
        x = sphere_point(sample_rng(7, case["sample"]), pipeline.action.n)
        values = embed(pipeline, orbit(pipeline.action, x))
        dev = (np.linalg.norm(values - values[0], axis=-1)
               / (1.0 + np.linalg.norm(values[:1], axis=-1)[0]))
        assert int(np.argmax(dev)) == case["k"]
        assert dev[case["k"]] == pytest.approx(report.statistic, rel=1e-12)
        assert case["deviation"] == report.statistic

    def test_lipschitz(self, pipeline):
        report = empirical_lipschitz(pipeline, samples=2000, seed=7)
        case = report.cases[0]
        rng = sample_rng(7, case["sample"])
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        x, y = (s * sphere_point(rng, pipeline.action.n) for s in scales)
        d = quotient_distance(pipeline.action, x, y)
        assert d == pytest.approx(case["quotient_distance"], rel=1e-12)
        ratio = np.linalg.norm(embed(pipeline, x) - embed(pipeline, y)) / d
        assert ratio == pytest.approx(report.statistic, rel=1e-12)
        assert case["ratio"] == report.statistic

    def test_separation(self, pipeline):
        report = separation_margin(pipeline, samples=400, delta=0.1, seed=7)
        case = report.cases[0]
        x, y = self.pair(7, case["sample"], pipeline.action.n)
        d = quotient_distance(pipeline.action, x, y)
        assert d >= 0.1 and d == pytest.approx(case["quotient_distance"], rel=1e-12)
        margin = np.linalg.norm(embed(pipeline, x) - embed(pipeline, y))
        assert margin == pytest.approx(report.statistic, rel=1e-12)
        assert case["margin"] == report.statistic

    def test_nonparallel(self, pipeline):
        report = nonparallel_falsification(pipeline, samples=1200, delta=0.1, seed=7)
        case = report.cases[0]
        x, y = self.pair(7, case["sample"], pipeline.action.n)
        hx, hy = measure(pipeline, x), measure(pipeline, y)
        lam = max(float(np.real(np.vdot(hy, hx))) / np.linalg.norm(hy) ** 2, 0.0)
        assert lam == pytest.approx(case["lambda"], rel=1e-12)
        resid = np.linalg.norm(hx - lam * hy)
        assert resid == pytest.approx(report.statistic, rel=1e-12)
        assert case["residual"] == report.statistic


# seeds of one word (0 too), of two, and of more words than the hash pool holds
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]
CHUNK = analysis._STATE_CHUNK
# every kind of draw a suite makes: one point, a pair, a scaled pair, a pair and
# a group element (order 1 draws none), and all of them in one sample
SUITE_DRAWS = [_Draw(5, 1), _Draw(5, 2), _Draw(5, 2, scaled=True), _Draw(5, 2, order=12),
               _Draw(5, 2, order=1), _Draw(5, 2, scaled=True, order=12)]


def oracle_state(seed, index):
    state = sample_rng(seed, index).bit_generator.state["state"]
    return state["state"], state["inc"]


class TestSampleStreams:
    """The block sampler's per-sample states, hashed per chunk of indices, and
    the blocks drawn from them are those of numpy's own per-sample stream, drawn
    and normalized one point at a time."""

    @given(seed=st.sampled_from(STREAM_SEEDS), start=st.integers(0, 3 * CHUNK),
           count=st.integers(1, 2 * CHUNK))
    @settings(max_examples=30, deadline=None)
    def test_states_match_the_oracle(self, seed, start, count):
        states = list(analysis._stream_states(seed, start, start + count))
        assert states == [oracle_state(seed, i) for i in range(start, start + count)]

    @given(seed=st.sampled_from(STREAM_SEEDS), below=st.integers(0, CHUNK + 2),
           above=st.integers(0, CHUNK + 2))
    @settings(max_examples=20, deadline=None)
    def test_states_around_two_word_indices(self, seed, below, above):
        # indices of one and of two 32-bit words, without drawing 2**32 samples
        start, stop = 2**32 - below, 2**32 + above
        states = list(analysis._stream_states(seed, start, stop))
        assert states == [oracle_state(seed, i) for i in range(start, stop)]

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_seed_sequence_words(self, seed):
        words = analysis._seed_sequence_states(seed, CHUNK - 3, CHUNK + 3)
        assert words.dtype == np.uint64
        for i, row in zip(range(CHUNK - 3, CHUNK + 3), words):
            expected = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    @staticmethod
    def assert_blocks_match_the_oracle(seed, samples, width, draw):
        starts = []
        for start, *arrays in analysis._draw_blocks(seed, samples, width, draw):
            starts.append(start)
            assert all(a.flags.c_contiguous and len(a) == len(arrays[0]) for a in arrays)
            for j in range(len(arrays[0])):
                expected = oracle_draw(draw, seed, start + j)
                assert len(arrays) == len(expected)
                assert all(a[j].tobytes() == np.asarray(e).tobytes()
                           for a, e in zip(arrays, expected))
        assert starts == list(range(0, samples, starts[1] if len(starts) > 1 else samples))

    @given(seed=st.sampled_from(STREAM_SEEDS), samples=st.integers(1, 2 * CHUNK + 5),
           width=st.integers(1, 5000), draw=st.sampled_from(SUITE_DRAWS))
    @settings(max_examples=25, deadline=None)
    def test_draws_match_the_oracle(self, seed, samples, width, draw):
        self.assert_blocks_match_the_oracle(seed, samples, width, draw)

    # the two numpy facts that let _draw_block make one call per sample for
    # each kind of draw; a numpy that breaks one fails here by name
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_uniform_is_the_affine_map_of_random(self, seed):
        # uniform(low, high) is low + (high - low) * random(), rounded in that order
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = rng.uniform(-3.0, 3.0, size=200_000)
        assert (-3.0 + 6.0 * twin.random(200_000)).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_one_normal_call_reads_the_words_of_one_call_per_point(self, seed, n):
        # the ziggurat keeps no state between values, so one call of points * 2n
        # normals reads the same words as points calls of 2n (its rare slow
        # path, which reads more words, is hit too at these counts)
        points = 4_000 // n
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = np.empty((points, 2 * n))
        rng.standard_normal(out=whole)
        per_point = [twin.standard_normal(2 * n) for _ in range(points)]
        assert whole.tobytes() == np.concatenate(per_point).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_sphere_point_keeps_the_two_call_bits(self):
        # one normal call of 2n per point, then a block-wide norm, division and
        # scale, with the bits of two calls of n and np.linalg.norm per point:
        # at a one-term norm, the shipped sizes and n64, in blocks of 50 samples
        for n in (1, 5, 8, 64):
            for draw in (_Draw(n, 1), _Draw(n, 2, scaled=True, order=12)):
                self.assert_blocks_match_the_oracle(3, 150, 327, draw)


SAMPLING_SUITES = {
    "invariance": lambda p, samples: check_invariance(p, samples, seed=7),
    "separation": lambda p, samples: separation_margin(p, samples, 0.1, seed=7),
    "lipschitz": lambda p, samples: empirical_lipschitz(p, samples, seed=7),
    "nonparallel": lambda p, samples: nonparallel_falsification(p, samples, 0.1, seed=7),
    "sup_norm": lambda p, samples: sup_norm_check(p.sset, samples, seed=7),
    "prime": lambda p, samples: prime_case_report(5, samples, seed=7),
}


@pytest.mark.parametrize("suite", SAMPLING_SUITES)
def test_memory_does_not_grow_with_samples(z12_pipeline, monkeypatch, suite):
    # blocks a quarter of the shipped size, so that S = 300 fills a block of
    # every suite and the run stays short
    monkeypatch.setattr(importlib.import_module("orbit_embed.action"), "BLOCK_BYTES", 64 * 1024)
    run = SAMPLING_SUITES[suite]
    # builds the cached tables and fills CPython's free lists, which hold up to
    # 2,000 freed tuples of each size; a full collection empties them, so none
    # may run before the measured runs are done
    run(z12_pipeline, 3000)
    peaks = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for samples in (300, 3000):
            tracemalloc.start()
            try:
                run(z12_pipeline, samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        if enabled:
            gc.enable()
    assert peaks[1] <= 1.05 * peaks[0], peaks


@pytest.mark.parametrize("suite", ["separation", "lipschitz", "nonparallel"])
def test_pair_blocks_count_the_group_order(suite):
    # quotient_distance scores all m group elements of every pair, so it must
    # score them one block of rows at a time: the pair blocks, sized by their
    # rows alone, hold all 300 pairs here, and (300, 2000) scores at once take
    # about 14.4 MB (55 BLOCK_BYTES)
    pipeline = make_pipeline(make_cyclic_action(2000, [1, 3]), seed=42)
    passes = {}
    run = {"separation": lambda: separation_margin(pipeline, 300, 0.1, seed=7, passes=passes),
           "lipschitz": lambda: empirical_lipschitz(pipeline, 300, seed=7),
           "nonparallel": lambda: nonparallel_falsification(pipeline, 300, 0.1, seed=7)}[suite]
    # builds the cached tables and, for separation, the orbit pass it then reads
    # from passes, so that only the pair loop is traced
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * BLOCK_BYTES, peak
