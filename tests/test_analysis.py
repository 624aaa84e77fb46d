import importlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orbit_embed import (HypothesisError, ParameterError, act,
                         check_invariance, coordinate_order, embed,
                         empirical_lipschitz, eval_invariants,
                         find_degeneration_witness, lipschitz_bound,
                         lower_lipschitz_sweep, make_cyclic_action,
                         make_pipeline, measure, nonparallel_falsification,
                         prime_case_report, prime_collision_pair,
                         prime_fourier_map, quotient_distance,
                         separation_margin, sup_norm_check, tilde_rescale)
from orbit_embed.analysis import _rng_for, _sphere_point

from conftest import unit_vector


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

    def test_small_group_rejected(self, minus_identity_pipeline):
        with pytest.raises(HypothesisError):
            lower_lipschitz_sweep(minus_identity_pipeline, self.EPSILONS)

    def test_no_witness_rejected(self):
        # all pair exponents are (1, 1): no monomial sees eps at second order
        pipeline = make_pipeline(make_cyclic_action(4, [2, 2, 2]))
        with pytest.raises(HypothesisError):
            lower_lipschitz_sweep(pipeline, self.EPSILONS)

    def test_epsilons_validated(self, z12_pipeline):
        for bad in ([0.1, 0.2], [0.6, 0.1], [0.1, 0.1], [-0.1], []):
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
    single-signal calls, gives the reported statistic: the blocked suites
    keep the index of the sample they report."""

    @pytest.fixture(scope="class", params=["z12_pipeline", "translation_pipeline"])
    def pipeline(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def pair(seed, sample, n):
        rng = _rng_for(seed, sample)
        return _sphere_point(rng, n), _sphere_point(rng, n)

    def test_lipschitz(self, pipeline):
        report = empirical_lipschitz(pipeline, samples=2000, seed=7)
        rng = _rng_for(7, report.cases[0]["sample"])
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        x, y = (s * _sphere_point(rng, pipeline.action.n) for s in scales)
        ratio = (np.linalg.norm(embed(pipeline, x) - embed(pipeline, y))
                 / quotient_distance(pipeline.action, x, y))
        assert ratio == pytest.approx(report.statistic, rel=1e-12)

    def test_separation(self, pipeline):
        report = separation_margin(pipeline, samples=400, delta=0.1, seed=7)
        x, y = self.pair(7, report.cases[0]["sample"], pipeline.action.n)
        assert quotient_distance(pipeline.action, x, y) >= 0.1
        margin = np.linalg.norm(embed(pipeline, x) - embed(pipeline, y))
        assert margin == pytest.approx(report.statistic, rel=1e-12)

    def test_nonparallel(self, pipeline):
        report = nonparallel_falsification(pipeline, samples=1200, delta=0.1, seed=7)
        x, y = self.pair(7, report.cases[0]["sample"], pipeline.action.n)
        hx, hy = measure(pipeline, x), measure(pipeline, y)
        lam = max(float(np.real(np.vdot(hy, hx))) / np.linalg.norm(hy) ** 2, 0.0)
        assert lam == pytest.approx(report.cases[0]["lambda"], rel=1e-12)
        resid = np.linalg.norm(hx - lam * hy)
        assert resid == pytest.approx(report.statistic, rel=1e-12)


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
    monkeypatch.setattr(importlib.import_module("orbit_embed.embed"), "BLOCK_BYTES", 64 * 1024)
    run = SAMPLING_SUITES[suite]
    run(z12_pipeline, 1)  # builds the cached tables
    peaks = []
    for samples in (300, 3000):
        tracemalloc.start()
        try:
            run(z12_pipeline, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks
