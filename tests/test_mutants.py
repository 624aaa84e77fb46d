"""Seeded defects in Phi, F and its partials, and which check must fail on each.

Each mutant is one wrong piece of the map on the z12 fixture (seed 7). The pair
suites (separation, lipschitz, nonparallel) share one sampling loop, so these
tests show that the loop still fails a wrong Phi where it should; invariance
and sup_norm each fail a mutant too. A mutant that the suites do not fail is
kept as well, as a recorded blind spot, with the oracle that does find it
where there is one.
"""

import dataclasses
import importlib
import json

import numpy as np
import pytest

from orbit_embed import (analysis, check_invariance, embed, empirical_lipschitz,
                         make_pipeline, make_translation_action, measure,
                         nonparallel_falsification, separation_margin, sup_norm_check)
from orbit_embed.invariants import PairMonomial, SeparatingSet
from orbit_embed.oracles import (gradient_discrepancy, sample_rng, separation_counterexample,
                                 sphere_point)

embed_module = importlib.import_module("orbit_embed.embed")

PAIR_SUITES = {
    "separation": lambda p: separation_margin(p, 300, 0.1, seed=7),
    "lipschitz": lambda p: empirical_lipschitz(p, 1000, seed=7),
    "nonparallel": lambda p: nonparallel_falsification(p, 300, 0.1, seed=7),
}


def raised_pair_exponent(pipeline):
    """The first pair monomial, x_1 x_2**2 on z12, with b raised by one: no
    longer invariant, so Phi leaks across each orbit."""
    sset = pipeline.sset
    monomials = list(sset.monomials)
    pair = monomials[sset.n]
    monomials[sset.n] = dataclasses.replace(pair, b=pair.b + 1)
    return dataclasses.replace(pipeline, sset=SeparatingSet(sset.action, tuple(monomials)))


def dropped_pair(pipeline):
    """The first pair monomial, x_1 x_2**2 on z12, replaced by x_1**2, which the
    set already holds: F no longer fixes the relative phase of x_1 and x_2."""
    sset = pipeline.sset
    monomials = list(sset.monomials)
    monomials[sset.n] = PairMonomial(1, 2, 2, 0)
    return dataclasses.replace(pipeline, sset=SeparatingSet(sset.action, tuple(monomials)))


def rank_one_reducer(pipeline):
    """Every row of the reducer its first row, so H(x) is a complex multiple of
    one vector."""
    entries = np.repeat(pipeline.reducer.entries[:1], pipeline.target_dim, axis=0)
    entries.setflags(write=False)
    return dataclasses.replace(pipeline,
                               reducer=dataclasses.replace(pipeline.reducer, entries=entries))


def sphere_points(sset, count=20):
    """The first ``count`` sphere points of seed 7, as golden.json's gradient check draws them."""
    return np.array([sphere_point(sample_rng(7, i), sset.n) for i in range(count)])


def test_fixture_passes_every_pair_suite(z12_pipeline):
    assert all(run(z12_pipeline).passed for run in PAIR_SUITES.values())


def test_fixture_passes_invariance_sup_norm_and_the_gradient_oracle(z12_pipeline):
    assert check_invariance(z12_pipeline, 300, seed=7).passed
    assert sup_norm_check(z12_pipeline.sset, 1000, seed=7).passed
    assert gradient_discrepancy(z12_pipeline.sset, sphere_points(z12_pipeline.sset)).max() < 1e-5


def test_raised_pair_exponent_fails_separation_and_nonparallel(z12_pipeline):
    mutant = raised_pair_exponent(z12_pipeline)
    assert mutant.sset.pairs[0].b == 3
    separation = PAIR_SUITES["separation"](mutant)
    assert not separation.passed
    assert separation.extra["same_orbit_leakage"] > analysis.SAME_ORBIT_TOL
    nonparallel = PAIR_SUITES["nonparallel"](mutant)
    assert not nonparallel.passed
    assert nonparallel.extra["same_orbit_lambda_error"] > analysis.LAMBDA_TOL


def test_raised_pair_exponent_fails_invariance(z12_pipeline):
    # Phi leaks across the orbit: a relative deviation of about 0.49
    report = check_invariance(raised_pair_exponent(z12_pipeline), 300, seed=7)
    assert not report.passed
    assert report.statistic > 0.4 > analysis.INVARIANCE_TOL


def test_unnormalized_phi_fails_lipschitz(z12_pipeline, monkeypatch):
    # H in place of Phi = ||x|| H(x / ||x||): at norms up to 1e3 the degree-12
    # monomials blow the ratio up by orders of magnitude past 3 m ||l||
    monkeypatch.setattr(analysis, "embed", measure)
    report = PAIR_SUITES["lipschitz"](z12_pipeline)
    assert not report.passed
    assert report.statistic > 1e6 * report.threshold


@pytest.fixture
def scaled_phi(monkeypatch):
    """Phi times 30 wherever the suites embed: Lipschitz ratios and separation
    margins grow thirtyfold, and nonparallel's residuals, which are scale-free,
    do not move."""
    monkeypatch.setattr(analysis, "embed", lambda pipeline, x: 30 * embed(pipeline, x))


@pytest.mark.parametrize("suite", PAIR_SUITES)
def test_scaled_phi_is_a_blind_spot(z12_pipeline, scaled_phi, suite):
    # 30 Phi stays under the Lipschitz gate 3 m ||l|| (about 106 against 224.3
    # here, 166.7 at the shipped 10,000 samples), and a wider separation margin
    # or an unchanged nonparallel residual passes too: no pair suite fails it
    assert PAIR_SUITES[suite](z12_pipeline).passed


def test_scaled_phi_is_found_by_the_golden_comparison(z12_pipeline, scaled_phi, golden_path):
    # golden.json pins z12's separation margin at 1,000 samples (seed 7), the
    # call golden_fixture_values makes; 30 Phi gives thirty times the margin
    pinned = json.loads(golden_path.read_text())["z12_c5"]["separation_margin"]
    margin = separation_margin(z12_pipeline, 1000, 0.1, seed=7).statistic
    assert margin == pytest.approx(30 * pinned, rel=1e-9)
    assert margin != pytest.approx(pinned, rel=1e-9)


@pytest.mark.parametrize("suite", PAIR_SUITES)
def test_rank_one_reducer_is_a_blind_spot(z12_pipeline, suite):
    # a rank-1 reducer cannot separate orbits, but random pairs almost never
    # meet in its one complex direction, nor at a positive real ratio: no pair
    # suite fails it (recorded in the ROADMAP under harness falsification power)
    assert PAIR_SUITES[suite](rank_one_reducer(z12_pipeline)).passed


@pytest.mark.parametrize("suite", PAIR_SUITES)
def test_dropped_pair_is_a_blind_spot(z12_pipeline, suite):
    # the orbits F no longer separates are those of signals supported on x_1 and
    # x_2 alone, which random pairs never draw: no pair suite fails the mutant
    assert PAIR_SUITES[suite](dropped_pair(z12_pipeline)).passed


def test_dropped_pair_is_found_by_the_oracle(z12_pipeline):
    assert separation_counterexample(z12_pipeline.sset) is None
    support, _ = separation_counterexample(dropped_pair(z12_pipeline).sset)
    assert support == (0, 1)


def test_doubled_invariants_fail_sup_norm(z12_pipeline, monkeypatch):
    # 2 F: the largest monomial modulus on the unit sphere is about 1.74 > 1
    evaluate = analysis.eval_invariants
    monkeypatch.setattr(analysis, "eval_invariants", lambda sset, x: 2 * evaluate(sset, x))
    report = sup_norm_check(z12_pipeline.sset, 1000, seed=7)
    assert not report.passed
    assert report.extra["max_component"] > 1.5


PARTIAL_MUTANTS = {"doubled": lambda d: 2 * d, "negated": lambda d: -d}


@pytest.fixture(params=PARTIAL_MUTANTS)
def wrong_partials(request, monkeypatch):
    """eval_partials with every partial mapped by one mutant, wherever it is read."""
    evaluate, change = embed_module.eval_partials, PARTIAL_MUTANTS[request.param]

    def mutant(sset, x):
        return tuple(change(d) for d in evaluate(sset, x))

    for module in (analysis, embed_module):
        monkeypatch.setattr(module, "eval_partials", mutant)
    return request.param


def test_wrong_partials_are_a_sup_norm_blind_spot(z12_pipeline, wrong_partials):
    # the doubled partials peak at about 7.97, still under m = 12, and a sign
    # keeps every modulus: sup_norm bounds moduli only
    report = sup_norm_check(z12_pipeline.sset, 1000, seed=7)
    assert report.passed
    assert report.extra["max_partial"] < report.extra["group_order"]


def test_wrong_partials_are_found_by_the_gradient_oracle(z12_pipeline, wrong_partials):
    # golden's gate on the finite-difference gap is 1e-5; unmutated it is about 8e-11,
    # doubled about 2.5 and negated about 5.0 on these 20 points
    sset = z12_pipeline.sset
    assert gradient_discrepancy(sset, sphere_points(sset)).max() > 1.0


def test_flipped_dft_is_an_equivalent_mutant(monkeypatch):
    # np.fft.fft in place of the inverse transform gives weights -j for j, and
    # those admit the same invariant monomials: no check can fail it
    pipeline = make_pipeline(make_translation_action(8), seed=42)
    x = sphere_points(pipeline.sset, 1)
    phi = embed(pipeline, x)
    monkeypatch.setattr(embed_module, "dft", lambda x: np.fft.fft(x) / np.sqrt(x.shape[-1]))
    assert np.abs(embed(pipeline, x) - phi).max() > 0.1  # a different Phi
    report = check_invariance(pipeline, 300, seed=7)
    assert report.passed
    assert report.statistic < 1e-14
