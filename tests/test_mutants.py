"""Seeded defects in Phi, and which pair suite must fail on each.

Each mutant is one wrong piece of the map on the z12 fixture; the pair suites
(separation, lipschitz, nonparallel) share one sampling loop, so these tests
show that the loop still fails a wrong Phi where it should. A mutant that the
pair suites do not fail is kept too, as a recorded blind spot, with the oracle
that does find it where there is one.
"""

import dataclasses

import numpy as np
import pytest

from orbit_embed import (analysis, empirical_lipschitz, measure, nonparallel_falsification,
                         separation_margin)
from orbit_embed.invariants import PairMonomial, SeparatingSet
from orbit_embed.oracles import separation_counterexample

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


def test_fixture_passes_every_pair_suite(z12_pipeline):
    assert all(run(z12_pipeline).passed for run in PAIR_SUITES.values())


def test_raised_pair_exponent_fails_separation_and_nonparallel(z12_pipeline):
    mutant = raised_pair_exponent(z12_pipeline)
    assert mutant.sset.pairs[0].b == 3
    separation = PAIR_SUITES["separation"](mutant)
    assert not separation.passed
    assert separation.extra["same_orbit_leakage"] > analysis.SAME_ORBIT_TOL
    nonparallel = PAIR_SUITES["nonparallel"](mutant)
    assert not nonparallel.passed
    assert nonparallel.extra["same_orbit_lambda_error"] > analysis.LAMBDA_TOL


def test_unnormalized_phi_fails_lipschitz(z12_pipeline, monkeypatch):
    # H in place of Phi = ||x|| H(x / ||x||): at norms up to 1e3 the degree-12
    # monomials blow the ratio up by orders of magnitude past 3 m ||l||
    monkeypatch.setattr(analysis, "embed", measure)
    report = PAIR_SUITES["lipschitz"](z12_pipeline)
    assert not report.passed
    assert report.statistic > 1e6 * report.threshold


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
