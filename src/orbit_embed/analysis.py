"""Empirical verification of every quantitative property of the embedding.

Each suite draws seeded samples, measures a worst-case statistic, and
compares it against a fixed threshold. Sphere sampling uses normalized
independent complex Gaussian coordinates (uniform on the unit sphere), and
per-sample generators are derived deterministically from
(master seed, sample index), so a report is a pure function of
(pipeline, seed, samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import act, as_signal, make_cyclic_action, orbit, quotient_distance
from .embed import (Pipeline, embed, embed_monomial_domain, eval_gradient,
                    eval_invariants, lipschitz_bound, measure)
from .errors import HypothesisError, ParameterError
from .invariants import PairMonomial, SeparatingSet

__all__ = [
    "VerificationReport", "SweepResult",
    "check_invariance", "separation_margin", "empirical_lipschitz",
    "nonparallel_falsification", "sup_norm_check",
    "lower_lipschitz_sweep", "find_degeneration_witness",
    "tilde_rescale", "prime_fourier_map", "prime_case_report",
    "INVARIANCE_TOL", "SAME_ORBIT_TOL",
]

# Relative tolerance for "equal up to floating point" on embedded values.
INVARIANCE_TOL = 1e-10
# Same-orbit leakage and non-parallel fixed-point tolerances.
SAME_ORBIT_TOL = 1e-10
LAMBDA_TOL = 1e-8
# Pairs closer than this in the quotient metric are excluded from ratio
# statistics (prevents 0/0 on same-orbit draws).
RATIO_EXCLUSION = 1e-12

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: worst-case statistic against a fixed threshold."""

    suite: str
    samples: int
    seed: int
    statistic: float
    threshold: float
    passed: bool
    cases: tuple[dict, ...] = ()
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "cases": list(self.cases),
            "extra": dict(self.extra),
        }


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _sphere_point(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def check_invariance(pipeline: Pipeline, samples: int, seed: int = 0) -> VerificationReport:
    """Max relative deviation of Phi over full orbits of random unit signals.

    The zero signal is always included as a forced case; its embeddings must
    vanish exactly, not merely be small.
    """
    if samples < 1:
        raise ParameterError("need at least one sample")
    action = pipeline.action
    worst = 0.0
    cases: list[dict] = []

    zero = np.zeros(action.n)
    for k in range(action.m):
        dev = float(np.linalg.norm(embed(pipeline, act(action, k, zero))))
        worst = max(worst, dev)

    for i in range(samples):
        x = _sphere_point(_rng_for(seed, i), action.n)
        phi_x = embed(pipeline, x)
        scale = 1.0 + float(np.linalg.norm(phi_x))
        for k in range(1, action.m):
            dev = float(np.linalg.norm(embed(pipeline, act(action, k, x)) - phi_x)) / scale
            if dev > worst:
                worst = dev
                cases = [{"sample": i, "k": k, "deviation": dev}]
    return VerificationReport(
        suite="invariance", samples=samples, seed=seed,
        statistic=worst, threshold=INVARIANCE_TOL,
        passed=worst <= INVARIANCE_TOL, cases=tuple(cases))


def separation_margin(pipeline: Pipeline, samples: int, delta: float,
                      seed: int = 0, headroom: float = 10.0) -> VerificationReport:
    """Smallest embedding distance between clearly distinct orbits.

    Injectivity holds for a generic reducer draw; sampling verifies it
    quantitatively: among random unit pairs with quotient distance >= delta,
    the minimum of ||Phi(x)-Phi(y)|| must be positive and exceed the
    same-orbit leakage (which must itself stay below 1e-10) by ``headroom``.
    """
    if not 0.0 < delta < 2.0:
        raise ParameterError(f"delta must lie in (0, 2), got {delta}")
    if samples < 1:
        raise ParameterError("need at least one sample")
    action = pipeline.action
    margin = math.inf
    leakage = 0.0
    qualifying = 0
    cases: list[dict] = []
    for i in range(samples):
        rng = _rng_for(seed, i)
        x = _sphere_point(rng, action.n)
        y = _sphere_point(rng, action.n)
        phi_x = embed(pipeline, x)
        d = quotient_distance(action, x, y)
        if d >= delta:
            gap = float(np.linalg.norm(phi_x - embed(pipeline, y)))
            qualifying += 1
            if gap < margin:
                margin = gap
                cases = [{"sample": i, "quotient_distance": d, "margin": gap}]
        for k in range(1, action.m):
            leakage = max(leakage, float(
                np.linalg.norm(embed(pipeline, act(action, k, x)) - phi_x)))
    if qualifying == 0:
        margin = 0.0
    passed = (qualifying > 0 and leakage <= SAME_ORBIT_TOL
              and margin > 0.0 and margin > headroom * leakage)
    return VerificationReport(
        suite="separation", samples=samples, seed=seed,
        statistic=margin, threshold=headroom * leakage, passed=passed,
        cases=tuple(cases),
        extra={"delta": delta, "qualifying_pairs": qualifying,
               "same_orbit_leakage": leakage, "headroom": headroom})


def empirical_lipschitz(pipeline: Pipeline, samples: int, seed: int = 0) -> VerificationReport:
    """Largest observed ratio ||Phi(x)-Phi(y)|| / d([x],[y]) at mixed scales.

    Point norms are log-uniform in [1e-3, 1e3]; the ratio must stay below the
    proven constant 3*m*||l|| (up to 1e-9 relative slack for rounding). The
    observed maximum is also the empirical Lipschitz estimate.
    """
    if samples < 1:
        raise ParameterError("need at least one sample")
    action = pipeline.action
    bound = lipschitz_bound(pipeline)
    threshold = bound.bound * (1.0 + 1e-9)
    worst = 0.0
    excluded = 0
    cases: list[dict] = []
    for i in range(samples):
        rng = _rng_for(seed, i)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        x = scales[0] * _sphere_point(rng, action.n)
        y = scales[1] * _sphere_point(rng, action.n)
        d = quotient_distance(action, x, y)
        if d < RATIO_EXCLUSION:
            excluded += 1
            continue
        ratio = float(np.linalg.norm(embed(pipeline, x) - embed(pipeline, y))) / d
        if ratio > worst:
            worst = ratio
            cases = [{"sample": i, "quotient_distance": d, "ratio": ratio}]
    return VerificationReport(
        suite="lipschitz", samples=samples, seed=seed,
        statistic=worst, threshold=threshold, passed=worst <= threshold,
        cases=tuple(cases),
        extra={"bound": bound.bound, "reducer_norm": bound.reducer_norm,
               "group_order": bound.m, "excluded_pairs": excluded})


def nonparallel_falsification(pipeline: Pipeline, samples: int, delta: float,
                              seed: int = 0) -> VerificationReport:
    """Statistical falsification of H(x) parallel to H(y) across orbits.

    For unit pairs with quotient distance >= delta, the best positive-multiple
    fit lambda* = max(Re<H(x), H(y)>, 0) / ||H(y)||^2 must leave a strictly
    positive residual ||H(x) - lambda* H(y)||. Same-orbit pairs must sit at
    the fixed point lambda* = 1 with vanishing residual. Pairs with
    ||H(y)|| = 0 are counted separately, never divided through.
    """
    if not 0.0 < delta < 2.0:
        raise ParameterError(f"delta must lie in (0, 2), got {delta}")
    if samples < 1:
        raise ParameterError("need at least one sample")
    action = pipeline.action
    min_residual = math.inf
    qualifying = 0
    zero_image = 0
    lam_err = 0.0
    same_resid = 0.0
    cases: list[dict] = []
    for i in range(samples):
        rng = _rng_for(seed, i)
        x = _sphere_point(rng, action.n)
        y = _sphere_point(rng, action.n)
        hx = measure(pipeline, x)
        hy = measure(pipeline, y)
        ny2 = float(np.linalg.norm(hy)) ** 2
        if quotient_distance(action, x, y) >= delta:
            if ny2 == 0.0:
                zero_image += 1
            else:
                lam = max(float(np.real(np.vdot(hy, hx))) / ny2, 0.0)
                resid = float(np.linalg.norm(hx - lam * hy))
                qualifying += 1
                if resid < min_residual:
                    min_residual = resid
                    cases = [{"sample": i, "lambda": lam, "residual": resid}]
        # same-orbit fixed point: lambda* = 1, residual ~ 0
        k = int(rng.integers(1, action.m)) if action.m > 1 else 0
        hgx = measure(pipeline, act(action, k, x))
        nx2 = float(np.linalg.norm(hx)) ** 2
        if nx2 == 0.0:
            zero_image += 1
        else:
            lam = max(float(np.real(np.vdot(hx, hgx))) / nx2, 0.0)
            lam_err = max(lam_err, abs(lam - 1.0))
            same_resid = max(same_resid, float(np.linalg.norm(hgx - lam * hx)))
    if qualifying == 0:
        min_residual = 0.0
    passed = (qualifying > 0 and min_residual > 0.0
              and lam_err <= LAMBDA_TOL and same_resid <= LAMBDA_TOL)
    return VerificationReport(
        suite="nonparallel", samples=samples, seed=seed,
        statistic=min_residual, threshold=0.0, passed=passed,
        cases=tuple(cases),
        extra={"delta": delta, "qualifying_pairs": qualifying,
               "zero_image_pairs": zero_image,
               "same_orbit_lambda_error": lam_err,
               "same_orbit_residual": same_resid})


def sup_norm_check(sset: SeparatingSet, samples: int, seed: int = 0) -> VerificationReport:
    """Bound every monomial and every analytic partial on the unit sphere.

    At unit points each monomial has modulus at most 1 and each holomorphic
    partial has modulus at most the group order m.
    """
    if samples < 1:
        raise ParameterError("need at least one sample")
    m = sset.action.m
    max_component = 0.0
    max_partial = 0.0
    for i in range(samples):
        x = _sphere_point(_rng_for(seed, i), sset.n)
        max_component = max(max_component, float(np.abs(eval_invariants(sset, x)).max()))
        max_partial = max(max_partial, float(np.abs(eval_gradient(sset, x)).max()))
    component_ok = max_component <= 1.0 + 1e-12
    partial_ok = max_partial <= m + 1e-9
    return VerificationReport(
        suite="sup_norm", samples=samples, seed=seed,
        statistic=max(max_component - 1.0, max_partial - m),
        threshold=1e-9, passed=component_ok and partial_ok,
        extra={"max_component": max_component, "max_partial": max_partial,
               "group_order": m})


# --- tilde rescaling (the device behind the non-parallel proof) ---------------

def tilde_rescale(sset: SeparatingSet, y, lam: float) -> np.ndarray:
    """Rescale coordinate i by lam**(1/m_i).

    Scaling the power monomials by lam is realized exactly by this
    coordinate rescaling; pair monomials whose exponents satisfy
    a/m_j + b/m_k = 1 scale by lam as well.
    """
    if lam <= 0:
        raise ParameterError(f"rescale factor must be positive, got {lam}")
    y = as_signal(y, sset.n)
    exponents = 1.0 / np.array(sset.orders, dtype=np.float64)
    return lam ** exponents * y


# --- lower-Lipschitz degeneration sweep ----------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Ratio ||Phi(x_eps)-Phi(x)|| / d([x_eps],[x]) along a shrinking witness.

    The embedding difference is O(eps^2) while the orbit distance is
    eps*(1+o(1)), so the ratio decays linearly: the fitted log-log slope must
    sit near 1 and the ratio must visibly collapse across the range. This is
    the witnessed failure of any lower Lipschitz bound.
    """

    epsilons: tuple[float, ...]
    quotient_distances: tuple[float, ...]
    embedding_gaps: tuple[float, ...]
    ratios: tuple[float, ...]
    slope: float
    residual: float
    support_index: int
    perturb_index: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "suite": "lower_lipschitz_sweep",
            "epsilons": list(self.epsilons),
            "quotient_distances": list(self.quotient_distances),
            "embedding_gaps": list(self.embedding_gaps),
            "ratios": list(self.ratios),
            "slope": self.slope,
            "residual": self.residual,
            "support_index": self.support_index,
            "perturb_index": self.perturb_index,
            "pass": self.passed,
        }

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(epsilon, quotient distance, embedding gap, ratio) per epsilon."""
        return list(zip(self.epsilons, self.quotient_distances,
                        self.embedding_gaps, self.ratios))


def find_degeneration_witness(sset: SeparatingSet) -> tuple[int, int, PairMonomial]:
    """Locate the witness (support, perturbed) coordinates for the sweep.

    Scans pairs in canonical order for one with max{a, b} >= 2 and places the
    eps-perturbation on the coordinate whose pair exponent is >= 2 (its power
    exponent must also be >= 2), so every monomial difference along the
    witness path is O(eps^2). Returns 0-based (support, perturbed) indices.
    """
    orders = sset.orders
    for p in sset.pairs:
        if p.b >= 2 and orders[p.k - 1] >= 2:
            return p.j - 1, p.k - 1, p
        if p.a >= 2 and orders[p.j - 1] >= 2:
            return p.k - 1, p.j - 1, p
    raise HypothesisError("no coordinate pair with max{a, b} >= 2 and a "
                          "non-fixed perturbed coordinate; the degeneration "
                          "witness does not exist for this action")


def lower_lipschitz_sweep(pipeline: Pipeline, epsilons,
                          witness: tuple[int, int] | None = None) -> SweepResult:
    """Quantify the unavoidable degeneration of the lower Lipschitz ratio.

    With unit mass on the support coordinate and eps on the perturbed one,
    computes ratio(eps) = ||Phi(x_eps)-Phi(x)|| / d([x_eps],[x]) for every
    eps, fits the log-log slope, and passes iff the slope lies in [0.8, 1.2]
    and the ratio at least halves from the largest to the smallest eps.
    The witness pair is auto-detected unless given explicitly (0-based).
    """
    diag = pipeline.diag
    if diag.m < 3 or diag.n < 3:
        raise HypothesisError(
            f"degeneration requires group order and dimension >= 3, "
            f"got m={diag.m}, n={diag.n}")
    eps = [float(e) for e in epsilons]
    if not eps or any(e <= 0.0 or e > 0.5 for e in eps):
        raise ParameterError("epsilons must lie in (0, 0.5]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ParameterError("epsilons must be strictly decreasing")
    if witness is None:
        support, perturb, _ = find_degeneration_witness(pipeline.sset)
    else:
        support, perturb = witness
        if not (0 <= support < diag.n and 0 <= perturb < diag.n) or support == perturb:
            raise ParameterError(f"invalid witness coordinates {witness}")

    x = np.zeros(diag.n, dtype=np.complex128)
    x[support] = 1.0
    phi_x = embed_monomial_domain(pipeline, x)

    dists, gaps, ratios = [], [], []
    for e in eps:
        xe = x.copy()
        xe[support] = math.sqrt(1.0 - e * e)
        xe[perturb] = e
        d = quotient_distance(diag, xe, x)
        if d <= 0.0:
            raise HypothesisError(f"witness path hit the same orbit at eps={e}")
        gap = float(np.linalg.norm(embed_monomial_domain(pipeline, xe) - phi_x))
        dists.append(d)
        gaps.append(gap)
        ratios.append(gap / d)

    log_e = np.log(eps)
    log_r = np.log(ratios)
    slope, intercept = np.polyfit(log_e, log_r, 1)
    fit = slope * log_e + intercept
    residual = float(np.sqrt(np.mean((fit - log_r) ** 2)))
    passed = 0.8 <= slope <= 1.2 and ratios[-1] / ratios[0] < 0.5
    return SweepResult(
        epsilons=tuple(eps), quotient_distances=tuple(dists),
        embedding_gaps=tuple(gaps), ratios=tuple(ratios),
        slope=float(slope), residual=residual,
        support_index=support, perturb_index=perturb, passed=passed)


# --- the prime-case introductory map and its separation failure ----------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % q for q in range(2, int(math.isqrt(p)) + 1))


def prime_fourier_map(p: int, xhat) -> np.ndarray:
    """The naive Fourier-domain invariant map for prime p.

    Sends xhat to (xhat_0, xhat_1^p, ..., xhat_{p-1}^p,
    xhat_1^{p-2} xhat_2, ..., xhat_1 xhat_{p-1}), a vector of length 2p-2.
    It is invariant under modulation but fails to separate orbits whenever
    xhat_1 = 0, which is why the full separating set is needed.
    """
    if not _is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")
    xhat = as_signal(xhat, p)
    head = [xhat[0]]
    powers = [xhat[k] ** p for k in range(1, p)]
    cross = [xhat[1] ** (p - k) * xhat[k] for k in range(2, p)]
    return np.array(head + powers + cross, dtype=np.complex128)


def prime_collision_pair(p: int) -> tuple[np.ndarray, np.ndarray]:
    """A pair on distinct orbits that the prime-case map cannot distinguish.

    Both vectors vanish on coefficients 0 and 1 and are flat elsewhere; one
    has its second free coefficient rotated by a p-th root of unity. All map
    coordinates that could see the rotation contain the vanishing xhat_1.
    """
    if p < 5:
        raise ParameterError("the collision construction needs p >= 5")
    x = np.zeros(p, dtype=np.complex128)
    x[2:] = 1.0
    y = x.copy()
    y[2] = np.exp(2j * np.pi / p)
    return x, y


def prime_case_report(p: int = 5, samples: int = 200, seed: int = 0) -> VerificationReport:
    """Demonstrate that the prime-case map is invariant yet non-separating."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    modulation = make_cyclic_action(p, range(p))
    worst = 0.0
    for i in range(samples):
        x = _sphere_point(_rng_for(seed, i), p)
        fx = prime_fourier_map(p, x)
        scale = 1.0 + float(np.linalg.norm(fx))
        for k in range(1, p):
            dev = float(np.linalg.norm(
                prime_fourier_map(p, act(modulation, k, x)) - fx)) / scale
            worst = max(worst, dev)
    x, y = prime_collision_pair(p)
    map_gap = float(np.linalg.norm(prime_fourier_map(p, x) - prime_fourier_map(p, y)))
    orbit_gap = quotient_distance(modulation, x, y)
    # exhaustive orbit check: y must not appear in the orbit of x
    same_orbit = bool(np.any(np.all(np.isclose(orbit(modulation, x), y), axis=1)))
    passed = (worst <= INVARIANCE_TOL and map_gap <= INVARIANCE_TOL
              and orbit_gap > 0.5 and not same_orbit)
    return VerificationReport(
        suite="prime_case", samples=samples, seed=seed,
        statistic=max(worst, map_gap), threshold=INVARIANCE_TOL, passed=passed,
        extra={"p": p, "collision_map_gap": map_gap,
               "collision_orbit_distance": orbit_gap,
               "collision_same_orbit": same_orbit})
