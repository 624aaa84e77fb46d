"""Empirical verification of every quantitative property of the embedding.

Each suite draws seeded samples, measures a worst-case statistic, and
compares it against a fixed threshold. Sphere sampling uses normalized
independent complex Gaussian coordinates (uniform on the unit sphere), and
per-sample generators are derived deterministically from
(master seed, sample index), so a report is a pure function of
(pipeline, seed, samples). Samples are drawn and evaluated in blocks, so a
suite's memory does not grow with its sample count; a reported worst case
is the first sample, in index order, that attains it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .action import CyclicAction, act, as_signals, make_cyclic_action, orbit, quotient_distance
from .embed import (Pipeline, blocks, embed, embed_monomial_domain,
                    eval_invariants, eval_partials, lipschitz_bound, measure)
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
# The separation margin must exceed the same-orbit leakage by this factor.
SEPARATION_HEADROOM = 10.0

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


def is_int(value) -> bool:
    """An integer that is not a boolean (JSON ``true`` is not a number)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# Suite parameter name -> (type and range check given the action's dimension
# n, the rule). The suites and the config loader both check through check_param.
PARAMS = {
    "samples": (lambda v, n: is_int(v) and v >= 1, "must be an integer >= 1"),
    "p": (lambda v, n: is_int(v) and v >= 5 and _is_prime(v), "must be a prime integer >= 5"),
    "delta": (lambda v, n: is_real(v) and 0.0 < v < 2.0, "must be a real number in (0, 2)"),
    "epsilons": (lambda v, n: isinstance(v, (list, tuple)) and bool(v)
                 and all(is_real(e) and 0.0 < e <= 0.5 for e in v)
                 and all(b < a for a, b in zip(v, v[1:])),
                 "must be a nonempty, strictly decreasing list of real numbers in (0, 0.5]"),
    "witness": (lambda v, n: v is None or (isinstance(v, (list, tuple)) and len(v) == 2
                                           and all(map(is_int, v)) and 0 <= min(v)
                                           and max(v) < n and v[0] != v[1]),
                "must be null or two distinct integer coordinates in 0..{n}-1"),
}


def check_param(name: str, value, n: int | None = None) -> None:
    """Raise ParameterError, naming the parameter and its rule, when the value
    has the wrong type or is out of range."""
    valid, message = PARAMS[name]
    if not valid(value, n):
        raise ParameterError(f"{name} {message.format(n=n)}, got {value!r}")


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _sphere_point(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _sample_blocks(seed: int, samples: int, width: int, draw):
    """Per block of samples of ``width`` complex values (``embed.blocks``), yield its
    first index and ``draw(rng)``, a tuple per sample from its own stream, stacked."""
    for block in blocks(samples, width):
        rngs = (_rng_for(seed, i) for i in range(block.start, block.stop))
        yield (block.start, *map(np.array, zip(*map(draw, rngs))))


def _orbit_deviation(action: CyclicAction, f, samples: int, seed: int, width: int,
                     worst: float = 0.0) -> tuple[float, dict | None]:
    """Largest ``||f(T^k x) - f(x)|| / (1 + ||f(x)||)`` over sampled unit x, k = 1..m-1
    (f maps rows to rows of ``width``), and the first case beating ``worst``, or None."""
    n, m = action.n, action.m
    case = None
    for start, x in _sample_blocks(seed, samples, m * width, lambda rng: (_sphere_point(rng, n),)):
        values = f(orbit(action, x).reshape(-1, n)).reshape(len(x), m, -1)  # k = 0 is x
        dev = (np.linalg.norm(values[:, 1:] - values[:, :1], axis=-1)
               / (1.0 + np.linalg.norm(values[:, :1], axis=-1)))
        if dev.size and dev.max() > worst:
            i = int(np.argmax(dev))
            worst = float(dev.flat[i])
            case = {"sample": start + i // (m - 1), "k": i % (m - 1) + 1, "deviation": worst}
    return worst, case


def _parallel_fit(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row with ``||h||^2 != 0`` (the mask ``ok``), the best positive multiple
    ``lambda* = max(Re<h, g>, 0) / ||h||^2`` and the residual ``||g - lambda* h||``."""
    h2 = np.linalg.norm(h, axis=-1) ** 2
    ok = h2 != 0.0
    h, g = h[ok], g[ok]
    lam = np.maximum(np.real(np.sum(h.conj() * g, axis=-1)) / h2[ok], 0.0)
    return ok, lam, np.linalg.norm(g - lam[:, None] * h, axis=-1)


def check_invariance(pipeline: Pipeline, samples: int, seed: int = 0) -> VerificationReport:
    """Max relative deviation of Phi over full orbits of random unit signals.

    The zero signal is always included as a forced case; its embeddings must
    vanish exactly, not merely be small.
    """
    check_param("samples", samples)
    action = pipeline.action
    zero = float(np.linalg.norm(embed(pipeline, orbit(action, np.zeros(action.n))), axis=-1).max())
    worst, case = _orbit_deviation(action, lambda u: embed(pipeline, u), samples, seed,
                                   max(action.n, pipeline.target_dim), zero)
    return VerificationReport(
        suite="invariance", samples=samples, seed=seed,
        statistic=worst, threshold=INVARIANCE_TOL,
        passed=worst <= INVARIANCE_TOL, cases=(case,) if case else ())


def separation_margin(pipeline: Pipeline, samples: int, delta: float,
                      seed: int = 0) -> VerificationReport:
    """Smallest embedding distance between clearly distinct orbits.

    Injectivity holds for a generic reducer draw; sampling verifies it
    quantitatively: among random unit pairs with quotient distance >= delta,
    the minimum of ||Phi(x)-Phi(y)|| must be positive and exceed the
    same-orbit leakage (which must itself stay below 1e-10) by a factor of
    ``SEPARATION_HEADROOM``.
    """
    check_param("delta", delta)
    check_param("samples", samples)
    action = pipeline.action
    n, m = action.n, action.m
    margin = math.inf
    leakage = 0.0
    qualifying = 0
    cases: list[dict] = []
    for start, x, y in _sample_blocks(seed, samples, (m + 1) * max(n, pipeline.target_dim),
                                      lambda rng: (_sphere_point(rng, n), _sphere_point(rng, n))):
        phi = embed(pipeline, orbit(action, x).reshape(-1, n)).reshape(len(x), m, -1)
        spread = np.linalg.norm(phi[:, 1:] - phi[:, :1], axis=-1)  # k = 0 is Phi(x)
        leakage = max(leakage, float(spread.max(initial=0.0)))
        d = quotient_distance(action, x, y)
        far = np.flatnonzero(d >= delta)
        gaps = np.linalg.norm(phi[far, 0] - embed(pipeline, y[far]), axis=-1)
        qualifying += len(far)
        if gaps.size and gaps.min() < margin:
            i = int(np.argmin(gaps))
            margin = float(gaps[i])
            cases = [{"sample": start + int(far[i]),
                      "quotient_distance": float(d[far[i]]), "margin": margin}]
    if qualifying == 0:
        margin = 0.0
    passed = (qualifying > 0 and leakage <= SAME_ORBIT_TOL
              and margin > 0.0 and margin > SEPARATION_HEADROOM * leakage)
    return VerificationReport(
        suite="separation", samples=samples, seed=seed,
        statistic=margin, threshold=SEPARATION_HEADROOM * leakage, passed=passed,
        cases=tuple(cases),
        extra={"delta": delta, "qualifying_pairs": qualifying,
               "same_orbit_leakage": leakage, "headroom": SEPARATION_HEADROOM})


def empirical_lipschitz(pipeline: Pipeline, samples: int, seed: int = 0) -> VerificationReport:
    """Largest observed ratio ||Phi(x)-Phi(y)|| / d([x],[y]) at mixed scales.

    Point norms are log-uniform in [1e-3, 1e3]; the ratio must stay below the
    proven constant 3*m*||l|| (up to 1e-9 relative slack for rounding). The
    observed maximum is also the empirical Lipschitz estimate.
    """
    check_param("samples", samples)
    action = pipeline.action
    n = action.n
    bound = lipschitz_bound(pipeline)
    threshold = bound.bound * (1.0 + 1e-9)
    worst = 0.0
    excluded = 0
    cases: list[dict] = []
    for start, x, y in _sample_blocks(
            seed, samples, 2 * max(n, pipeline.target_dim),
            # two scales, then the two unit points they scale
            lambda rng: tuple(s * _sphere_point(rng, n)
                              for s in 10.0 ** rng.uniform(-3.0, 3.0, size=2))):
        d = quotient_distance(action, x, y)
        kept = np.flatnonzero(d >= RATIO_EXCLUSION)
        excluded += len(d) - len(kept)
        ratios = np.linalg.norm(embed(pipeline, x[kept]) - embed(pipeline, y[kept]),
                                axis=-1) / d[kept]
        if ratios.size and ratios.max() > worst:
            i = int(np.argmax(ratios))
            worst = float(ratios[i])
            cases = [{"sample": start + int(kept[i]),
                      "quotient_distance": float(d[kept[i]]), "ratio": worst}]
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
    check_param("delta", delta)
    check_param("samples", samples)
    action = pipeline.action
    n, m = action.n, action.m
    min_residual = math.inf
    qualifying = 0
    zero_image = 0
    lam_err = 0.0
    same_resid = 0.0
    cases: list[dict] = []
    for start, x, y, k in _sample_blocks(
            seed, samples, 3 * max(n, pipeline.target_dim),
            # the pair, then the group element of the same-orbit pair (x, T^k x)
            lambda rng: (_sphere_point(rng, n), _sphere_point(rng, n),
                         int(rng.integers(1, m)) if m > 1 else 0)):
        hx, hy = measure(pipeline, x), measure(pipeline, y)
        far = np.flatnonzero(quotient_distance(action, x, y) >= delta)
        ok, lam, resid = _parallel_fit(hy[far], hx[far])
        zero_image += int(np.sum(~ok))
        qualifying += len(lam)
        if resid.size and resid.min() < min_residual:
            i = int(np.argmin(resid))
            min_residual = float(resid[i])
            cases = [{"sample": start + int(far[ok][i]), "lambda": float(lam[i]),
                      "residual": min_residual}]
        # same-orbit fixed point: lambda* = 1, residual ~ 0
        ok, lam, resid = _parallel_fit(hx, measure(pipeline, act(action, k, x)))
        zero_image += int(np.sum(~ok))
        lam_err = max(lam_err, float(np.abs(lam - 1.0).max(initial=0.0)))
        same_resid = max(same_resid, float(resid.max(initial=0.0)))
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
    check_param("samples", samples)
    m = sset.action.m
    max_component = 0.0
    max_partial = 0.0
    for _, x in _sample_blocks(seed, samples, sset.size,
                               lambda rng: (_sphere_point(rng, sset.n),)):
        max_component = max(max_component, float(np.abs(eval_invariants(sset, x)).max()))
        # the partials that can be nonzero, without the dense (S, N, n) Jacobian
        max_partial = max(max_partial, *(float(np.abs(d).max(initial=0.0))
                                         for d in eval_partials(sset, x)))
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
    y = as_signals(y, sset.n)
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
    check_param("epsilons", epsilons)
    check_param("witness", witness, diag.n)
    eps = [float(e) for e in epsilons]
    if witness is None:
        support, perturb, _ = find_degeneration_witness(pipeline.sset)
    else:
        support, perturb = witness

    # row 0 is the base point x (eps = 0), row i + 1 is x_eps for eps[i]
    xe = np.zeros((len(eps) + 1, diag.n), dtype=np.complex128)
    xe[:, support] = np.sqrt(1.0 - np.square([0.0] + eps))
    xe[1:, perturb] = eps
    dists = quotient_distance(diag, xe[1:], xe[0])
    if (dists <= 0.0).any():
        raise HypothesisError(f"witness path hit the same orbit at eps={eps[np.argmin(dists)]}")
    phi = embed_monomial_domain(pipeline, xe)
    # the whole-vector (BLAS dot) norm of each row keeps the recorded sweep bits
    gaps = [float(np.linalg.norm(row)) for row in phi[1:] - phi[0]]
    ratios = (np.array(gaps) / dists).tolist()

    log_e = np.log(eps)
    log_r = np.log(ratios)
    slope, intercept = np.polyfit(log_e, log_r, 1)
    fit = slope * log_e + intercept
    residual = float(np.sqrt(np.mean((fit - log_r) ** 2)))
    passed = 0.8 <= slope <= 1.2 and ratios[-1] / ratios[0] < 0.5
    return SweepResult(
        epsilons=tuple(eps), quotient_distances=tuple(dists.tolist()),
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
    xhat_1^{p-2} xhat_2, ..., xhat_1 xhat_{p-1}), a vector of length 2p-2
    (row by row for a batch ``(S, p)``). It is invariant under modulation
    but fails to separate orbits whenever xhat_1 = 0, which is why the full
    separating set is needed.
    """
    if not _is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")
    xhat = as_signals(xhat, p)
    cross = xhat[..., 1:2] ** np.arange(p - 2, 0, -1) * xhat[..., 2:]
    return np.concatenate((xhat[..., :1], xhat[..., 1:] ** p, cross), axis=-1)


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
    check_param("samples", samples)
    check_param("p", p)
    modulation = make_cyclic_action(p, range(p))
    worst, _ = _orbit_deviation(modulation, lambda u: prime_fourier_map(p, u),
                                samples, seed, 2 * p - 2)
    x, y = prime_collision_pair(p)
    map_gap = float(np.linalg.norm(prime_fourier_map(p, x) - prime_fourier_map(p, y)))
    orbit_gap = float(quotient_distance(modulation, x, y))
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
