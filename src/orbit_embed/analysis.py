"""Empirical verification of every quantitative property of the embedding.

Each suite draws seeded samples, measures a worst-case statistic, and
compares it against a fixed threshold. Sphere sampling uses normalized
independent complex Gaussian coordinates (uniform on the unit sphere;
``oracles.sphere_point`` draws one point). Sample i draws from numpy's stream
``default_rng(SeedSequence(seed, spawn_key=(i,)))`` (``oracles.sample_rng``),
so a report is a pure function of (pipeline, seed, samples). Each suite states
what one sample draws (``_Draw``). ``_draw_blocks`` hashes the states of the
streams per chunk of indices, sets one generator to each sample's state, and
makes one draw call per kind of draw into block buffers, without a
SeedSequence or Generator per sample: one ``random`` call for the scale
exponents, one ``standard_normal`` call for the normals of all the sample's
points (the ziggurat reads the same words as one call per point), one
``integers`` call for the group element. It then maps the exponents to
[-3, 3) as ``uniform`` does (``-3 + 6 * u``), and normalizes and scales the
whole block at once, each row's norm still the strided BLAS dot of one point,
so every point keeps the bits of ``oracles.sphere_point``. Samples are drawn and
evaluated in blocks, so a suite's memory does not grow with its sample count;
a reported worst case is the first sample, in index order, that attains it. The pair
suites share one loop, ``_pairs``, that yields each block's draws, quotient distances d
and indices with d at or past a cutoff, never Phi or H values; ``quotient_distance``
scores the m group elements one block of pairs at a time, so memory does not grow with m.

``check_invariance`` and ``separation_margin`` read one orbit pass: Phi over
the full orbit of each sample's first sphere point, of which only two running
maxima are kept (``_orbit_pass``). A caller that runs both on one pipeline can
share it by passing both the same dict as ``passes``, a memo keyed by
``(seed, samples)``: ``verify`` makes one per run, so two suites at the same
seed and sample count compute one pass, and at different counts two. Without
``passes`` a suite computes its own pass and keeps nothing. With one BLAS thread,
rows of ``embed`` are bit-identical in any batch, so a shared run writes the same
report bytes as each suite run alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .action import (CyclicAction, act, as_signals, blocks, make_cyclic_action, orbit,
                     quotient_distance)
from .embed import (Pipeline, embed, eval_invariants, eval_partials, lipschitz_bound,
                    measure)
from .errors import HypothesisError, ParameterError, check_param, is_int, is_prime
from .invariants import PairMonomial, SeparatingSet

__all__ = [
    "VerificationReport", "SweepResult",
    "check_invariance", "separation_margin", "empirical_lipschitz",
    "nonparallel_falsification", "sup_norm_check",
    "lower_lipschitz_sweep", "find_degeneration_witness",
    "tilde_rescale", "prime_fourier_map", "prime_collision_pair", "prime_case_report",
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


class _Report:
    def to_json_dict(self) -> dict:
        """The fields, with ``passed`` written as ``pass``."""
        return {"pass" if key == "passed" else key: value for key, value in asdict(self).items()}


@dataclass(frozen=True)
class VerificationReport(_Report):
    """Outcome of one suite: worst-case statistic against a fixed threshold."""

    suite: str
    samples: int
    seed: int
    statistic: float
    threshold: float
    passed: bool
    cases: tuple[dict, ...] = ()
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # the rules accept numpy integers; a report holds Python ints, for JSON
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "seed", int(self.seed))


# numpy's SeedSequence hash (NEP 19) and PCG64 seeding, in 32- and 128-bit words
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL_SIZE, _XSHIFT = 4, 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Samples whose states are hashed together; a power of two, so that no chunk
# holds indices of both one and two 32-bit words.
_STATE_CHUNK = 256


def _seed_sequence_states(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)`` for i in
    ``range(start, stop)``, all of one word count, as rows: numpy's pool for the
    seed alone (``SeedSequence(seed).pool``), then the ``mix_entropy`` hash of the
    index words in uint32 arithmetic over a uint32 array."""
    # numpy's pool took 4 * max(4, L) hashmix calls for the seed's L 32-bit words
    # (padded to the pool size, then cross-mixed); the constant runs on from there
    seed_words = -(-int(seed).bit_length() // 32)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(_POOL_SIZE, seed_words), 2**32) & _MASK32

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ result >> _XSHIFT

    pool = np.random.SeedSequence(seed).pool.tolist()
    index = np.arange(start, stop, dtype=np.uint64)
    entropy = [(index & _MASK32).astype(np.uint32)]
    if start > _MASK32:
        entropy.append((index >> 32).astype(np.uint32))
    for word in entropy:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: 8 words from the pool, read as 4 little-endian uint64
    hash_const = _INIT_B
    words = np.empty((stop - start, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words[:, i] = value ^ value >> _XSHIFT
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _stream_states(seed: int, start: int, stop: int):
    """Yield ``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(i,)))`` for i
    in ``range(start, stop)``: PCG64's ``set_seed`` on each row of
    :func:`_seed_sequence_states`, the 128-bit seed then the 128-bit sequence,
    hashed in chunks of ``_STATE_CHUNK`` aligned indices."""
    for chunk in range(start - start % _STATE_CHUNK, stop, _STATE_CHUNK):
        for row in _seed_sequence_states(seed, max(start, chunk), min(stop, chunk + _STATE_CHUNK)):
            seed_hi, seed_lo, seq_hi, seq_lo = row.tolist()
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
            yield ((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc


class _Draw(NamedTuple):
    """What each sample draws from its stream, in this order: if ``scaled``, one
    exponent u uniform in [-3, 3) per point, which scales that point by 10**u;
    ``points`` points uniform on the unit sphere of C^n, each 2n standard
    normals (the real parts, then the imaginary ones) divided by their norm
    (``oracles.sphere_point``); if ``order``, a group element uniform in
    1..order-1 (0 for order 1)."""

    n: int
    points: int
    scaled: bool = False
    order: int = 0


def _draw_blocks(seed: int, samples: int, width: int, draw: _Draw):
    """Per block of samples of ``width`` complex values (``action.blocks``), yield its
    first index, one ``(S, n)`` array per point of ``draw``, and, if ``draw.order``,
    the ``(S,)`` group elements. Sample i draws from its own stream
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))`` (``oracles.sample_rng``):
    one generator, set to each sample's state in turn."""
    rng = np.random.Generator(np.random.PCG64(0))
    states = _stream_states(seed, 0, samples)
    for block in blocks(samples, width):
        yield (block.start, *_draw_block(rng, states, block.stop - block.start, draw))


def _draw_block(rng: np.random.Generator, states, size: int, draw: _Draw) -> tuple:
    """The points and group elements of the next ``size`` samples of ``states``:
    per sample, one generator call per kind of draw into block buffers, one
    ``standard_normal`` call for the normals of all its points; then the block
    is mapped, normalized and scaled at once. A function of its own, so that its
    buffers are freed before the suite evaluates the block (held, they raised the
    peak RSS of an n=64 ``verify`` by about 0.3 MiB)."""
    n, points, order = draw.n, draw.points, draw.order
    bit_generator = rng.bit_generator
    normals = np.empty((size, points, 2 * n))
    exponents = np.empty((size, points))
    elements = np.zeros(size, dtype=np.int64)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    stream = state["state"]
    for i, (stream["state"], stream["inc"]) in zip(range(size), states):
        bit_generator.state = state
        if draw.scaled:
            # uniform(-3, 3) is -3 + 6 * random(), mapped below for the block
            rng.random(out=exponents[i])
        # the ziggurat reads the same words for one call of points * 2n as for
        # 2 * points calls of n
        rng.standard_normal(out=normals[i])
        if order > 1:
            elements[i] = rng.integers(1, order)
    # re + 1j * im, built in place as a C-contiguous (points, size, n) array
    normals = normals.swapaxes(0, 1)
    z = np.multiply(1j, normals[..., n:], order="C")
    z += normals[..., :n]
    # the squared norm of each row is the strided BLAS dot of one point's real
    # and imaginary parts (np.linalg.norm's), which a vector-by-vector matmul
    # calls; an elementwise sum rounds differently
    re, im = z.real[..., None, :], z.imag[..., None, :]
    z = z / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    if draw.scaled:
        z = (10.0 ** (-3.0 + 6.0 * exponents)).T[:, :, None] * z
    return (*z, elements) if order else tuple(z)


class _Worst:
    """The first sample, over blocks of values, sample indices and fields (arrays of
    one shape, row-major in index order), whose value strictly beats the kept one and
    the start (0 for a maximum, inf for a minimum); ``case`` is None until one does."""

    def __init__(self, name: str, largest: bool):
        self.name, self.largest = name, largest
        self.value, self.case = (0.0 if largest else math.inf), None

    def offer(self, values: np.ndarray, samples: np.ndarray, **fields: np.ndarray) -> None:
        if values.size:
            i = int(np.argmax(values) if self.largest else np.argmin(values))
            value = values.flat[i].item()
            if value > self.value if self.largest else value < self.value:
                self.value = value
                self.case = {"sample": samples.flat[i].item(), self.name: value,
                             **{key: a.flat[i].item() for key, a in fields.items()}}


def _orbit_pass(action: CyclicAction, f, samples: int, seed: int, width: int):
    """The orbit pass of f, which maps rows to rows of ``width``: f over the
    orbit of the first sphere point x of each sample 0..samples-1, reduced to
    ``(case, spread)``, two maxima kept running per block:

    * ``case``: ``{"sample", "k", "deviation"}`` of the largest relative
      deviation ``||f(T^k x) - f(x)|| / (1 + ||f(x)||)``, at the first sample and
      then the first k that attain it; None if no deviation beats 0;
    * ``spread``: the largest gap ``||f(T^k x) - f(x)||``, a float.
    """
    n, m = action.n, action.m
    worst, spread = _Worst("deviation", largest=True), 0.0
    for start, x in _draw_blocks(seed, samples, m * max(n, width), _Draw(n, 1)):
        values = f(orbit(action, x).reshape(-1, n)).reshape(len(x), m, -1)  # k = 0 is x
        gaps = np.linalg.norm(values - values[:, :1], axis=-1)  # 0 at k = 0
        dev = gaps / (1.0 + np.linalg.norm(values[:, :1], axis=-1))
        rows, k = np.indices(dev.shape)  # sample-major: the first sample, then k
        worst.offer(dev, start + rows, k=k)
        spread = max(spread, float(gaps.max()))
    return worst.case, spread


def _embedding_orbit_pass(pipeline: Pipeline, samples: int, seed: int, passes: dict | None):
    """The orbit pass of Phi, kept in ``passes`` by ``(seed, samples)`` if given."""
    passes = {} if passes is None else passes
    if (seed, samples) not in passes:
        passes[seed, samples] = _orbit_pass(pipeline.action, lambda u: embed(pipeline, u),
                                            samples, seed, pipeline.target_dim)
    return passes[seed, samples]


def _pairs(pipeline: Pipeline, samples: int, seed: int, cutoff: float, draw: _Draw):
    """Per block of ``draw``'s pair rows: ``(start, x, y[, k], d, kept)``, kept the d >= cutoff."""
    action = pipeline.action
    width = (3 if draw.order else 2) * max(action.n, pipeline.target_dim)
    for start, x, y, *k in _draw_blocks(seed, samples, width, draw):
        d = quotient_distance(action, x, y)
        yield (start, x, y, *k, d, np.flatnonzero(d >= cutoff))


def _embedding_gaps(pipeline: Pipeline, x: np.ndarray, y: np.ndarray, rows: np.ndarray):
    """``||Phi(x) - Phi(y)||`` of the pairs at ``rows``."""
    return np.linalg.norm(embed(pipeline, x[rows]) - embed(pipeline, y[rows]), axis=-1)


def _parallel_fit(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row with ``||h||^2 != 0`` (the mask ``ok``), the best positive multiple
    ``lambda* = max(Re<h, g>, 0) / ||h||^2`` and the residual ``||g - lambda* h||``."""
    h2 = np.linalg.norm(h, axis=-1) ** 2
    ok = h2 != 0.0
    h, g = h[ok], g[ok]
    lam = np.maximum(np.real(np.sum(h.conj() * g, axis=-1)) / h2[ok], 0.0)
    return ok, lam, np.linalg.norm(g - lam[:, None] * h, axis=-1)


def check_invariance(pipeline: Pipeline, samples: int, seed: int = 0, *,
                     passes: dict | None = None) -> VerificationReport:
    """Max relative deviation of Phi over full orbits of random unit signals.

    The zero signal, its own orbit, is always included as a forced case; its
    embedding must vanish exactly, not merely be small. ``passes`` is a memo of
    orbit passes that one caller keeps for this pipeline (see the module docstring).
    """
    check_param(samples=samples, seed=seed)
    worst = float(np.linalg.norm(embed(pipeline, np.zeros(pipeline.action.n))))
    case, _ = _embedding_orbit_pass(pipeline, samples, seed, passes)
    case = case if case and case["deviation"] > worst else None
    worst = case["deviation"] if case else worst
    return VerificationReport(
        suite="invariance", samples=samples, seed=seed,
        statistic=worst, threshold=INVARIANCE_TOL,
        passed=worst <= INVARIANCE_TOL, cases=(case,) if case else ())


def separation_margin(pipeline: Pipeline, samples: int, delta: float,
                      seed: int = 0, *, passes: dict | None = None) -> VerificationReport:
    """Smallest embedding distance between clearly distinct orbits.

    Injectivity holds for a generic reducer draw; sampling verifies it
    quantitatively: among random unit pairs with quotient distance >= delta,
    the minimum of ||Phi(x)-Phi(y)|| must be positive and exceed the
    same-orbit leakage (which must itself stay below 1e-10) by a factor of
    ``SEPARATION_HEADROOM``. ``passes`` is a memo of orbit passes that one
    caller keeps for this pipeline (see the module docstring).
    """
    check_param(delta=delta, samples=samples, seed=seed)
    _, leakage = _embedding_orbit_pass(pipeline, samples, seed, passes)
    worst = _Worst("margin", largest=False)
    qualifying = 0
    for start, x, y, d, far in _pairs(pipeline, samples, seed, delta, _Draw(pipeline.action.n, 2)):
        qualifying += len(far)
        worst.offer(_embedding_gaps(pipeline, x, y, far), start + far, quotient_distance=d[far])
    margin = worst.value if qualifying else 0.0
    passed = (qualifying > 0 and leakage <= SAME_ORBIT_TOL
              and margin > 0.0 and margin > SEPARATION_HEADROOM * leakage)
    return VerificationReport(
        suite="separation", samples=samples, seed=seed,
        statistic=margin, threshold=SEPARATION_HEADROOM * leakage, passed=passed,
        cases=(worst.case,) if worst.case else (),
        extra={"delta": delta, "qualifying_pairs": qualifying,
               "same_orbit_leakage": leakage, "headroom": SEPARATION_HEADROOM})


def empirical_lipschitz(pipeline: Pipeline, samples: int, seed: int = 0) -> VerificationReport:
    """Largest observed ratio ||Phi(x)-Phi(y)|| / d([x],[y]) at mixed scales.

    Point norms are log-uniform in [1e-3, 1e3]; the ratio must stay below the
    proven constant 3*m*||l|| (up to 1e-9 relative slack for rounding). The
    observed maximum is also the empirical Lipschitz estimate.
    """
    check_param(samples=samples, seed=seed)
    bound = lipschitz_bound(pipeline)
    threshold = bound.bound * (1.0 + 1e-9)
    worst = _Worst("ratio", largest=True)
    excluded = 0
    for start, x, y, d, kept in _pairs(pipeline, samples, seed, RATIO_EXCLUSION,
                                       _Draw(pipeline.action.n, 2, scaled=True)):
        excluded += len(d) - len(kept)
        worst.offer(_embedding_gaps(pipeline, x, y, kept) / d[kept], start + kept,
                    quotient_distance=d[kept])
    return VerificationReport(
        suite="lipschitz", samples=samples, seed=seed,
        statistic=worst.value, threshold=threshold, passed=worst.value <= threshold,
        cases=(worst.case,) if worst.case else (),
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
    check_param(delta=delta, samples=samples, seed=seed)
    action = pipeline.action
    worst = _Worst("residual", largest=False)
    qualifying = zero_image = 0
    lam_err = same_resid = 0.0
    # the pair, then the group element of the same-orbit pair (x, T^k x)
    for start, x, y, k, _, far in _pairs(pipeline, samples, seed, delta,
                                         _Draw(action.n, 2, order=action.m)):
        hx, hy = measure(pipeline, x), measure(pipeline, y)
        ok, lam, resid = _parallel_fit(hy[far], hx[far])
        zero_image += int(np.sum(~ok))
        qualifying += len(lam)
        worst.offer(resid, start + far[ok], **{"lambda": lam})
        # same-orbit fixed point: lambda* = 1, residual ~ 0
        ok, lam, resid = _parallel_fit(hx, measure(pipeline, act(action, k, x)))
        zero_image += int(np.sum(~ok))
        lam_err = max(lam_err, float(np.abs(lam - 1.0).max(initial=0.0)))
        same_resid = max(same_resid, float(resid.max(initial=0.0)))
    min_residual = worst.value if qualifying else 0.0
    passed = (qualifying > 0 and min_residual > 0.0
              and lam_err <= LAMBDA_TOL and same_resid <= LAMBDA_TOL)
    return VerificationReport(
        suite="nonparallel", samples=samples, seed=seed,
        statistic=min_residual, threshold=0.0, passed=passed,
        cases=(worst.case,) if worst.case else (),
        extra={"delta": delta, "qualifying_pairs": qualifying,
               "zero_image_pairs": zero_image,
               "same_orbit_lambda_error": lam_err,
               "same_orbit_residual": same_resid})


def sup_norm_check(sset: SeparatingSet, samples: int, seed: int = 0) -> VerificationReport:
    """Bound every monomial and every analytic partial on the unit sphere.

    At unit points each monomial has modulus at most 1 and each holomorphic
    partial has modulus at most the group order m.
    """
    check_param(samples=samples, seed=seed)
    m = sset.action.m
    max_component = 0.0
    max_partial = 0.0
    for _, x in _draw_blocks(seed, samples, sset.size, _Draw(sset.n, 1)):
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
    check_param(lam=lam)
    y = as_signals(y, sset.n)
    exponents = 1.0 / np.array(sset.orders, dtype=np.float64)
    return lam ** exponents * y


# --- lower-Lipschitz degeneration sweep ----------------------------------------

@dataclass(frozen=True)
class SweepResult(_Report):
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
    suite: str = "lower_lipschitz_sweep"


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
    The sweep runs on the pipeline's diagonal form (``sset.action``), whose
    coordinates the witness indexes: for translation, the Fourier conjugate.
    """
    pipeline = replace(pipeline, action=pipeline.sset.action)
    action = pipeline.action
    if action.m < 3 or action.n < 3:
        raise HypothesisError(
            f"degeneration requires group order and dimension >= 3, "
            f"got m={action.m}, n={action.n}")
    check_param(epsilons=epsilons, witness=witness, dim=action.n)
    eps = [float(e) for e in epsilons]
    if witness is None:
        support, perturb, _ = find_degeneration_witness(pipeline.sset)
    else:
        support, perturb = map(int, witness)

    # row 0 is the base point x (eps = 0), row i + 1 is x_eps for eps[i]
    xe = np.zeros((len(eps) + 1, action.n), dtype=np.complex128)
    xe[:, support] = np.sqrt(1.0 - np.square([0.0] + eps))
    xe[1:, perturb] = eps
    dists = quotient_distance(action, xe[1:], xe[0])
    phi = embed(pipeline, xe)
    # the whole-vector (BLAS dot) norm of each row keeps the recorded sweep bits
    gaps = [float(np.linalg.norm(row)) for row in phi[1:] - phi[0]]
    # x_eps has two nonzero moduli and x one, so they never share an orbit: a 0
    # is float64 underflow, and its logarithm would make the fit NaN
    for what, values in (("quotient distance", dists.tolist()), ("embedding gap", gaps)):
        if 0.0 in values:
            raise HypothesisError(f"the {what} at eps={eps[values.index(0.0)]} is 0 in "
                                  "float64 (underflow); use larger epsilons")
    ratios = (np.array(gaps) / dists).tolist()

    log_e = np.log(eps)
    log_r = np.log(ratios)
    slope, intercept = np.polyfit(log_e, log_r, 1)
    fit = slope * log_e + intercept
    residual = float(np.sqrt(np.mean((fit - log_r) ** 2)))
    passed = bool(0.8 <= slope <= 1.2 and ratios[-1] / ratios[0] < 0.5)
    return SweepResult(
        epsilons=tuple(eps), quotient_distances=tuple(dists.tolist()),
        embedding_gaps=tuple(gaps), ratios=tuple(ratios),
        slope=float(slope), residual=residual,
        support_index=support, perturb_index=perturb, passed=passed)


# --- the prime-case introductory map and its separation failure ----------------

def prime_fourier_map(p: int, xhat) -> np.ndarray:
    """The naive Fourier-domain invariant map for prime p.

    Sends xhat to (xhat_0, xhat_1^p, ..., xhat_{p-1}^p,
    xhat_1^{p-2} xhat_2, ..., xhat_1 xhat_{p-1}), a vector of length 2p-2
    (row by row for a batch ``(S, p)``). It is invariant under modulation
    but fails to separate orbits whenever xhat_1 = 0, which is why the full
    separating set is needed.
    """
    if not is_int(p):
        raise ParameterError(f"p must be prime, got {p!r}")
    xhat = as_signals(xhat, p)  # first: it bounds the trial division by sqrt(len(xhat))
    if not is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")
    cross = xhat[..., 1:2] ** np.arange(p - 2, 0, -1) * xhat[..., 2:]
    return np.concatenate((xhat[..., :1], xhat[..., 1:] ** p, cross), axis=-1)


def prime_collision_pair(p: int) -> tuple[np.ndarray, np.ndarray]:
    """A pair on distinct orbits that the prime-case map cannot distinguish.

    Both vectors vanish on coefficients 0 and 1 and are flat elsewhere; one
    has its second free coefficient rotated by a p-th root of unity. All map
    coordinates that could see the rotation contain the vanishing xhat_1.
    """
    check_param(p=p)
    x = np.zeros(p, dtype=np.complex128)
    x[2:] = 1.0
    y = x.copy()
    y[2] = np.exp(2j * np.pi / p)
    return x, y


def prime_case_report(p: int = 5, samples: int = 200, seed: int = 0) -> VerificationReport:
    """Demonstrate that the prime-case map is invariant yet non-separating."""
    check_param(samples=samples, p=p, seed=seed)
    modulation = make_cyclic_action(p, range(p))
    case, _ = _orbit_pass(modulation, lambda u: prime_fourier_map(p, u), samples, seed,
                          2 * p - 2)
    worst = case["deviation"] if case else 0.0
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
        extra={"p": int(p), "collision_map_gap": map_gap,
               "collision_orbit_distance": orbit_gap,
               "collision_same_orbit": same_orbit})
