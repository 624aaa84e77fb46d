"""Invariant evaluation, generic linear reduction, and the normalized map.

The raw invariant map F sends a signal to the tuple of separating-monomial
values in C^N, N = n(n+1)/2. A seeded complex Gaussian matrix ``l`` reduces
the target to k ~ 2n+1 dimensions (any continuous-distribution draw is
outside the bad variety with probability 1, so seeding makes "generic"
reproducible). The final map

    Phi(x) = ||x|| * (l o F)(x / ||x||),   Phi(0) = 0

is invariant, positively homogeneous, and Lipschitz with constant at most
``3 * m * ||l||`` in the quotient metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import TRANSLATION, CyclicAction, as_signals, dft, to_fourier_domain
from .errors import DataError, DimensionError, ParameterError
from .invariants import SeparatingSet, is_homogeneous, separating_set

__all__ = [
    "Reducer", "Pipeline", "LipschitzBound",
    "make_reducer", "eval_invariants", "eval_partials", "eval_gradient", "operator_norm",
    "make_pipeline", "auto_target_dim", "measure", "embed", "embed_monomial_domain",
    "lipschitz_bound", "blocks",
    "ZERO_NORM_THRESHOLD", "BLOCK_BYTES",
]

# Inputs with norm below this are mapped to exactly zero (underflow guard;
# far below any meaningful signal scale).
ZERO_NORM_THRESHOLD = 1e-300

# Byte size of the largest temporary array of a batch evaluation: rows, and the
# suites' samples, go in blocks of this size, so memory does not grow with S.
BLOCK_BYTES = 256 * 1024

GAUSSIAN = "gaussian"
IDENTITY = "identity"


@dataclass(frozen=True)
class Reducer:
    """A k x N linear map with reproducible entries.

    Entries are never serialized: they are regenerated from
    (rows, cols, seed, kind), which guarantees bit-stable values across runs
    of the documented generator (NumPy ``default_rng``, PCG64).
    """

    rows: int
    cols: int
    seed: int
    kind: str
    entries: np.ndarray = field(repr=False, compare=False)


def make_reducer(N: int, k: int, seed: int = 0, kind: str = GAUSSIAN) -> Reducer:
    """Draw the generic linear map l: C^N -> C^k.

    Gaussian kind: independent entries with standard-normal real and
    imaginary parts, each scaled by 1/sqrt(2) (unit expected squared
    modulus), drawn as ``default_rng(seed).standard_normal((2, k, N))``.
    Identity kind requires k = N and ignores the seed for entry values.
    """
    N, k = int(N), int(k)
    if N < 1:
        raise ParameterError(f"reducer needs at least one column, got N={N}")
    if kind == GAUSSIAN:
        if not 1 <= k <= N:
            raise ParameterError(
                f"gaussian reducer requires 1 <= k <= N, got k={k}, N={N} "
                "(this map only reduces; padding is unsupported)")
        z = np.random.default_rng(seed).standard_normal((2, k, N))
        entries = (z[0] + 1j * z[1]) / math.sqrt(2)
    elif kind == IDENTITY:
        if k != N:
            raise ParameterError(f"identity reducer requires k = N, got k={k}, N={N}")
        entries = np.eye(N, dtype=np.complex128)
    else:
        raise ParameterError(f"unknown reducer kind {kind!r}")
    entries.setflags(write=False)
    return Reducer(rows=k, cols=N, seed=int(seed), kind=kind, entries=entries)


def operator_norm(reducer) -> float:
    """Largest singular value, from the top eigenvalue of the smaller Gram matrix.

    For a k x N matrix l the Gram matrix is l l* when k <= N (every reducer)
    and l* l otherwise; its largest eigenvalue is sigma_max squared. The
    result is certified against the bracketing bounds
    frob/sqrt(min(k, N)) <= sigma_max <= frob.
    """
    a = reducer.entries if isinstance(reducer, Reducer) else np.asarray(reducer, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"operator norm expects a matrix, got shape {a.shape}")
    frob = float(np.linalg.norm(a))
    if frob == 0.0:
        return 0.0
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    sigma = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
    lo = frob / math.sqrt(min(a.shape)) * (1 - 1e-9)
    hi = frob * (1 + 1e-9)
    if not lo <= sigma <= hi:
        raise ArithmeticError(
            f"operator norm {sigma} outside certified bracket [{lo}, {hi}]")
    return sigma


# --- evaluation of the invariant map and its gradient -------------------------

def blocks(count: int, width: int):
    """Slices of ``range(count)`` of about BLOCK_BYTES of ``width``-value complex rows."""
    step = max(1, BLOCK_BYTES // (16 * width))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def eval_invariants(sset: SeparatingSet, x) -> np.ndarray:
    """Evaluate all separating monomials at x, in canonical order.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the values are
    ``(N,)`` or ``(S, N)``, each row bit-identical to evaluating it alone.
    """
    x = as_signals(x, sset.n)
    first, first_exp, second, second_exp = sset.index_arrays
    values = x.take(first, axis=-1) ** first_exp
    values[..., sset.n:] *= x.take(second, axis=-1) ** second_exp
    return values


def eval_partials(sset: SeparatingSet, x) -> tuple[np.ndarray, np.ndarray]:
    """The holomorphic partials that can be nonzero: ``d_first`` ``(..., N)``,
    each monomial's in its first variable, and ``d_second`` ``(..., N - n)``,
    each pair's in its second variable (see ``SeparatingSet.index_arrays``)."""
    x = as_signals(x, sset.n)
    first, a, second, b = sset.index_arrays
    x1, x2 = x.take(first, axis=-1), x.take(second, axis=-1)
    d_first = a * x1 ** (a - 1)
    d_first[..., sset.n:] *= x2 ** b
    # clip the exponent before multiplying by b so b = 0 yields 0, not 0*inf
    d_second = b * x1[..., sset.n:] ** a[sset.n:] * x2 ** np.maximum(b - 1, 0)
    return d_first, d_second


def eval_gradient(sset: SeparatingSet, x) -> np.ndarray:
    """Analytic holomorphic partials of every monomial: ``(N, n)`` for one
    signal, ``(S, N, n)`` for a batch, scattered from :func:`eval_partials`;
    row r, column c holds d(monomial_r)/d(x_c)."""
    x = as_signals(x, sset.n)
    first, _, second, _ = sset.index_arrays
    d_first, d_second = eval_partials(sset, x)
    jac = np.zeros(x.shape[:-1] + (sset.size, sset.n), dtype=np.complex128)
    rows = np.arange(sset.size)
    jac[..., rows, first] = d_first
    jac[..., rows[sset.n:], second] = d_second
    return jac


# --- pipeline ------------------------------------------------------------------

@dataclass(frozen=True)
class Pipeline:
    """Action + separating set + reducer; evaluates F, H = l o F, and Phi.

    ``diag`` is the diagonal form the monomials act on: identical to
    ``action`` for diagonal input, its Fourier conjugate for translation
    input (signals are DFT'd before evaluation; the quotient metric is
    preserved exactly by the unitary conjugation).
    """

    action: CyclicAction
    diag: CyclicAction
    sset: SeparatingSet
    reducer: Reducer

    @property
    def target_dim(self) -> int:
        return self.reducer.rows


def auto_target_dim(action: CyclicAction, N: int) -> int:
    """Default embedding dimension: min(2n+1, N), one less when the action
    is homogeneous (T = omega*I with omega primitive)."""
    base = 2 * action.n if is_homogeneous(action) else 2 * action.n + 1
    return min(base, N)


def make_pipeline(action: CyclicAction, seed: int = 0,
                  target_dim: int | str = "auto",
                  reducer_kind: str | None = None) -> Pipeline:
    """Assemble the full pipeline for an action.

    ``target_dim="auto"`` resolves via :func:`auto_target_dim`; when the
    resolved dimension equals N the reduction is vacuous and an identity
    reducer is used unless a kind is forced explicitly.
    """
    diag = to_fourier_domain(action) if action.form == TRANSLATION else action
    sset = separating_set(diag)
    N = sset.size
    if target_dim == "auto":
        k = auto_target_dim(diag, N)
    else:
        k = int(target_dim)
        if not 1 <= k <= N:
            raise ParameterError(f"target dimension must be in 1..{N}, got {k}")
    if reducer_kind is None:
        reducer_kind = IDENTITY if k == N else GAUSSIAN
    reducer = make_reducer(N, k, seed=seed, kind=reducer_kind)
    return Pipeline(action=action, diag=diag, sset=sset, reducer=reducer)


def _to_monomial_domain(pipeline: Pipeline, x) -> np.ndarray:
    x = as_signals(x, pipeline.action.n)
    if not np.isfinite(x).all():
        raise DataError("signal contains non-finite entries")
    if pipeline.action.form == TRANSLATION:
        return dft(x)
    return x


def _reduce(pipeline: Pipeline, u: np.ndarray) -> np.ndarray:
    # H(u) = (l o F)(u) for a signal or a batch, one block of rows at a time
    rows = u.reshape(-1, u.shape[-1])
    out = np.empty((len(rows), pipeline.target_dim), dtype=np.complex128)
    for block in blocks(len(rows), pipeline.sset.size):
        out[block] = eval_invariants(pipeline.sset, rows[block]) @ pipeline.reducer.entries.T
    return out.reshape(u.shape[:-1] + (pipeline.target_dim,))


def measure(pipeline: Pipeline, x) -> np.ndarray:
    """The raw reduced measurement H(x) = (l o F)(x), without normalization.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the result is
    ``(k,)`` or ``(S, k)``.
    """
    return _reduce(pipeline, _to_monomial_domain(pipeline, x))


def embed_monomial_domain(pipeline: Pipeline, u: np.ndarray) -> np.ndarray:
    """Phi for a signal ``(n,)`` or batch ``(S, n)`` already in the diagonal
    (monomial) domain.

    Computes ||u|| H(u/||u||), and exactly zero below ZERO_NORM_THRESHOLD.
    """
    nrm = np.linalg.norm(u, axis=-1, keepdims=True)
    zero = nrm < ZERO_NORM_THRESHOLD
    nrm[zero] = 1.0  # zero rows are evaluated at u itself, then zeroed
    return np.where(zero, 0.0, nrm * _reduce(pipeline, u / nrm))


def embed(pipeline: Pipeline, x) -> np.ndarray:
    """The stable invariant embedding Phi(x) = ||x|| H(x/||x||), Phi(0) = 0.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the result is
    ``(k,)`` or ``(S, k)``, each batch row within rounding of embedding that
    signal alone. Verification sampling stays on or near the unit sphere,
    where monomial powers of unit-modulus entries cannot overflow; large
    inputs only scale the result linearly through the ||x|| factor.
    """
    return embed_monomial_domain(pipeline, _to_monomial_domain(pipeline, x))


@dataclass(frozen=True)
class LipschitzBound:
    """The upper Lipschitz data of a pipeline: ||Phi(x)-Phi(y)|| is at most
    ``bound = 3 * m * reducer_norm`` times the quotient distance.
    """

    m: int
    reducer_norm: float
    bound: float


def lipschitz_bound(pipeline: Pipeline) -> LipschitzBound:
    """Evaluate the theorem bound 3*m*||l||."""
    nrm = operator_norm(pipeline.reducer)
    return LipschitzBound(m=pipeline.action.m, reducer_norm=nrm,
                          bound=3.0 * pipeline.action.m * nrm)
