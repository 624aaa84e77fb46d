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

from .action import (TRANSLATION, CyclicAction, as_signal, as_signals, dft,
                     to_fourier_domain)
from .errors import DataError, DimensionError, ParameterError
from .invariants import SeparatingSet, is_homogeneous, separating_set

__all__ = [
    "Reducer", "Pipeline", "LipschitzBound",
    "make_reducer", "reducer_to_json", "reducer_from_json",
    "eval_invariants", "eval_gradient", "operator_norm",
    "make_pipeline", "auto_target_dim", "measure", "embed", "embed_monomial_domain",
    "lipschitz_bound",
    "ZERO_NORM_THRESHOLD",
]

# Inputs with norm below this are mapped to exactly zero (underflow guard;
# far below any meaningful signal scale).
ZERO_NORM_THRESHOLD = 1e-300

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


def reducer_to_json(reducer: Reducer) -> dict:
    return {"k": reducer.rows, "N": reducer.cols,
            "seed": reducer.seed, "kind": reducer.kind}


def reducer_from_json(doc: dict) -> Reducer:
    return make_reducer(doc["N"], doc["k"], doc["seed"], doc["kind"])


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

def eval_invariants(sset: SeparatingSet, x) -> np.ndarray:
    """Evaluate all separating monomials at x, in canonical order.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the values are
    ``(N,)`` or ``(S, N)``, each row bit-identical to evaluating it alone.
    """
    x = as_signals(x, sset.n)
    si, se, pj, pk, pa, pb = sset.index_arrays
    return np.concatenate((x.take(si, axis=-1) ** se,
                           x.take(pj, axis=-1) ** pa * x.take(pk, axis=-1) ** pb),
                          axis=-1)


def eval_gradient(sset: SeparatingSet, x) -> np.ndarray:
    """Analytic holomorphic partials of every monomial, as an (N, n) matrix.

    Row r, column c holds d(monomial_r)/d(x_c). A zero exponent contributes
    a zero partial (the b = 0 degenerate pairs have no x_k dependence).
    """
    x = as_signal(x, sset.n)
    si, se, pj, pk, pa, pb = sset.index_arrays
    jac = np.zeros((sset.size, sset.n), dtype=np.complex128)
    rows_s = np.arange(sset.n)
    jac[rows_s, si] = se * x[si] ** (se - 1)
    rows_p = np.arange(sset.n, sset.size)
    jac[rows_p, pj] = pa * x[pj] ** (pa - 1) * x[pk] ** pb
    # clip the exponent before multiplying by b so b = 0 yields 0, not 0*inf
    jac[rows_p, pk] = pb * x[pj] ** pa * x[pk] ** np.maximum(pb - 1, 0)
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
    # H(u) = (l o F)(u), the one reducer product for a signal or a batch
    return eval_invariants(pipeline.sset, u) @ pipeline.reducer.entries.T


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
    if u.ndim == 1:
        # the scalar (BLAS dot) norm: one signal keeps its last bits
        nrm = float(np.linalg.norm(u))
        if nrm < ZERO_NORM_THRESHOLD:
            return np.zeros(pipeline.target_dim, dtype=np.complex128)
        zero = None
    else:
        nrm = np.linalg.norm(u, axis=-1, keepdims=True)
        zero = nrm < ZERO_NORM_THRESHOLD
        nrm[zero] = 1.0  # zero rows are evaluated at u itself, then zeroed
    phi = nrm * _reduce(pipeline, u / nrm)
    if zero is not None:
        phi[zero[:, 0]] = 0.0
    return phi


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

    When sampled sup-norm estimates of the invariant map and its gradient on
    the sphere are supplied, ``sampled_bound = 3 * reducer_norm * sampled_sup``
    reports the tighter data-driven constant.
    """

    m: int
    reducer_norm: float
    bound: float
    sampled_sup: float | None = None
    sampled_bound: float | None = None


def lipschitz_bound(pipeline: Pipeline, sampled_sup: float | None = None) -> LipschitzBound:
    """Evaluate the theorem bound 3*m*||l|| (and optionally its sampled refinement)."""
    nrm = operator_norm(pipeline.reducer)
    return LipschitzBound(
        m=pipeline.action.m,
        reducer_norm=nrm,
        bound=3.0 * pipeline.action.m * nrm,
        sampled_sup=sampled_sup,
        sampled_bound=None if sampled_sup is None else 3.0 * nrm * sampled_sup,
    )
