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

from .action import (TRANSLATION, CyclicAction, as_signals, block_rows, blocks, dft,
                     to_fourier_domain)
from .errors import DataError, DimensionError, ParameterError, check_param, is_int
from .invariants import SeparatingSet, is_homogeneous, separating_set

__all__ = [
    "Reducer", "Pipeline", "LipschitzBound",
    "make_reducer", "eval_invariants", "eval_gradient", "operator_norm",
    "make_pipeline", "auto_target_dim", "measure", "embed", "lipschitz_bound",
]

# Rows of one reducer product, and of one block of operator_norm's Gram matrix,
# when an action.BLOCK_BYTES block holds fewer: smaller gemms cost more per
# row. OpenBLAS (with one thread) gives a row the same bits in every product
# of two or more rows; a lone row is padded to two (a one-row product is a
# gemv, which rounds differently), so no row's bits depend on its batch.
PRODUCT_ROWS = 64


@dataclass(frozen=True)
class Reducer:
    """A k x N linear map with reproducible entries.

    The entries are a pure function of (rows, cols, seed, kind): the
    documented generator (NumPy ``default_rng``, PCG64) draws the same bits
    on every run.
    """

    rows: int
    cols: int
    seed: int
    kind: str
    entries: np.ndarray = field(repr=False, compare=False)


def make_reducer(N: int, k: int, seed: int = 0, kind: str = "gaussian") -> Reducer:
    """Draw the generic linear map l: C^N -> C^k.

    Gaussian kind: independent entries with standard-normal real and
    imaginary parts, each scaled by 1/sqrt(2) (unit expected squared
    modulus): entry (i, j) is ``(z[0, i, j] + 1j * z[1, i, j]) / sqrt(2)`` with
    ``z = default_rng(seed).standard_normal((2, k, N))``, drawn without
    holding z.
    Identity kind requires k = N and ignores the seed for entry values.
    Kind ``"auto"`` is identity when k = N (the reduction is vacuous) and
    gaussian otherwise.
    """
    check_param(seed=seed, kind=kind)
    if not (is_int(N) and is_int(k) and 1 <= k <= N):
        raise ParameterError(
            f"reducer requires integer sizes 1 <= k <= N, got k={k!r}, N={N!r} "
            "(this map only reduces; padding is unsupported)")
    if kind == "auto":
        kind = "identity" if k == N else "gaussian"
    if kind == "gaussian":
        # the stream of standard_normal((2, k, N)), drawn block by block straight
        # into the real, then the imaginary parts; times the reciprocal, which is
        # what dividing (z[0] + 1j*z[1]) by sqrt(2) computes, bit for bit
        rng, scale = np.random.default_rng(seed), 1 / math.sqrt(2)
        entries = np.empty((k, N), dtype=np.complex128)
        for part in (entries.real, entries.imag):
            for block in blocks(k, N):
                part[block] = rng.standard_normal((block.stop - block.start, N)) * scale
    elif k != N:
        raise ParameterError(f"identity reducer requires k = N, got k={k}, N={N}")
    else:
        entries = np.eye(N, dtype=np.complex128)
    entries.setflags(write=False)
    return Reducer(rows=k, cols=N, seed=int(seed), kind=kind, entries=entries)


def operator_norm(reducer) -> float:
    """Largest singular value, from the top eigenvalue of the smaller Gram matrix.

    For a k x N matrix l the Gram matrix is l l* when k <= N (every reducer)
    and the conjugate of l* l otherwise (same spectrum); its largest
    eigenvalue is sigma_max squared. It is filled one block of rows at a
    time, conj(l[I]) l^T, and conjugated once in place, so no conjugate copy
    of l is made. A block has ``max(PRODUCT_ROWS, block_rows(N))`` rows, the
    reducer products' rule, and a lone last row joins the block before it,
    so with one BLAS thread each entry has the bits of the whole product
    l l*. The result is
    certified against the bracketing bounds
    frob/sqrt(min(k, N)) <= sigma_max <= frob.
    """
    a = reducer.entries if isinstance(reducer, Reducer) else np.asarray(reducer, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"operator norm expects a matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("operator norm expects finite entries")
    frob = float(np.linalg.norm(a))
    if frob == 0.0:
        return 0.0
    if a.shape[0] > a.shape[1]:
        a = a.T
    k, N = a.shape
    gram = np.empty((k, k), dtype=np.complex128)
    step = max(PRODUCT_ROWS, block_rows(N))
    starts = list(range(0, k, step))
    if k > 1 and k % step == 1:  # no one-row product: it is a gemv
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [k]):
        gram[start:stop] = a[start:stop].conj() @ a.T
    np.conjugate(gram, out=gram)
    sigma = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
    lo = frob / math.sqrt(min(a.shape)) * (1 - 1e-9)
    hi = frob * (1 + 1e-9)
    if not lo <= sigma <= hi:
        raise ArithmeticError(
            f"operator norm {sigma} outside certified bracket [{lo}, {hi}]")
    return sigma


# --- evaluation of the invariant map and its gradient -------------------------

def _factors(plan: tuple[np.ndarray, ...], x: np.ndarray):
    # each distinct power once, with numpy's own ** so every value keeps its
    # bits, then one gather per factor set of the plan (see power_plan), made
    # when the caller takes it
    coords, exps, *positions = plan
    table = x.take(coords, axis=-1) ** exps
    return (table.take(at, axis=-1) for at in positions)


def eval_invariants(sset: SeparatingSet, x) -> np.ndarray:
    """Evaluate all separating monomials at x, in canonical order.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the values are
    ``(N,)`` or ``(S, N)``, each row bit-identical to evaluating it alone.
    """
    values, second = _factors(sset.invariant_powers, as_signals(x, sset.n))
    values[..., sset.n:] *= second
    return values


def eval_partials(sset: SeparatingSet, x) -> tuple[np.ndarray, np.ndarray]:
    """The holomorphic partials that can be nonzero: ``d_first`` ``(..., N)``,
    each monomial's in its first variable, and ``d_second`` ``(..., N - n)``,
    each pair's in its second variable (see ``SeparatingSet.index_arrays``)."""
    _, a, _, b = sset.index_arrays
    factors = _factors(sset.partial_powers, as_signals(x, sset.n))
    d_first = a * next(factors)
    d_first[..., sset.n:] *= next(factors)
    # the last factor's exponent is max(b - 1, 0), so b = 0 yields 0, not 0*inf;
    # one out-of-place product: numpy's in-place complex multiply
    # runs another loop and can round the last bit differently
    d_second = b * next(factors) * next(factors)
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

    ``sset.action`` is the diagonal form the monomials act on: ``action``, or for
    translation input its Fourier conjugate (signals are DFT'd; it keeps the metric).
    """

    action: CyclicAction
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
                  reducer_kind: str = "auto") -> Pipeline:
    """Assemble the full pipeline for an action.

    ``target_dim="auto"`` resolves via :func:`auto_target_dim`; the reducer
    kind ``"auto"`` is resolved by :func:`make_reducer` (identity when the
    resolved dimension equals N, so the reduction is vacuous).
    """
    check_param(target_dim=target_dim, kind=reducer_kind, seed=seed, dim=action.n)
    diag = to_fourier_domain(action) if action.form == TRANSLATION else action
    sset = separating_set(diag)
    k = auto_target_dim(diag, sset.size) if target_dim == "auto" else target_dim
    reducer = make_reducer(sset.size, k, seed=seed, kind=reducer_kind)
    return Pipeline(action, sset, reducer)


def _to_monomial_domain(pipeline: Pipeline, x) -> np.ndarray:
    x = as_signals(x, pipeline.action.n)
    if not np.isfinite(x).all():
        raise DataError("signal contains non-finite entries")
    if pipeline.action.form == TRANSLATION:
        return dft(x)
    return x


def _reduce(pipeline: Pipeline, u: np.ndarray) -> np.ndarray:
    # H(u) = (l o F)(u) for a signal or a batch: the monomials one blocks() block
    # at a time, evaluated into one product buffer, the reducer product on
    # PRODUCT_ROWS or more rows at a time
    rows = u.reshape(-1, u.shape[-1])
    sset, entries = pipeline.sset, pipeline.reducer.entries
    out = np.empty((len(rows), pipeline.target_dim), dtype=np.complex128)
    step = max(PRODUCT_ROWS, block_rows(sset.size))
    values = np.empty((max(2, min(step, len(rows))), sset.size), dtype=np.complex128)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        for sub in blocks(len(part), sset.size):
            values[sub] = eval_invariants(sset, part[sub])
        if len(part) == 1:  # padded to two rows: a one-row product is a gemv
            values[1] = values[0]
        out[start:start + step] = (values[:max(2, len(part))] @ entries.T)[:len(part)]
    return out.reshape(u.shape[:-1] + (pipeline.target_dim,))


def measure(pipeline: Pipeline, x) -> np.ndarray:
    """The raw reduced measurement H(x) = (l o F)(x), without normalization.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the result is
    ``(k,)`` or ``(S, k)``.
    """
    return _reduce(pipeline, _to_monomial_domain(pipeline, x))


def embed(pipeline: Pipeline, x) -> np.ndarray:
    """The stable invariant embedding Phi(x) = ||x|| H(x/||x||), Phi(0) = 0.

    ``x`` is one signal ``(n,)`` or a batch ``(S, n)``; the result is
    ``(k,)`` or ``(S, k)``. With one BLAS thread, each batch row is
    bit-identical to embedding that signal alone or in any other batch (the
    reducer product runs on at least ``PRODUCT_ROWS`` rows and never on one).
    Phi is exactly zero where ||x|| (of the unitary DFT, for translation) is 0
    in float64, as it is for a nonzero row whose squared entries all underflow
    (entries below about 1.6e-162). Verification sampling stays on or near the
    unit sphere, where monomial powers of unit-modulus entries cannot overflow.
    Phi(c x) = c Phi(x) holds only while the float64 norm of x is exact: from
    entries of about 1e154 it overflows (the result is NaN), and below about
    1e-154 it loses accuracy.
    """
    u = _to_monomial_domain(pipeline, x)
    nrm = np.linalg.norm(u, axis=-1, keepdims=True)
    zero = nrm == 0.0
    nrm[zero] = 1.0  # zero rows are evaluated at u itself, then zeroed
    return np.where(zero, 0.0, nrm * _reduce(pipeline, u / nrm))


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
