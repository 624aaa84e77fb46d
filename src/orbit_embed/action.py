"""Finite cyclic unitary actions on C^n and the orbit quotient metric.

Two concrete forms are supported:

* ``diagonal`` -- the generator is ``T = diag(omega**e_0, ..., omega**e_{n-1})``
  with ``omega = exp(2*pi*i/m)`` and integer weights ``0 <= e_i < m``;
* ``translation`` -- the generator cyclically shifts coordinates
  (``(T x)(j) = x(j-1 mod n)``), which requires ``m == n`` and is unitarily
  equivalent, via the DFT, to the diagonal action with weights ``e_j = j``.

All operations are pure; ``CyclicAction`` values are immutable and hashable.
Each action builds its ``(m, n)`` group table on first use and frees it with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionError, FormError, ParameterError, check_param, is_int,
                     table_refusal)

__all__ = ["CyclicAction", "make_cyclic_action", "make_translation_action", "as_signals",
           "act", "orbit", "quotient_distance", "dft", "idft", "to_fourier_domain"]

DIAGONAL = "diagonal"
TRANSLATION = "translation"

# quotient_distance scores each k by ||x||^2 + ||y||^2 - 2 Re <T^k y, x> and
# recomputes exactly every k scored within this fraction of ||x||^2 + ||y||^2
# of the row's smallest. Score and exact norm each carry O(n * eps) relative
# rounding at that scale, so the slack must exceed both for the exact
# minimizer always to be kept; 1e-9 is about 1e5 times n * eps at n = 64.
_CANDIDATE_SLACK = 1e-9
# That rounding is relative only while ||x||^2 + ||y||^2 lies in this range:
# below it squared entries are subnormal, above it exact norms can overflow.
# Rows outside it, or with a non-finite score, recompute every k.
_SCORED_SCALE = (1e-250, 1e250)
# Bytes of the largest temporary array of a batch evaluation: rows go in blocks of this size.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class CyclicAction:
    """A Z_m action on C^n by powers of a single unitary generator.

    ``weights`` always holds the diagonal exponents: for a translation-form
    action they are the modulation weights ``(0, 1, ..., n-1)`` the action
    conjugates to in the Fourier domain.
    """

    m: int
    n: int
    weights: tuple[int, ...]
    form: str = DIAGONAL

    @cached_property
    def _phases(self) -> np.ndarray:
        # row k = elementwise factors of T^k for the diagonal form, shape (m, n)
        k = _powers(self)
        e = np.array(self.weights).reshape(1, -1)
        r = k * e % self.m
        table = np.exp(2j * np.pi * r / self.m)
        # quarter-period roots are exactly representable; snap them so that e.g.
        # T = -I negates without rounding dust
        quarter = 4 * r % self.m == 0
        exact = np.array([1.0, 1.0j, -1.0, -1.0j])
        table[quarter] = exact[4 * r[quarter] // self.m % 4]
        return table

    @cached_property
    def _shifts(self) -> np.ndarray:
        # row k = source indices of T^k for the translation form, shape (m, n)
        k = _powers(self)
        return (np.arange(self.n) - k) % self.n


def make_cyclic_action(m: int, weights) -> CyclicAction:
    """Build a diagonal-form action; weights are reduced mod m on input."""
    check_param(m=m, weights=weights)
    if not len(weights):
        raise DimensionError("weight list must be nonempty")
    return CyclicAction(m=int(m), n=len(weights), weights=tuple(int(e) % m for e in weights),
                        form=DIAGONAL)


def make_translation_action(n: int) -> CyclicAction:
    """Build the circular-translation action of Z_n on C^n."""
    check_param(n=n)
    return CyclicAction(m=int(n), n=int(n), weights=tuple(range(n)), form=TRANSLATION)


def as_signals(x, n: int | None = None) -> np.ndarray:
    """Coerce to one complex128 signal ``(n,)`` or a batch of signals ``(S, n)``,
    n >= 1."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim not in (1, 2):
        raise DimensionError(
            f"signals must be an (n,) vector or an (S, n) batch, got shape {arr.shape}")
    if n is not None and arr.shape[-1] != n:
        raise DimensionError(f"signal has length {arr.shape[-1]}, expected {n}")
    if not arr.shape[-1]:
        raise DimensionError(f"signals need at least one entry, got shape {arr.shape}")
    return arr


def _powers(action: CyclicAction) -> np.ndarray:
    """The column k = 0..m-1 of an (m, n) table of the group's elements, refused,
    naming ``action.m``, when the table cannot be built (``errors.table_refusal``)."""
    m, n = action.m, action.n
    reason = table_refusal(m, n, max(action.weights))
    if reason:
        raise ParameterError(f"action.m = {m} is too large: the {m} x {n} table of the "
                             f"group's elements cannot be built ({reason})")
    return np.arange(m).reshape(-1, 1)


def block_rows(width: int) -> int:
    """Rows of ``width`` complex values in one BLOCK_BYTES block, at least one."""
    return max(1, BLOCK_BYTES // (16 * width))


def blocks(count: int, width: int):
    """Slices of ``range(count)`` of about BLOCK_BYTES of ``width``-value complex rows."""
    step = block_rows(width)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def act(action: CyclicAction, k, x) -> np.ndarray:
    """Apply the k-th power of the generator to a signal, or to a batch
    ``(S, n)`` with one k for all rows or an ``(S,)`` array of them.

    Translation form shifts indices (``y(j) = x(j-k mod n)``); diagonal form
    multiplies entry i by ``omega**(k*e_i)``. Each row keeps its norm.
    """
    x = as_signals(x, action.n)
    check_param(k=k)
    k = k % action.m if is_int(k) else np.asarray(k) % action.m
    if np.ndim(k) and k.shape != x.shape[:-1]:
        raise DimensionError(f"got {k.size} powers for signals of shape {x.shape}")
    if action.form == TRANSLATION:
        return np.take_along_axis(x, np.broadcast_to(action._shifts[k], x.shape), axis=-1)
    return action._phases[k] * x


def orbit(action: CyclicAction, x) -> np.ndarray:
    """All m images T^k x, k = 0..m-1: ``(m, n)``, or ``(S, m, n)`` for a batch."""
    x = as_signals(x, action.n)
    if action.form == TRANSLATION:
        return x[..., action._shifts]
    return action._phases * x[..., None, :]


def quotient_distance(action: CyclicAction, x, y):
    """Distance between the orbits of x and y: a float, or ``(S,)`` for batches.
    Batches pair row by row; one signal, or a batch of one, pairs with every row.

    ``min_k ||x - T^k y||`` over all m group elements, which for a finite
    group attains the infimum defining the quotient metric. Every k is scored
    at once from ``||x||^2 + ||y||^2 - 2 Re <T^k y, x>``, one matrix product
    with the phase table (after the unitary DFT for the translation form,
    where a shift is a modulation). Only the k whose score lies within
    rounding of the row's smallest are then evaluated exactly, as
    ``min(||T^k y - x||, ||T^-k x - y||)``, so the result is the same float
    as enumerating every k in both orientations: symmetric in its arguments
    even at float precision, and free of the score's cancellation when the
    distance is small against the norms. Rows are scored one :func:`blocks` block of max(n, m)
    values at a time, so memory does not grow with S; a block of rows that enumerate every k
    (scale outside ``_SCORED_SCALE``, or a non-finite score) holds about min(m, n) BLOCK_BYTES.
    """
    n = action.n
    x = as_signals(x, n)
    y = as_signals(y, n)
    if x.ndim == y.ndim == 2 and len(x) != len(y) and 1 not in (len(x), len(y)):
        raise DimensionError(f"cannot pair {len(x)} signals with {len(y)}")
    shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
    x, y = (np.broadcast_to(a, shape + (n,)).reshape(-1, n) for a in (x, y))
    out = np.empty(len(x))
    for block in blocks(len(x), max(n, action.m)):  # the (rows, m) scores of one block
        xb, yb = x[block], y[block]
        u, v = (dft(xb), dft(yb)) if action.form == TRANSLATION else (xb, yb)
        with np.errstate(all="ignore"):  # non-finite scores mark rows to enumerate
            scale = (u.conj() * u).real.sum(-1) + (v.conj() * v).real.sum(-1)
            score = scale[:, None] - 2.0 * ((u.conj() * v) @ action._phases.T).real
            near = score <= score.min(-1, keepdims=True) + _CANDIDATE_SLACK * scale[:, None]
        scored = (np.isfinite(score).all(-1) & (_SCORED_SCALE[0] <= scale)
                  & (scale <= _SCORED_SCALE[1]))
        rows, k = np.nonzero(near | ~scored[:, None])
        exact = np.minimum(np.linalg.norm(act(action, k, yb[rows]) - xb[rows], axis=-1),
                           np.linalg.norm(act(action, -k, xb[rows]) - yb[rows], axis=-1))
        # every row keeps at least its smallest score, so each row starts one run
        out[block] = np.minimum.reduceat(exact, np.flatnonzero(np.diff(rows, prepend=-1)))
    return out.reshape(shape)[()]


def dft(x) -> np.ndarray:
    """Unitary DFT with positive-exponent convention.

    ``dft(x)[j] = n**-0.5 * sum_l x[l] * exp(+2*pi*i*j*l/n)``, so translating
    a signal multiplies coefficient j by ``exp(2*pi*i*j*k/n)`` -- the
    modulation weights are ``e_j = +j``. A batch ``(S, n)`` is transformed
    row by row.
    """
    x = as_signals(x)
    return np.fft.ifft(x, axis=-1) * math.sqrt(x.shape[-1])


def idft(xhat) -> np.ndarray:
    """Inverse of :func:`dft` (also unitary), row by row on a batch."""
    xhat = as_signals(xhat)
    return np.fft.fft(xhat, axis=-1) / math.sqrt(xhat.shape[-1])


def to_fourier_domain(action: CyclicAction) -> CyclicAction:
    """Conjugate a translation action to its diagonal (modulation) form.

    The DFT is unitary, so quotient distances computed in either domain agree.
    """
    if action.form != TRANSLATION:
        raise FormError("to_fourier_domain expects a translation-form action; "
                        "diagonal actions are already in modulation form")
    return CyclicAction(m=action.m, n=action.n, weights=action.weights, form=DIAGONAL)
