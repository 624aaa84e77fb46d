"""Finite cyclic unitary actions on C^n and the orbit quotient metric.

Two concrete forms are supported:

* ``diagonal`` -- the generator is ``T = diag(omega**e_0, ..., omega**e_{n-1})``
  with ``omega = exp(2*pi*i/m)`` and integer weights ``0 <= e_i < m``;
* ``translation`` -- the generator cyclically shifts coordinates
  (``(T x)(j) = x(j-1 mod n)``), which requires ``m == n`` and is unitarily
  equivalent, via the DFT, to the diagonal action with weights ``e_j = j``.

All operations are pure; ``CyclicAction`` values are immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, FormError, ParameterError

DIAGONAL = "diagonal"
TRANSLATION = "translation"


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


def make_cyclic_action(m: int, weights) -> CyclicAction:
    """Build a diagonal-form action; weights are reduced mod m on input."""
    if not 1 <= m < 2**63:
        raise ParameterError(f"group order must be in 1..2**63-1 (int64 exponents), got {m}")
    weights = tuple(int(e) % m for e in weights)
    if not weights:
        raise DimensionError("weight list must be nonempty")
    return CyclicAction(m=int(m), n=len(weights), weights=weights, form=DIAGONAL)


def make_translation_action(n: int) -> CyclicAction:
    """Build the circular-translation action of Z_n on C^n."""
    if n < 1:
        raise ParameterError(f"dimension must be a positive integer, got {n}")
    return CyclicAction(m=int(n), n=int(n), weights=tuple(range(n)), form=TRANSLATION)


def as_signals(x, n: int | None = None) -> np.ndarray:
    """Coerce to one complex128 signal ``(n,)`` or a batch of signals ``(S, n)``."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim not in (1, 2):
        raise DimensionError(
            f"signals must be an (n,) vector or an (S, n) batch, got shape {arr.shape}")
    if n is not None and arr.shape[-1] != n:
        raise DimensionError(f"signal has length {arr.shape[-1]}, expected {n}")
    return arr


@lru_cache(maxsize=64)
def _phase_table(action: CyclicAction) -> np.ndarray:
    # row k = elementwise factors of T^k for the diagonal form, shape (m, n)
    k = np.arange(action.m).reshape(-1, 1)
    e = np.array(action.weights).reshape(1, -1)
    r = k * e % action.m
    table = np.exp(2j * np.pi * r / action.m)
    # quarter-period roots are exactly representable; snap them so that e.g.
    # T = -I negates without rounding dust
    quarter = 4 * r % action.m == 0
    exact = np.array([1.0, 1.0j, -1.0, -1.0j])
    table[quarter] = exact[4 * r[quarter] // action.m % 4]
    return table


@lru_cache(maxsize=64)
def _shift_table(action: CyclicAction) -> np.ndarray:
    # row k = source indices of T^k for the translation form, shape (m, n)
    j = np.arange(action.n).reshape(1, -1)
    k = np.arange(action.m).reshape(-1, 1)
    return (j - k) % action.n


def act(action: CyclicAction, k, x) -> np.ndarray:
    """Apply the k-th power of the generator to a signal, or to a batch
    ``(S, n)`` with one k for all rows or an ``(S,)`` array of them.

    Translation form shifts indices (``y(j) = x(j-k mod n)``); diagonal form
    multiplies entry i by ``omega**(k*e_i)``. Each row keeps its norm.
    """
    x = as_signals(x, action.n)
    k = np.asarray(k) % action.m
    if k.ndim and k.shape != x.shape[:-1]:
        raise DimensionError(f"got {k.size} powers for signals of shape {x.shape}")
    if action.form == TRANSLATION:
        return np.take_along_axis(x, np.broadcast_to(_shift_table(action)[k], x.shape), axis=-1)
    return _phase_table(action)[k] * x


def orbit(action: CyclicAction, x) -> np.ndarray:
    """All m images T^k x, k = 0..m-1: ``(m, n)``, or ``(S, m, n)`` for a batch."""
    x = as_signals(x, action.n)
    if action.form == TRANSLATION:
        return x[..., _shift_table(action)]
    return _phase_table(action) * x[..., None, :]


def quotient_distance(action: CyclicAction, x, y):
    """Distance between the orbits of x and y: a float, or ``(S,)`` for batches.

    Computes ``min_k ||x - T^k y||`` exactly by enumerating all m group
    elements, one at a time; for a finite group this attains the infimum
    defining the quotient metric. Both orientations are evaluated and pooled
    so the result is symmetric in its arguments even at float precision.
    """
    x = as_signals(x, action.n)
    y = as_signals(y, action.n)
    best = np.inf
    for k in range(action.m):
        best = np.minimum(best, np.minimum(np.linalg.norm(act(action, k, y) - x, axis=-1),
                                           np.linalg.norm(act(action, k, x) - y, axis=-1)))
    return best


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
