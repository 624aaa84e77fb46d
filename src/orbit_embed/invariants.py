"""The separating monomial set of a diagonal cyclic action.

For ``T = diag(t_1, ..., t_n)`` with each ``t_i`` an m-th root of unity, the
set of n(n+1)/2 monomials

    x_i ** m_i                    (one per coordinate)
    x_j ** a_jk * x_k ** b_jk     (one per pair j < k)

separates orbits: equal values on two points force the points into the same
orbit. Here ``m_i`` is the multiplicative order of ``t_i``, and ``a_jk`` is
the minimal positive exponent admitting some ``b_jk < m_k`` that makes the
pair monomial invariant. All exponent arithmetic is exact integer arithmetic;
no floating point enters the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .action import DIAGONAL, CyclicAction
from .errors import DimensionError, FormError

__all__ = [
    "PowerMonomial", "PairMonomial", "Monomial", "SeparatingSet",
    "coordinate_order", "pair_exponents", "separating_set",
    "is_invariant_monomial", "is_homogeneous", "separating_set_to_json",
]


@dataclass(frozen=True)
class PowerMonomial:
    """x_i ** exp with a 1-based coordinate index."""

    i: int
    exp: int

    def as_dict(self) -> dict:
        return {"kind": "single", "i": self.i, "exp": self.exp}


@dataclass(frozen=True)
class PairMonomial:
    """x_j ** a * x_k ** b with 1-based indices j < k; b = 0 is allowed."""

    j: int
    k: int
    a: int
    b: int

    def as_dict(self) -> dict:
        return {"kind": "pair", "j": self.j, "k": self.k, "a": self.a, "b": self.b}


Monomial = PowerMonomial | PairMonomial


@dataclass(frozen=True)
class SeparatingSet:
    """The canonical separating set of an action, in a fixed order.

    The n power monomials come first (by coordinate index), then the pair
    monomials in lexicographic (j, k) order. This ordering defines the
    coordinate system of the invariant evaluation map and is relied on by
    serialized fixtures and the reducer's column indexing.
    """

    action: CyclicAction
    monomials: tuple[Monomial, ...]

    @property
    def n(self) -> int:
        return self.action.n

    @property
    def size(self) -> int:
        return len(self.monomials)

    @property
    def singles(self) -> tuple[PowerMonomial, ...]:
        return self.monomials[: self.n]

    @property
    def pairs(self) -> tuple[PairMonomial, ...]:
        return self.monomials[self.n:]

    @property
    def orders(self) -> tuple[int, ...]:
        """Per-coordinate orders m_i (exponents of the power monomials)."""
        return tuple(s.exp for s in self.singles)

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, ...]:
        """``(first, first_exp, second, second_exp)``: the 0-based index and
        exponent of each monomial's first variable (x_i of a power, x_j of a
        pair), then of each pair's x_k. Stored on the instance: a cache keyed
        by the set would hash all n(n+1)/2 monomials on every lookup."""
        first = [(s.i - 1, s.exp) for s in self.singles] + [(p.j - 1, p.a) for p in self.pairs]
        second = [(p.k - 1, p.b) for p in self.pairs]
        return (*np.array(first, dtype=np.int64).reshape(-1, 2).T,
                *np.array(second, dtype=np.int64).reshape(-1, 2).T)

    @cached_property
    def invariant_powers(self) -> tuple[np.ndarray, ...]:
        """The :func:`power_plan` of ``x_first ** first_exp`` and ``x_second ** second_exp``."""
        first, a, second, b = self.index_arrays
        return power_plan((first, a), (second, b))

    @cached_property
    def partial_powers(self) -> tuple[np.ndarray, ...]:
        """The :func:`power_plan` of the partials' factors ``x_first ** (a - 1)``,
        ``x_second ** b``, the pairs' ``x_j ** a`` and ``x_second ** max(b - 1, 0)``."""
        first, a, second, b = self.index_arrays
        return power_plan((first, a - 1), (second, b), (first[self.n:], a[self.n:]),
                          (second, np.maximum(b - 1, 0)))


def power_plan(*factor_sets) -> tuple[np.ndarray, ...]:
    """``(coords, exps, *positions)``: each distinct (index, exponent) pair of the
    factor sets ``(indices, exponents)`` once, and each set's positions among
    them, so ``(x.take(coords, axis=-1) ** exps).take(positions[i], axis=-1)`` is
    ``x.take(indices_i, axis=-1) ** exponents_i`` bit for bit. The pairs are
    keyed as Python ints: exponents reach m < 2**63, past any packed int64 key."""
    at: dict[tuple[int, int], int] = {}
    positions = [np.array([at.setdefault(pair, len(at)) for pair in zip(i.tolist(), e.tolist())],
                          dtype=np.int64) for i, e in factor_sets]
    return (*np.array(list(at), dtype=np.int64).reshape(-1, 2).T, *positions)


def coordinate_order(m: int, e: int) -> int:
    """Multiplicative order of omega**e, i.e. m / gcd(e, m).

    With gcd(0, m) = m a zero weight gives order 1: that coordinate is fixed
    by the action and its power monomial is x_i itself.
    """
    return m // math.gcd(e, m)


def pair_exponents(m: int, e_j: int, e_k: int) -> tuple[int, int]:
    """Exponents (a, b) of the invariant pair monomial for weights (e_j, e_k).

    Returns the minimal a >= 1 such that some 0 <= b < m_k makes
    ``a*e_j + b*e_k`` divisible by m, and for that a the smallest such b.
    The multiples of e_k mod m are the multiples of g = gcd(e_k, m), so a is
    the least multiple of g / gcd(e_j, g), and b solves
    ``b * (e_k/g) = -a*e_j/g (mod m_k)`` with m_k = m/g, where e_k/g is
    invertible. b = 0 marks a degenerate pair.
    """
    g = math.gcd(e_k, m)
    a = g // math.gcd(e_j, g)
    m_k = m // g
    b = -(a * e_j // g) * pow(e_k // g, -1, m_k) % m_k if m_k > 1 else 0
    return a, b


def separating_set(action: CyclicAction) -> SeparatingSet:
    """Construct the canonical separating set of a diagonal action."""
    if action.form != DIAGONAL:
        raise FormError("separating sets are defined for diagonal actions; "
                        "conjugate translation actions with to_fourier_domain first")
    m, w = action.m, action.weights
    monos: list[Monomial] = [
        PowerMonomial(i + 1, coordinate_order(m, e)) for i, e in enumerate(w)
    ]
    for j in range(action.n):
        for k in range(j + 1, action.n):
            a, b = pair_exponents(m, w[j], w[k])
            monos.append(PairMonomial(j + 1, k + 1, a, b))
    return SeparatingSet(action=action, monomials=tuple(monos))


def is_invariant_monomial(action: CyclicAction, monomial: Monomial) -> bool:
    """Exact integer test that a monomial is invariant under the action."""
    m, w = action.m, action.weights

    def weight(i: int) -> int:
        if not 1 <= i <= action.n:
            raise DimensionError(f"monomial index {i} outside 1..{action.n}")
        return w[i - 1]

    if isinstance(monomial, PowerMonomial):
        return monomial.exp * weight(monomial.i) % m == 0
    return (monomial.a * weight(monomial.j) + monomial.b * weight(monomial.k)) % m == 0


def is_homogeneous(action: CyclicAction) -> bool:
    """True iff the generator is omega*I for a primitive m-th root omega.

    Equivalently: all weights equal and coprime to m. In that case every
    separating monomial has total degree m, so the evaluation map is
    homogeneous of degree m and one target dimension can be saved.
    """
    w = action.weights
    return all(e == w[0] for e in w) and math.gcd(w[0], action.m) == 1


# --- canonical JSON form -----------------------------------------------------

def separating_set_to_json(sset: SeparatingSet) -> dict:
    return {
        "m": sset.action.m,
        "weights": list(sset.action.weights),
        "monomials": [mono.as_dict() for mono in sset.monomials],
    }
