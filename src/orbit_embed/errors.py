"""Exception types shared across the package, and the one table of parameter rules."""

import math
import numbers
import os

import numpy as np

__all__ = ["OrbitEmbedError", "DimensionError", "ParameterError", "FormError", "DataError",
           "HypothesisError"]


class OrbitEmbedError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionError(OrbitEmbedError):
    """A signal, index, or matrix has the wrong dimension."""


class ParameterError(OrbitEmbedError):
    """A parameter has the wrong type or is outside its valid range."""


class FormError(OrbitEmbedError):
    """An operation received an action in the wrong form (diagonal vs translation)."""


class DataError(OrbitEmbedError):
    """Input data is malformed: non-finite entries, ragged records, bad fields."""


class HypothesisError(OrbitEmbedError):
    """Preconditions of the lower-Lipschitz degeneration sweep are not met."""


def is_int(value) -> bool:
    """An integer that is not a boolean (JSON ``true`` is not a number)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def table_refusal(m: int, n: int, weight: int) -> str:
    """Why the (m, n) table of a group's elements, for weights up to ``weight``,
    cannot be built, or "" if it can: every ``k * e_i`` must fit int64, and
    building the phase table, which peaks at about 42 bytes per entry, must fit
    the machine's physical memory."""
    if (m - 1) * weight >= 2**63:
        return "its exponents k * e_i overflow int64"
    if 48 * m * n > _memory_bytes():
        return f"building it takes about {48 * m * n} bytes, more than the machine's memory"
    return ""


def _memory_bytes() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: int64 is the limit
        return 2**63


def is_prime(p) -> bool:
    """Trial division; False below 2 and for anything but an integer."""
    if not is_int(p) or p < 2:
        return False
    return all(p % q for q in range(2, int(math.isqrt(p)) + 1))


# Parameter name -> (type and range check given the action's dimension n, the
# rule). Every door -- the constructors, the suites and the config loader --
# checks through check_param; rules relating two values stay where both are.
PARAMS = {
    "m": (lambda v, n: is_int(v) and 1 <= v < 2**63,
          "must be an integer in 1..2**63-1 (int64 exponents)"),
    "weights": (lambda v, n: (isinstance(v, (list, tuple, range))
                              or (isinstance(v, np.ndarray) and v.ndim == 1))
                and all(map(is_int, v)),
                "must be a list, tuple, range or 1-d array of integers"),
    "n": (lambda v, n: is_int(v) and v >= 1, "must be an integer >= 1"),
    "k": (lambda v, n: is_int(v) or (isinstance(v, (list, tuple, np.ndarray))
                                     and np.asarray(v).dtype.kind in "iu"
                                     and (isinstance(v, np.ndarray) or all(map(is_int, v)))),
          "must be an integer, or a list or array of integers"),
    "target_dim": (lambda v, n: v == "auto" if isinstance(v, str)
                   else is_int(v) and 1 <= v <= n * (n + 1) // 2,
                   'must be "auto" or an integer in 1..n(n+1)/2, n = {n}'),
    "kind": (lambda v, n: isinstance(v, str) and v in ("auto", "gaussian", "identity"),
             'must be one of "auto", "gaussian", "identity"'),
    "seed": (lambda v, n: is_int(v) and v >= 0, "must be an integer >= 0"),
    "samples": (lambda v, n: is_int(v) and v >= 1, "must be an integer >= 1"),
    # the p x p table of the modulation action first: the primality test divides up to sqrt(p)
    "p": (lambda v, n: is_int(v) and v >= 5 and not table_refusal(v, v, v - 1) and is_prime(v),
          "must be a prime integer >= 5 whose p x p table of group elements can be built"),
    "lam": (lambda v, n: is_real(v) and v > 0, "must be a real number > 0"),
    "delta": (lambda v, n: is_real(v) and 0.0 < v < 2.0, "must be a real number in (0, 2)"),
    # one ratio has no slope to fit and cannot halve
    "epsilons": (lambda v, n: isinstance(v, (list, tuple)) and len(v) >= 2
                 and all(is_real(e) and 0.0 < e <= 0.5 for e in v)
                 and all(b < a for a, b in zip(v, v[1:])),
                 "must be a strictly decreasing list of at least two real numbers in (0, 0.5]"),
    "witness": (lambda v, n: v is None or (isinstance(v, (list, tuple)) and len(v) == 2
                                           and all(map(is_int, v)) and 0 <= min(v)
                                           and max(v) < n and v[0] != v[1]),
                "must be null or two distinct integer coordinates in 0..{n}-1"),
}


def check_param(*, dim: int | None = None, **values) -> None:
    """Check each ``name=value`` against its rule (``dim``: the action's dimension
    n); raise ParameterError, naming the first that has the wrong type or is out
    of range and its rule."""
    for name, value in values.items():
        valid, message = PARAMS[name]
        if not valid(value, dim):
            raise ParameterError(f"{name} {message.format(n=dim)}, got {value!r}")
