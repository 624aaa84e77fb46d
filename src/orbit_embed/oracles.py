"""Independent oracle computations used by golden fixtures and tests.

These deliberately avoid the implementation paths they check: operator norms
come from a dense SVD rather than a Gram-matrix eigenvalue, gradients from central
finite differences rather than the analytic formulas, and orbit facts from
plain per-element enumeration.
"""

from __future__ import annotations

import numpy as np

from .action import CyclicAction, act, as_signals
from .embed import eval_gradient, eval_invariants
from .invariants import SeparatingSet


def svd_operator_norm(matrix) -> float:
    """Largest singular value via full decomposition."""
    return float(np.linalg.svd(np.asarray(matrix), compute_uv=False)[0])


def finite_difference_gradient(sset: SeparatingSet, x, step: float = 1e-6) -> np.ndarray:
    """Holomorphic partials estimated by central differences.

    Steps along the real and imaginary axes are taken separately; for a
    holomorphic map both give the same derivative (Cauchy-Riemann), and the
    averaged Wirtinger combination is returned. All n steps of one kind are
    evaluated as one batch.
    """
    x = as_signals(x, sset.n).reshape(sset.n)  # one signal
    steps = step * np.eye(sset.n, dtype=np.complex128)  # row i steps coordinate i
    d_re = (eval_invariants(sset, x + steps) - eval_invariants(sset, x - steps)) / (2 * step)
    steps *= 1j
    d_im = (eval_invariants(sset, x + steps) - eval_invariants(sset, x - steps)) / (2j * step)
    return ((d_re + d_im) / 2).T


def gradient_discrepancy(sset: SeparatingSet, x, step: float = 1e-6) -> float:
    """Max absolute gap between analytic and finite-difference partials."""
    return float(np.abs(eval_gradient(sset, x)
                        - finite_difference_gradient(sset, x, step)).max())


def same_orbit(action: CyclicAction, x, y, tol: float = 1e-9) -> bool:
    """Exhaustively test whether some group element maps y onto x."""
    x = as_signals(x, action.n).reshape(action.n)  # one signal
    return any(
        bool(np.linalg.norm(x - act(action, k, y)) <= tol)
        for k in range(action.m))


def exhaustive_orbit_distance(action: CyclicAction, x, y) -> float:
    """Quotient distance by per-element enumeration (definitional route)."""
    x = as_signals(x, action.n).reshape(action.n)  # one signal
    return min(
        float(np.linalg.norm(x - act(action, k, y)))
        for k in range(action.m))
