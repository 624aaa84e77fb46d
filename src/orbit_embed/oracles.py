"""Independent oracle computations used by golden fixtures and tests.

These deliberately avoid the implementation paths they check: operator norms
come from a dense SVD rather than a Gram-matrix eigenvalue, gradients from central
finite differences rather than the analytic formulas, and orbit facts from
plain per-element enumeration.
"""

from __future__ import annotations

import numpy as np

from .action import CyclicAction, act, as_signal
from .embed import eval_gradient, eval_invariants
from .invariants import SeparatingSet


def svd_operator_norm(matrix) -> float:
    """Largest singular value via full decomposition."""
    return float(np.linalg.svd(np.asarray(matrix), compute_uv=False)[0])


def finite_difference_gradient(sset: SeparatingSet, x, step: float = 1e-6) -> np.ndarray:
    """Holomorphic partials estimated by central differences.

    Steps along the real and imaginary axes are taken separately; for a
    holomorphic map both give the same derivative (Cauchy-Riemann), and the
    averaged Wirtinger combination is returned.
    """
    x = as_signal(x, sset.n)
    jac = np.empty((sset.size, sset.n), dtype=np.complex128)
    for col in range(sset.n):
        offset = np.zeros(sset.n, dtype=np.complex128)
        offset[col] = step
        d_re = (eval_invariants(sset, x + offset) - eval_invariants(sset, x - offset)) / (2 * step)
        offset[col] = 1j * step
        d_im = (eval_invariants(sset, x + offset) - eval_invariants(sset, x - offset)) / (2j * step)
        jac[:, col] = (d_re + d_im) / 2
    return jac


def gradient_discrepancy(sset: SeparatingSet, x, step: float = 1e-6) -> float:
    """Max absolute gap between analytic and finite-difference partials."""
    return float(np.abs(eval_gradient(sset, x)
                        - finite_difference_gradient(sset, x, step)).max())


def same_orbit(action: CyclicAction, x, y, tol: float = 1e-9) -> bool:
    """Exhaustively test whether some group element maps y onto x."""
    x = as_signal(x, action.n)
    return any(
        bool(np.linalg.norm(x - act(action, k, y)) <= tol)
        for k in range(action.m))


def exhaustive_orbit_distance(action: CyclicAction, x, y) -> float:
    """Quotient distance by per-element enumeration (definitional route)."""
    x = as_signal(x, action.n)
    return min(
        float(np.linalg.norm(x - act(action, k, y)))
        for k in range(action.m))
