"""Independent oracle computations used by golden fixtures and tests.

These deliberately avoid the implementation paths they check: operator norms
come from a dense SVD rather than a Gram-matrix eigenvalue, gradients from central
finite differences rather than the analytic formulas, orbit facts from
plain per-element enumeration of the generator's definition (a cyclic shift,
or phases exp(2*pi*i*k*e/m)) rather than the action's lookup tables,
each sample's random stream from numpy's own SeedSequence rather than the
suites' hash of its state, its sphere points one at a time rather than
the suites' whole blocks, and orbit separation by the monomials from an exact
enumeration of the phases they admit rather than from sampled pairs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .action import TRANSLATION, CyclicAction, as_signals
from .embed import eval_gradient, eval_invariants
from .invariants import PowerMonomial, SeparatingSet

# Central-difference step; the orbit distance under which same_orbit calls signals equal.
FD_STEP = 1e-6
ORBIT_DISTANCE_TOL = 1e-9


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of sample ``index`` under master ``seed``: numpy's own
    ``SeedSequence`` with the index as spawn key, which the suites' block
    sampler reproduces without building one."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sphere_point(rng: np.random.Generator, n: int) -> np.ndarray:
    """One point uniform on the unit sphere of C^n, drawn from ``rng``: n real
    normals, then n imaginary ones, divided by the complex vector's norm. The
    suites draw and normalize whole blocks of such points with these bits."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def svd_operator_norm(matrix) -> float:
    """Largest singular value via full decomposition."""
    return float(np.linalg.svd(np.asarray(matrix), compute_uv=False)[0])


def finite_difference_gradient(sset: SeparatingSet, x) -> np.ndarray:
    """Holomorphic partials estimated by central differences: ``(N, n)`` for
    one signal, ``(S, N, n)`` for a batch.

    Steps along the real and imaginary axes are taken separately; for a
    holomorphic map both give the same derivative (Cauchy-Riemann), and the
    averaged Wirtinger combination is returned. All steps of one kind are
    evaluated as one batch, and each row is bit-identical to its one-signal call.
    """
    x = as_signals(x, sset.n)
    steps = FD_STEP * np.eye(sset.n, dtype=np.complex128)  # row i steps coordinate i
    shape = x.shape[:-1] + (sset.n, sset.size)
    d_re, d_im = ((eval_invariants(sset, (x[..., None, :] + h).reshape(-1, sset.n))
                   - eval_invariants(sset, (x[..., None, :] - h).reshape(-1, sset.n))
                   ).reshape(shape) for h in (steps, 1j * steps))
    return np.swapaxes((d_re / (2 * FD_STEP) + d_im / (2j * FD_STEP)) / 2, -1, -2)


def gradient_discrepancy(sset: SeparatingSet, x):
    """Max absolute gap between analytic and finite-difference partials: a
    float for one signal, ``(S,)`` for a batch."""
    return np.abs(eval_gradient(sset, x) - finite_difference_gradient(sset, x)).max(axis=(-2, -1))


def _orbit_images(action: CyclicAction, y):
    # T^k y, k = 0..m-1, from the definition rather than the action's tables
    y = as_signals(y, action.n).reshape(action.n)  # one signal
    weights = np.array(action.weights)
    for k in range(action.m):
        if action.form == TRANSLATION:
            yield np.roll(y, k)
        else:
            yield np.exp(2j * np.pi * (k * weights % action.m) / action.m) * y


def same_orbit(action: CyclicAction, x, y) -> bool:
    """Exhaustively test whether some group element maps y onto x."""
    return exhaustive_orbit_distance(action, x, y) <= ORBIT_DISTANCE_TOL


def exhaustive_orbit_distance(action: CyclicAction, x, y) -> float:
    """Quotient distance by per-element enumeration (definitional route)."""
    x = as_signals(x, action.n).reshape(action.n)  # one signal
    return min(float(np.linalg.norm(x - image)) for image in _orbit_images(action, y))


def separation_counterexample(sset: SeparatingSet):
    """``(S, f)``: a 0-based support S and phases f such that, for every x
    supported on S, ``y = x * exp(2j * pi * f)`` is off the orbit of x and has
    F(y) = F(x); None if the monomials separate every orbit.

    Exact integer enumeration from the monomials and the weights alone: power
    monomials ``x_i ** p_i`` force y = 0 off S and ``f_i = t_i / p_i`` on S; a
    monomial that does not vanish on S holds iff its exponents times f sum to an
    integer (times lcm(p_i), to 0 mod it), and y is in the orbit iff f is
    ``k e_i / m`` mod 1 on S for some k. The work grows as ``prod(p_i) * 2**n``.
    """
    from fractions import Fraction  # here: it imports decimal, which no run needs
    m, w = sset.action.m, sset.action.weights
    orders = {mono.i - 1: mono.exp for mono in sset.monomials if isinstance(mono, PowerMonomial)}
    terms = [{mono.i - 1: mono.exp} if isinstance(mono, PowerMonomial)
             else {mono.j - 1: mono.a, mono.k - 1: mono.b} for mono in sset.monomials]
    for size in range(1, sset.n + 1):
        for support in itertools.combinations(range(sset.n), size):
            p = np.array([orders[i] for i in support])
            exps = np.array([[term.get(i, 0) for i in support]
                             for term in terms if all(i in support for i in term if term[i])])
            lcm = math.lcm(*p.tolist())
            t = np.indices(p).reshape(size, -1).T
            admitted = t[(t @ (exps % p * (lcm // p)).T % lcm == 0).all(-1)]
            period = m // math.gcd(m, *(w[i] for i in support))  # of the group on S
            group = {tuple(Fraction(k * w[i] % m, m) for i in support) for k in range(period)}
            for phases in (tuple(map(Fraction, row, p.tolist())) for row in admitted.tolist()):
                if phases not in group:
                    return support, phases
    return None
