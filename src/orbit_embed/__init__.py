"""Complete, stable embeddings of C^n signals modulo finite cyclic group actions.

Build an action, take its separating monomials, reduce with a seeded generic
linear map, and normalize to the sphere:

    >>> import orbit_embed as oe
    >>> action = oe.make_cyclic_action(12, [6, 3, 4, 2, 2])
    >>> pipeline = oe.make_pipeline(action, seed=42)
    >>> phi = oe.embed(pipeline, [1, 2, 3, 4, 5])

The resulting map is invariant under the action, separates orbits, and is
Lipschitz with constant at most 3 * m * ||reducer|| in the quotient metric.
"""

from .action import (CyclicAction, act, as_signals, dft, idft,
                     make_cyclic_action, make_translation_action, orbit,
                     quotient_distance, to_fourier_domain)
from .analysis import (SweepResult, VerificationReport, check_invariance,
                       empirical_lipschitz, find_degeneration_witness,
                       lower_lipschitz_sweep, nonparallel_falsification,
                       prime_case_report, prime_collision_pair,
                       prime_fourier_map, separation_margin, sup_norm_check,
                       tilde_rescale)
from .embed import (LipschitzBound, Pipeline, Reducer, auto_target_dim, embed,
                    eval_gradient, eval_invariants, lipschitz_bound,
                    make_pipeline, make_reducer, measure, operator_norm)
from .errors import (DataError, DimensionError, FormError, HypothesisError,
                     OrbitEmbedError, ParameterError)
from .invariants import (Monomial, PairMonomial, PowerMonomial, SeparatingSet,
                         coordinate_order, is_homogeneous,
                         is_invariant_monomial, pair_exponents,
                         separating_set, separating_set_to_json)

__version__ = "0.1.0"

__all__ = [
    "CyclicAction", "act", "as_signals", "dft", "idft", "make_cyclic_action",
    "make_translation_action", "orbit", "quotient_distance", "to_fourier_domain",
    "Monomial", "PairMonomial", "PowerMonomial", "SeparatingSet",
    "coordinate_order", "is_homogeneous", "is_invariant_monomial",
    "pair_exponents", "separating_set", "separating_set_to_json",
    "LipschitzBound", "Pipeline", "Reducer", "auto_target_dim", "embed",
    "eval_gradient", "eval_invariants", "lipschitz_bound", "make_pipeline",
    "make_reducer", "measure", "operator_norm",
    "SweepResult", "VerificationReport", "check_invariance",
    "empirical_lipschitz", "find_degeneration_witness", "lower_lipschitz_sweep",
    "nonparallel_falsification", "prime_case_report", "prime_collision_pair",
    "prime_fourier_map", "separation_margin", "sup_norm_check", "tilde_rescale",
    "DataError", "DimensionError", "FormError", "HypothesisError",
    "OrbitEmbedError", "ParameterError",
    "__version__",
]
