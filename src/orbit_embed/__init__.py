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

# the modules' __all__ lists, read before the function embed shadows the module
from . import action, analysis, embed, errors, invariants

__version__ = "0.1.0"
__all__ = [*action.__all__, *invariants.__all__, *embed.__all__, *analysis.__all__,
           *errors.__all__, "__version__"]

from .action import *  # noqa: E402, F403
from .invariants import *  # noqa: E402, F403
from .embed import *  # noqa: E402, F403
from .analysis import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
