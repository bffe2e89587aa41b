"""Settling time of mesochronous clock-retiming loops.

Analytic absorbing-chain predictions and Monte Carlo behavioral trials
for loops whose sampling clock starts inside the jitter-closed region
of the data eye, plus the standard settling-time reduction techniques.

The package exports each module's ``__all__``, in the order below; a
module's list is the one declaration of its public names.
"""

from . import jitter, loop, markov, reduction, sim
from .jitter import *  # noqa: F403
from .loop import *  # noqa: F403
from .markov import *  # noqa: F403
from .reduction import *  # noqa: F403
from .sim import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [*markov.__all__, *jitter.__all__, *loop.__all__, *sim.__all__, *reduction.__all__]
